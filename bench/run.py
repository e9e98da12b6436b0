"""floatcyl benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root):

    python3 bench/run.py --workload {sweep,map,boundary,cli} --seed N \
        --seconds S --trace {0,1}

--trace 0 measures the end-to-end metrics: set-up time (median of fresh
interpreters that import floatcyl and run the first op), then a closed
loop with one client that runs ops for S seconds, timing each and checking
each output.  Between ops it times a fixed reference process, and both
timing metrics are scaled by the host speed that reference measured (see
HostSpeed).  --trace 1 measures the per-layer metrics instead: a fixed
list of ops of every workload, each split into the public calls that do
the same work, with a span around each call; spans are written to
.bench_out/ at the end.  The last stdout line is the result object.  The
seed drives every input; with the default seed, outputs are also compared
against bench/fingerprint.json.

floatcyl is imported from src/ of the same checkout and nowhere else.
"""

import os

# one BLAS/OpenMP thread, here and in every child (set before numpy loads)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
FINGERPRINT = BENCH / "fingerprint.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 5
# Host-speed reference: a fresh interpreter that imports numpy, isolated
# (-I) so that nothing of the checkout is on its path.  Its median on the
# 2-vCPU Xeon VM the benchmark was tuned on is REF_NOMINAL_S.
REF_ARGV = [sys.executable, "-I", "-c", "import numpy"]
REF_NOMINAL_S = 0.155
REF_SHARE = 0.35  # reference time per op time in the timed phase
NAMES = ("sweep", "map", "boundary", "cli")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=NAMES, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def load_library():
    """Import floatcyl from this checkout's src/; exit 2 if it is missing."""
    if not (SRC / "floatcyl" / "__init__.py").is_file():
        sys.exit(f"error: no floatcyl sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import floatcyl
    if Path(floatcyl.__file__).resolve().parent != SRC / "floatcyl":
        sys.exit(f"error: floatcyl imported from {floatcyl.__file__}, "
                 f"not from {SRC}")
    return floatcyl


def environment(args, floatcyl) -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
        env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    digest = hashlib.sha256()
    for path in sorted((SRC / "floatcyl").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "floatcyl": floatcyl.__version__,
            "git_commit": commit.stdout.strip() if commit.returncode == 0
            else None,
            "src_sha256": digest.hexdigest(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def percentile(values, q):
    """Nearest-rank percentile q in (0, 100] of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)]


class Outcome:
    """Attempted and failed ops, with the first failure's message."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_error = None

    def record(self, fn):
        """Run one op's check; a raised exception marks the op failed."""
        self.attempted += 1
        try:
            fn()
        except Exception as exc:  # an op's own error counts as a failure
            self.failed += 1
            if self.first_error is None:
                self.first_error = f"{type(exc).__name__}: {exc}"


def fingerprint_checker(workloads, wl, seed):
    """fn(i, inp, out) comparing op i with the stored default-seed record."""
    if seed != DEFAULT_SEED:
        return lambda i, inp, out: None
    refs = json.loads(FINGERPRINT.read_text())[wl.name]

    def check(i, inp, out):
        if i < len(refs):
            workloads.compare_fingerprint(refs[i], wl.fingerprint(inp, out))
    return check


class HostSpeed:
    """Times REF_ARGV between measurements to scale them to a nominal host.

    The VM's host alternates between a fast state and one up to about 1.8x
    slower, for seconds to minutes, and the slowdown shows in process CPU
    time too.  The reference process slows down with it, so a time t
    measured next to reference samples r is reported as
    t * REF_NOMINAL_S / mean(r): the time it would take on the host at the
    reference's nominal speed.  The reference runs no floatcyl code, so a
    change to the library moves the scaled times as it moves the raw ones.
    """

    def __init__(self, run_child, env):
        self.run_child = run_child
        self.env = env
        self.samples = []

    def sample(self):
        t0 = time.perf_counter()
        code, _ = self.run_child(REF_ARGV, ROOT, self.env)
        self.samples.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"reference {REF_ARGV} exited with {code}")
        return self.samples[-1]

    def slowdown(self) -> float:
        """Mean reference time over nominal; > 1 on a slow host."""
        return statistics.fmean(self.samples) / REF_NOMINAL_S


def pin_to_one_cpu():
    """Keep this process and its children on one CPU, so that the reference
    and the ops it scales share a CPU's state and nothing migrates."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_untraced(wl, ops_iter, deadline, outcome, fp_check, host=None):
    """Run and check ops until the deadline; returns op latencies (s).

    With a HostSpeed, reference samples run between ops until their time
    is REF_SHARE of the op time so far, spreading them over the run.  After
    the deadline, ops go on to the end of the workload's cycle, so that a
    run measures whole rounds of its input mix.
    """
    latencies, op_time, ref_time = [], 0.0, 0.0
    for i, inp in enumerate(ops_iter):
        t0 = time.perf_counter()
        try:
            out, err = wl.run(inp), None
        except Exception as exc:  # counted as a failed op below
            out, err = None, exc
        latencies.append(time.perf_counter() - t0)
        op_time += latencies[-1]

        def check():
            if err is not None:
                raise err
            wl.check(inp, out)
            fp_check(i, inp, out)
        outcome.record(check)
        while host is not None and ref_time < REF_SHARE * op_time:
            ref_time += host.sample()
        if time.perf_counter() >= deadline and (i + 1) % wl.cycle == 0:
            break
    return latencies


def end_to_end(args, workloads, outcome):
    env = child_env()
    wl = workloads.make(args.workload, args.seed, env, ROOT)
    if args.workload == "cli":   # the first op is itself a fresh process
        probe, ok = wl.probe_argv(), workloads.CLI_EXIT_CODES
    else:
        probe = [sys.executable, str(BENCH / "probe.py"), args.workload,
                 str(args.seed)]
        ok = (0,)
    setup, setup_host = [], HostSpeed(workloads.run_child, env)
    setup_host.sample()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        code, _ = workloads.run_child(probe, ROOT, env)
        setup.append(time.perf_counter() - t0)
        if code not in ok:
            raise RuntimeError(f"set-up probe {probe} exited with {code}")
        setup_host.sample()

    wl.run(next(wl.inputs()))   # warm-up, untimed: lazy set-up and caches

    host = HostSpeed(workloads.run_child, env)
    lat = run_untraced(wl, wl.inputs(), time.perf_counter() + args.seconds,
                       outcome, fingerprint_checker(workloads, wl, args.seed),
                       host)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" \
        else resource.RUSAGE_SELF
    raw_setup = statistics.median(setup)
    raw_rate = (outcome.attempted - outcome.failed) / sum(lat)
    metrics = {
        "setup_s": (raw_setup / setup_host.slowdown(), "s"),
        "ops_per_s": (raw_rate * host.slowdown(), "ops/s"),
        # the largest child; on cli the ops, not the smaller references
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }
    # Reported, not bounded: with the host alternating between a fast and a
    # ~1.5x slower state, the median of sweep's two-class latency mix jumps
    # between the states (run-to-run spread 0.31 against 0.17 for ops_per_s).
    info = {"ops": len(lat), "failed_frac": outcome.failed / outcome.attempted,
            "setup_samples_s": setup, "raw_setup_s": raw_setup,
            "raw_ops_per_s": raw_rate,
            "setup_slowdown": setup_host.slowdown(),
            "slowdown": host.slowdown(), "ref_samples": len(host.samples),
            "op_p50_ms": statistics.median(lat) * 1e3}
    for q in (90, 99, 99.9):
        if len(lat) * (100 - q) / 100 >= 10:
            info[f"op_p{q:g}_ms"] = percentile(lat, q) * 1e3
    return metrics, info


# per-layer metric -> (span or counter name, statistic, scale, unit).
# Statistics: p50 of span durations, p50 of self times, busy (sum of self
# times), calls (span count), count (a counter), calls_and_nested (spans
# plus the calls regions made, counted by workloads.CountCalls) and
# none_frac (share of calls that returned None).
LAYERS = {
    "model.total_force.scalar_us": ("model.total_force.scalar", "p50", 1e6,
                                    "us"),
    "model.force_slope.scalar_us": ("model.force_slope.scalar", "p50", 1e6,
                                    "us"),
    "model.total_force.grid1000_us": ("model.total_force.grid1000", "p50", 1e6,
                                      "us"),
    "equilibria.critical_points.p50_us": ("equilibria.critical_points", "p50",
                                          1e6, "us"),
    "equilibria.critical_points.busy_s": ("equilibria.critical_points", "busy",
                                          1.0, "s"),
    "equilibria.find_equilibria.self_p50_us": ("equilibria.find_equilibria",
                                               "self_p50", 1e6, "us"),
    "equilibria.find_equilibria.busy_s": ("equilibria.find_equilibria", "busy",
                                          1.0, "s"),
    "equilibria.critical_mass_ratio.p50_us": ("equilibria.critical_mass_ratio",
                                              "p50", 1e6, "us"),
    "equilibria.critical_mass_ratio.calls": ("equilibria.critical_mass_ratio",
                                             "calls_and_nested", 1, "count"),
    "equilibria.roots_0": ("equilibria.roots_0", "count", 1, "count"),
    "equilibria.roots_1": ("equilibria.roots_1", "count", 1, "count"),
    "equilibria.roots_2": ("equilibria.roots_2", "count", 1, "count"),
    "equilibria.guard_warnings": ("equilibria.guard_warnings", "count", 1,
                                  "count"),
    "intersection.validity.p50_us": ("intersection.validity", "p50", 1e6, "us"),
    "intersection.validity.busy_s": ("intersection.validity", "busy", 1.0, "s"),
    "intersection.validity.calls": ("intersection.validity", "calls", 1,
                                    "count"),
    "regions.label_cells.validity_calls": (
        "regions.label_cells.validity_calls", "count", 1, "count"),
    "regions.label_cells_s": ("regions.label_cells", "p50", 1.0, "s"),
    "regions.trace_tangency_curve_s": ("regions.trace_tangency_curve", "p50",
                                       1.0, "s"),
    "regions.trace_endpoint_curve_s": ("regions.trace_endpoint_curve", "p50",
                                       1.0, "s"),
    "regions.trace_intersection_curve_s": ("regions.trace_intersection_curve",
                                           "p50", 1.0, "s"),
    "regions.cells_zero": ("regions.cells_zero", "count", 1, "count"),
    "regions.cells_one": ("regions.cells_one", "count", 1, "count"),
    "regions.cells_two": ("regions.cells_two", "count", 1, "count"),
    "regions.cells_one_valid_one_invalid": (
        "regions.cells_one_valid_one_invalid", "count", 1, "count"),
    "regions.tangency_boundary_c.p50_ms": ("regions.tangency_boundary_c",
                                           "p50", 1e3, "ms"),
    "regions.tangency_boundary_c.busy_s": ("regions.tangency_boundary_c",
                                           "busy", 1.0, "s"),
    "regions.tangency_boundary_c.none_frac": ("regions.tangency_boundary_c",
                                              "none_frac", 1.0, "ratio"),
    "oracles.run_all_s": ("oracles.run_all", "p50", 1.0, "s"),
    "cli.import_s": ("cli.import", "p50", 1.0, "s"),
    "cli.python_floor_s": ("cli.python_floor", "p50", 1.0, "s"),
    "cli.numpy_floor_s": ("cli.numpy_floor", "p50", 1.0, "s"),
}


def layer_metrics(tr, kinds, overhead) -> dict:
    spans = tr.summary()
    empty = {"dur": [], "self": []}

    def stat(name, how):
        rec = spans.get(name, empty)
        if how == "count":
            return tr.counts[name]
        if how == "calls":
            return len(rec["dur"])
        if how == "calls_and_nested":
            return len(rec["dur"]) + tr.counts[name + ".nested_calls"]
        if how == "none_frac":
            return tr.counts[name + ".none"] / max(1, len(rec["dur"]))
        if how == "busy":
            return sum(rec["self"])
        vals = rec["self" if how == "self_p50" else "dur"]
        return statistics.median(vals) if vals else 0.0

    m = {metric: (stat(name, how) * scale, unit)
         for metric, (name, how, scale, unit) in LAYERS.items()}
    for kind in kinds:
        m[f"cli.main.{kind}_ms"] = (stat(f"cli.main.{kind}", "p50") * 1e3, "ms")
        m[f"cli.stdout_bytes.{kind}"] = (tr.counts[f"cli.stdout_bytes.{kind}"],
                                         "bytes")
    m["trace_overhead_frac"] = (overhead, "ratio")
    return m


def per_layer(args, workloads, tracing, outcome):
    """Untraced then traced pass of this workload, then the other three."""
    env = child_env()
    tr = tracing.Tracer()
    mine = workloads.make(args.workload, args.seed, env, ROOT)
    mine.run(next(mine.inputs()))   # warm-up, untimed
    ops = [inp for inp, _ in zip(mine.inputs(), range(mine.trace_ops))]
    untraced = run_untraced(mine, iter(ops), float("inf"), outcome,
                            fingerprint_checker(workloads, mine, args.seed))

    op_id = 0
    with workloads.CountCalls(tr):
        for name in [args.workload] + [x for x in NAMES if x != args.workload]:
            wl = workloads.make(name, args.seed, env, ROOT)
            fp_check = fingerprint_checker(workloads, wl, args.seed)
            for i, inp in zip(range(wl.trace_ops), wl.inputs()):
                tr.op = op_id
                op_id += 1
                try:
                    with tr.span(f"op.{name}"):
                        out, err = wl.traced(inp, tr), None
                except Exception as exc:  # counted as a failed op below
                    out, err = None, exc

                def check():
                    if err is not None:
                        raise err
                    with tr.span(f"check.{name}"):
                        wl.check(inp, out, tr)
                    fp_check(i, inp, out)
                outcome.record(check)
            if name == "cli":
                wl.floors(tr)

    traced = sum(tr.summary()[f"op.{args.workload}"]["dur"])
    OUT.mkdir(exist_ok=True)
    tr.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    overhead = traced / sum(untraced) - 1.0
    return layer_metrics(tr, workloads.CLI_KINDS, overhead), {"ops": op_id}


def main(argv=None):
    args = parse_args(argv)
    floatcyl = load_library()
    pin_to_one_cpu()
    import tracing
    import workloads

    env = environment(args, floatcyl)
    outcome = Outcome()
    if args.trace:
        metrics, info = per_layer(args, workloads, tracing, outcome)
    else:
        metrics, info = end_to_end(args, workloads, outcome)
    info["first_error"] = outcome.first_error
    result = {"correct": outcome.failed == 0, "attempted": outcome.attempted,
              "failed": outcome.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"env": env, "info": info, **result}, indent=1))
    print(json.dumps({"env": env, "info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
