"""Smoke test of the benchmark itself.

Usage (from the repository root): python3 bench/smoke.py

It makes a tiny run of every workload and a traced run, and asserts that
each prints every metric BENCHMARK.json names, with its unit, and passes
its checks at the default seed.  It then feeds the checkers deliberately
corrupted outputs (a wrong root count, a wrong label, a wrong CLI number,
a wrong boundary answer) and asserts that each is rejected, and runs the
benchmark in a directory without the library to see it fail cleanly.
It is a plain script, kept out of the pytest suite because it takes about
a minute.
"""

import copy
import dataclasses
import json
import shutil
import subprocess
import sys

import run

run.load_library()
import workloads  # noqa: E402
from floatcyl import RegionLabel, Stability  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*argv, cwd=run.ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout[-3000:]
    assert result["attempted"] >= 1
    return result


def assert_metrics(result, spec):
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, (sorted(set(got) ^ set(want)), got, want)
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float)), v


def rejects(fn, what):
    try:
        fn()
    except workloads.CheckError as exc:
        print(f"  rejected {what}: {exc}"[:160])
        return
    raise AssertionError(f"checker accepted {what}")


def corrupted_outputs():
    seed = run.DEFAULT_SEED
    refs = json.loads(run.FINGERPRINT.read_text())

    # sweep: an extra root, and a dropped root against the fingerprint
    sw = workloads.Sweep(seed)
    for i, p in enumerate(sw.inputs()):
        eqs, reps = sw.run(p)
        if len(eqs) == 2:
            break
    sw.check(p, (eqs, reps))
    extra = dataclasses.replace(eqs[1], phi0=(eqs[1].phi0 + 3.14159) / 2)
    rejects(lambda: sw.check(p, (eqs + [extra], reps + [reps[1]])),
            "a third root")
    rejects(lambda: workloads.compare_fingerprint(
        refs["sweep"][i], sw.fingerprint(p, (eqs[:1], reps[:1]))),
        "a dropped root (fingerprint)")
    flipped = [dataclasses.replace(eqs[0], stability=Stability.UNSTABLE)]
    rejects(lambda: sw.check(p, (flipped + eqs[1:], reps)),
            "a wrong stability")

    # map: one label flipped at a checked cell, and anywhere (fingerprint)
    mp = workloads.Map(seed)
    inp = next(mp.inputs())
    rm = mp.run(inp)
    mp.check(inp, rm)
    a_i, c_j = mp.check_cells_of(inp[1])[0]
    bad = copy.deepcopy(rm)
    bad.labels[a_i, c_j] = (RegionLabel.TWO if rm.labels[a_i, c_j]
                            is not RegionLabel.TWO else RegionLabel.ZERO)
    rejects(lambda: mp.check(inp, bad), "a wrong label")
    bad = copy.deepcopy(rm)
    bad.labels[0, 0] = RegionLabel.TWO
    rejects(lambda: workloads.compare_fingerprint(
        refs["map"][0], mp.fingerprint(inp, bad)),
        "a wrong label (fingerprint)")

    # boundary: a capillary ratio off by 1e-6
    bd = workloads.Boundary(seed)
    inp = next(i for i in bd.inputs() if bd.run(i) is not None)
    c = bd.run(inp)
    bd.check(inp, c)
    rejects(lambda: bd.check(inp, c * (1.0 + 1e-6)), "a wrong C*")

    # cli: one force value of the curves table off by a millionth
    cl = workloads.make("cli", seed, run.child_env(), run.ROOT)
    j, inp = next((j, i) for j, i in enumerate(cl.inputs())
                  if i[0] == "curves")
    code, text = cl.run(inp)
    cl.check(inp, (code, text))
    lines = text.split("\n")
    row = 10 + next(k for k, line in enumerate(lines) if line[:1].isdigit())
    cells = lines[row].split(",")
    force = float(cells[1])
    cells[1] = f"{force + 1e-6 * max(1.0, abs(force)):.12g}"
    lines[row] = ",".join(cells)
    wrong = "\n".join(lines)
    rejects(lambda: cl.check(inp, (code, wrong)), "a wrong CLI number")
    rejects(lambda: workloads.compare_fingerprint(
        refs["cli"][j], cl.fingerprint(inp, (code, wrong))),
        "a wrong CLI number (fingerprint)")
    rejects(lambda: cl.check(inp, (4, text)), "an undocumented exit code")


def bare_directory():
    """Only BENCHMARK.json and bench/: the run must fail without a result."""
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0, proc.stdout
    assert '"metrics"' not in proc.stdout, proc.stdout


def main():
    print("corrupted outputs:")
    corrupted_outputs()
    print("bare directory")
    bare_directory()
    for name in run.NAMES:
        print(f"tiny run: {name}")
        result = result_of(bench("--workload", name, "--seed",
                                 str(run.DEFAULT_SEED), "--seconds", "1",
                                 "--trace", "0"))
        assert_metrics(result, SPEC["end_to_end"])
    print("traced run: boundary")
    result = result_of(bench("--workload", "boundary", "--seed",
                             str(run.DEFAULT_SEED), "--seconds", "1",
                             "--trace", "1"))
    assert_metrics(result, SPEC["per_layer"])
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.NAMES)
    print("ok")


if __name__ == "__main__":
    main()
