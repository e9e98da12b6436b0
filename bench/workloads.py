"""The four benchmark workloads and the checks on their outputs.

Each workload turns a seed into an endless, deterministic stream of op
inputs, runs one op through floatcyl's public API (``run``), runs the same
work split into the public calls that make it up with a span around each
(``traced``), and checks the output against invariants that hold for every
seed (``check``).  ``fingerprint`` reduces one op's output to a small
record that is compared against the one stored for the default seed.

The library only ever sees the generated inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
import subprocess
import sys
import threading
import warnings

import numpy as np

import floatcyl.regions
from floatcyl import (CurveKind, DimensionlessParams,
                      ModelInconsistencyWarning, PhysicalParams, RegionLabel,
                      Stability,
                      asymptotic_critical_mass, center_height,
                      classify_point, critical_mass_ratio, critical_points,
                      find_equilibria, force_slope, interface_profile,
                      region_map, run_all, second_extremum_threshold,
                      tangency_boundary_c, to_dimensionless, total_energy,
                      total_force, trace_endpoint_curve,
                      trace_intersection_curve, trace_tangency_curve,
                      two_equilibrium_corner, validity)
from floatcyl.cli import main as cli_main

PI = math.pi
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
REL_TOL = 1e-9
CHILD_TIMEOUT_S = 120
# region_map's CLI-default window, resolution and curve samples
MAP_A = (0.0, 12.0)
MAP_C = (0.0, 5.0)
MAP_RES = (200, 200)
MAP_CURVE_SAMPLES = 200

_LABEL_CHAR = {RegionLabel.ZERO: "z", RegionLabel.ONE: "o",
               RegionLabel.TWO: "t", RegionLabel.ONE_VALID_ONE_INVALID: "v"}


class CheckError(Exception):
    """An op's output breaks an invariant or differs from the fingerprint."""


def require(cond, msg):
    if not cond:
        raise CheckError(msg)


def close(got, want, scale=1.0, rel=REL_TOL) -> bool:
    return abs(got - want) <= rel * max(scale, abs(got), abs(want))


def require_close(got, want, what, scale=1.0):
    require(close(float(got), float(want), scale),
            f"{what}: got {got!r}, expected {want!r}")


def require_close_array(got, want, what):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    require(got.shape == want.shape,
            f"{what}: shape {got.shape} != {want.shape}")
    tol = REL_TOL * np.maximum(1.0, np.maximum(np.abs(got), np.abs(want)))
    bad = np.nonzero(~(np.abs(got - want) <= tol))[0]
    require(bad.size == 0, f"{what}: {bad.size} values differ, first at "
            f"flat index {bad[:1].tolist()}")


class NoTrace:
    """Stands in for a Tracer when the op is not traced."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, k=1):
        pass


NO_TRACE = NoTrace()


def run_child(argv, cwd, env):
    """Run a child process to completion; returns (exit code, stdout).

    The child is reaped by a blocking wait, so its exit is seen at once
    (subprocess.run with a timeout polls in steps of up to 50 ms, which
    showed as 50 ms steps in set-up times).  A timer kills a child that
    outlives CHILD_TIMEOUT_S.
    """
    with subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True) as proc:
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.communicate()[0]
        finally:
            timer.cancel()
    return proc.returncode, out


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


def compare_fingerprint(ref, got):
    """Compare [exact, numbers, scale] records; raise CheckError if unequal."""
    exact_ref, approx_ref, scale_ref = ref
    exact_got, approx_got, _ = got
    require(exact_got == exact_ref,
            f"fingerprint: {exact_got!r} != default-seed {exact_ref!r}")
    require(len(approx_got) == len(approx_ref),
            "fingerprint: number count differs from the default seed")
    for g, r in zip(approx_got, approx_ref):
        require(close(g, r, max(1.0, scale_ref)),
                f"fingerprint: {g!r} != default-seed {r!r}")


# --------------------------------------------------------------------- sweep

class Sweep:
    """Acceptance criterion 9 triples through find_equilibria and validity."""

    name = "sweep"
    cycle = 1          # ops in one round of the input mix
    trace_ops = 1000
    fingerprint_ops = 200

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self):
        rng = _rng(self.seed, 1)
        while True:
            g = rng.uniform(0.0, PI, 256)
            a = rng.uniform(0.05, 15.0, 256)
            c = rng.uniform(0.05, 6.0, 256)
            for k in range(256):
                yield DimensionlessParams(float(a[k]), float(c[k]),
                                          float(g[k]))

    def run(self, p):
        eqs = find_equilibria(p)
        return eqs, [validity(eq.phi0, p) for eq in eqs]

    def traced(self, p, tr):
        cps = tr.call("equilibria.critical_points", critical_points, p)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ModelInconsistencyWarning)
            eqs = tr.call("equilibria.find_equilibria", find_equilibria, p,
                          critical=cps)
        tr.count("equilibria.guard_warnings", sum(
            issubclass(w.category, ModelInconsistencyWarning) for w in caught))
        tr.count(f"equilibria.roots_{len(eqs)}")
        reps = [tr.call("intersection.validity", validity, eq.phi0, p)
                for eq in eqs]
        return eqs, reps

    def check(self, p, out, tr=NO_TRACE):
        eqs, reps = out
        c2 = max(1.0, p.capillary_ratio ** 2)
        roots = [eq.phi0 for eq in eqs]
        require(len(eqs) <= 2, f"{len(eqs)} roots at {p}")
        require(roots == sorted(roots) and len(set(roots)) == len(roots),
                f"roots not strictly ascending at {p}: {roots}")
        require(len(reps) == len(eqs), "one validity report per root")
        tr.call("model.total_force.grid1000", total_force,
                np.linspace(0.0, PI, 1000), p)
        for eq, rep in zip(eqs, reps):
            require(0.0 <= eq.phi0 <= PI, f"root {eq.phi0!r} outside [0, pi]")
            f = float(tr.call("model.total_force.scalar", total_force,
                              eq.phi0, p))
            require(abs(f) <= 1e-8 * c2,
                    f"|F({eq.phi0!r})| = {abs(f):.3g} at {p}")
            s = float(tr.call("model.force_slope.scalar", force_slope,
                              eq.phi0, p))
            require(close(eq.force_slope, s), "reported slope != force_slope")
            if eq.stability is Stability.STABLE:
                require(s > 0.0, f"stable root with slope {s!r}")
            elif eq.stability is Stability.UNSTABLE:
                require(s < 0.0, f"unstable root with slope {s!r}")
            else:
                require(abs(s) <= 1e-6 * c2, f"marginal root with slope {s!r}")
            # criterion 9: nothing intersects below pi/2, no stable root does
            require(not (rep.intersecting and p.contact_angle <= PI / 2),
                    f"intersecting root at gamma <= pi/2: {p}")
            require(not (rep.intersecting
                         and eq.stability is Stability.STABLE),
                    f"intersecting stable root at {p}")
        if len(eqs) == 2:
            require(eqs[0].stability is not Stability.UNSTABLE
                    and eqs[1].stability is not Stability.STABLE,
                    f"smaller root must be the stable one at {p}")

    def fingerprint(self, p, out):
        eqs, reps = out
        exact = [[eq.stability.value, rep.intersecting]
                 for eq, rep in zip(eqs, reps)]
        return [exact, [eq.phi0 for eq in eqs], 1.0]


# ----------------------------------------------------------------------- map

def _label_counts(labels) -> dict:
    flat = list(labels.ravel())
    return {lab: flat.count(lab) for lab in RegionLabel}


class Map:
    """region_map at the CLI default over three contact-angle branches.

    Ops cycle through pi/2 exactly (bracket branch), an angle below pi/2
    (corner branch) and an angle above pi/2 (intersection curve).  The cost
    of a map depends on the angle (about 1.4 s at 0.05 against 2.5 s near
    pi/2 on a 2-vCPU Xeon), and a run completes only a few cycles.  So
    the first cycle's angles are seeded draws and later cycles step each by
    the golden ratio (mod the branch's interval): every cycle gets new
    angles, and any run of cycles covers both branches evenly, which keeps
    the run's mean cost close to the branches' whatever the seed.  The
    fixed angle comes first because the first op is also the set-up op, so
    setup_s does not depend on the seed's draw.
    """

    name = "map"
    cycle = 3
    trace_ops = 3
    fingerprint_ops = 3
    check_cells = 50
    check_curve_points = 20

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self):
        rng = _rng(self.seed, 2)
        low, high = rng.uniform(0.0, PI / 2), rng.uniform(PI / 2, PI)
        u = np.array([low / (PI / 2), (high - PI / 2) / (PI / 2)])
        i = 0
        while True:
            for g in (PI / 2, float(low), float(high)):
                yield g, i
                i += 1
            u = (u + GOLDEN) % 1.0
            low, high = PI / 2 * u[0], PI / 2 + PI / 2 * u[1]

    def run(self, inp):
        return region_map(inp[0], MAP_A, MAP_C, MAP_RES, MAP_CURVE_SAMPLES)

    def traced(self, inp, tr):
        g = inp[0]
        cells = tr.call("regions.label_cells", region_map, g, MAP_A, MAP_C,
                        MAP_RES, 0)
        curves = [tr.call(f"regions.{fn.__name__}", fn, g, MAP_A, MAP_C,
                          MAP_CURVE_SAMPLES)
                  for fn in (trace_endpoint_curve, trace_tangency_curve,
                             trace_intersection_curve)]
        counts = _label_counts(cells.labels)
        for lab, n in counts.items():
            tr.count(f"regions.cells_{lab.value}", n)
        tr.count("regions.label_cells.validity_calls",
                 counts[RegionLabel.ONE] + 2 * counts[RegionLabel.TWO]
                 + 2 * counts[RegionLabel.ONE_VALID_ONE_INVALID])
        cells.curves.extend(c for c in curves if len(c.points))
        return cells

    def check_cells_of(self, i):
        """The seeded grid cells op i's check compares with classify_point."""
        rng = _rng(self.seed, 3, i)
        return [(int(rng.integers(MAP_RES[0])), int(rng.integers(MAP_RES[1])))
                for _ in range(self.check_cells)]

    def check(self, inp, rm, tr=NO_TRACE):
        g, i = inp
        require(rm.labels.shape == MAP_RES, f"labels shape {rm.labels.shape}")
        counts = _label_counts(rm.labels)
        require(sum(counts.values()) == rm.labels.size,
                "a cell holds something other than a RegionLabel")
        if g <= PI / 2:
            require(counts[RegionLabel.ONE_VALID_ONE_INVALID] == 0,
                    f"invalid equilibria at gamma={g!r} <= pi/2")
        for a_i, c_j in self.check_cells_of(i):
            p = DimensionlessParams(float(rm.a_axis[a_i]),
                                    float(rm.c_axis[c_j]), g)
            want = classify_point(p)[0]
            require(rm.labels[a_i, c_j] is want,
                    f"cell {p}: label {rm.labels[a_i, c_j]} != classify_point "
                    f"{want}")
        for curve in rm.curves:
            step = max(1, len(curve.points) // self.check_curve_points)
            for a, c in curve.points[::step]:
                if curve.kind is CurveKind.TANGENCY:
                    a_star = tr.call("equilibria.critical_mass_ratio",
                                     critical_mass_ratio, float(c), g)[0]
                    require_close(a_star, a, f"tangency point at C={c!r}")
                elif curve.kind is CurveKind.ENDPOINT and g not in (0.0, PI):
                    require_close(c, math.sqrt(2.0 * math.sin(g) / (a - PI)),
                                  f"endpoint point at A={a!r}")

    def fingerprint(self, inp, rm):
        chars = "".join(_LABEL_CHAR[lab] for lab in rm.labels.ravel())
        counts = _label_counts(rm.labels)
        exact = [[counts[lab] for lab in RegionLabel],
                 hashlib.sha256(chars.encode()).hexdigest(),
                 [[c.kind.value, len(c.points)] for c in rm.curves]]
        sums = [float(np.sum(c.points)) for c in rm.curves]
        return [exact, sums, max([1.0] + [abs(s) for s in sums])]


# ------------------------------------------------------------------ boundary

class Boundary:
    """tangency_boundary_c: the capillary ratio at which A* equals A."""

    name = "boundary"
    cycle = 1
    trace_ops = 30
    fingerprint_ops = 20

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self):
        rng = _rng(self.seed, 4)
        while True:
            g = rng.uniform(0.0, PI, 64)
            a = rng.uniform(PI + 0.05, 15.0, 64)
            for k in range(64):
                yield float(g[k]), float(a[k])

    def run(self, inp):
        return tangency_boundary_c(*inp)

    def traced(self, inp, tr):
        c = tr.call("regions.tangency_boundary_c", tangency_boundary_c, *inp)
        tr.count("regions.tangency_boundary_c.none", c is None)
        return c

    def check(self, inp, c, tr=NO_TRACE):
        g, a = inp
        no_solution = g < PI / 2 and (
            g == 0.0 or a >= two_equilibrium_corner(g)[0] * (1.0 - 1e-9))
        if c is None:
            require(no_solution, f"no solution at gamma={g!r}, A={a!r}, "
                    "which is not a no-solution case")
            return
        require(not no_solution, f"solution {c!r} beyond the corner at "
                f"gamma={g!r}, A={a!r}")
        require(c > second_extremum_threshold(g), f"C*={c!r} below threshold")
        a_star = tr.call("equilibria.critical_mass_ratio",
                         critical_mass_ratio, c, g)[0]
        require(abs(a_star - a) <= 1e-8 * a,
                f"critical_mass_ratio({c!r}, {g!r}) = {a_star!r} != A={a!r}")

    def fingerprint(self, inp, c):
        return [c is None, [] if c is None else [c], 1.0]


# ----------------------------------------------------------------------- cli

CLI_KINDS = ("equilibria", "equilibria_physical", "curves", "profile",
             "astar", "region_map", "verify")
# documented exit codes of a command that did its job: ok, an oracle check
# failed (verify), no valid equilibrium (equilibria)
CLI_EXIT_CODES = (0, 1, 3)
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _csv(text):
    """(meta, header, rows) of a CLI CSV table."""
    lines = text.rstrip("\n").split("\n")
    meta = {}
    while lines and lines[0].startswith("# "):
        k, v = lines.pop(0)[2:].split(": ", 1)
        meta[k] = v
    return meta, lines[0].split(","), [line.split(",") for line in lines[1:]]


def _num_or_blank(cell, want, what):
    if want is None:
        require(cell == "", f"{what}: expected blank, got {cell!r}")
    else:
        require_close(float(cell), want, what)


class Cli:
    """A fresh `python -m floatcyl.cli` process per op, README command mix."""

    name = "cli"
    cycle = len(CLI_KINDS)
    trace_ops = len(CLI_KINDS)
    fingerprint_ops = len(CLI_KINDS)

    def __init__(self, seed: int, python: str, root, env: dict):
        self.seed = seed
        self.python = python
        self.root = root
        self.env = env

    def inputs(self):
        rng = _rng(self.seed, 5)
        i = 0
        while True:
            kind = CLI_KINDS[i % len(CLI_KINDS)]
            yield kind, self._argv(kind, rng, i // len(CLI_KINDS))
            i += 1

    @staticmethod
    def _argv(kind, rng, round_):
        r = repr
        g = float(rng.uniform(0.0, PI))
        a = float(rng.uniform(0.05, 15.0))
        c = float(rng.uniform(0.05, 6.0))
        dimless = ["--gamma", r(g), "--A", r(a), "--C", r(c)]
        if kind == "equilibria":
            return ["equilibria"] + dimless
        if kind == "equilibria_physical":
            rho = float(rng.uniform(0.8, 1.2))
            sigma = float(rng.uniform(20.0, 80.0))
            radius = float(rng.uniform(0.05, 0.6))
            return ["equilibria", "--gamma", r(g), "--m",
                    r(a * radius * radius * rho), "--rho", r(rho),
                    "--sigma", r(sigma), "--g", "980", "--a", r(radius)]
        if kind == "curves":
            return ["curves"] + dimless + ["--resolution", "400"]
        if kind == "profile":
            phi0 = float(rng.uniform(0.05, PI - 0.05))
            if abs(phi0 + g - PI) < 0.01:  # keep clear of the flat interface
                phi0 = phi0 - 0.02 if phi0 > 0.1 else phi0 + 0.02
            return ["profile"] + dimless + ["--phi0", r(phi0)]
        if kind == "astar":
            # the README's rounded pi/2 on odd rounds (adds the series
            # columns); otherwise a seeded angle with C past the threshold
            if round_ % 2:
                g = 1.5707963
            g = max(g, 0.3)
            c = max(second_extremum_threshold(g), 0.0) * 1.01 + c
            return ["astar", "--gamma", r(g), "--C", r(c)]
        if kind == "region_map":
            return ["region-map", "--gamma", r(min(max(g, 0.05), PI - 0.05)),
                    "--resolution", "50", "--format", "json"]
        return ["verify", "--samples", "100", "--format", "json", "--seed",
                str(int(rng.integers(1, 2 ** 31)))]

    def run(self, inp):
        return run_child([self.python, "-m", "floatcyl.cli", *inp[1]],
                         self.root, self.env)

    def _python_c(self, tr, name, code):
        status, _ = tr.call(name, run_child, [self.python, "-c", code],
                            self.root, self.env)
        if status != 0:
            raise RuntimeError(f"python -c {code!r} exited with {status}")

    def traced(self, inp, tr):
        kind, argv = inp
        self._python_c(tr, "cli.import", "import floatcyl.cli")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = tr.call(f"cli.main.{kind}", cli_main, list(argv))
        tr.count(f"cli.stdout_bytes.{kind}", len(buf.getvalue().encode()))
        return code, buf.getvalue()

    def floors(self, tr):
        """Interpreter start and `import numpy` alone, for cli.import_s."""
        for _ in range(3):
            for name, code in (("cli.python_floor", "pass"),
                               ("cli.numpy_floor", "import numpy")):
                self._python_c(tr, name, code)

    def probe_argv(self):
        first = next(self.inputs())
        return [self.python, "-m", "floatcyl.cli", *first[1]]

    # -- checks: stdout parsed and compared with the library in process

    def check(self, inp, out, tr=NO_TRACE):
        kind, argv = inp
        code, text = out
        require(code in CLI_EXIT_CODES, f"{kind}: exit code {code}")
        getattr(self, f"_check_{kind}")(argv, code, text, tr)

    @staticmethod
    def _opt(argv, flag):
        return float(argv[argv.index(flag) + 1])

    def _params(self, argv):
        g = self._opt(argv, "--gamma")
        if "--m" in argv:
            return to_dimensionless(PhysicalParams(
                self._opt(argv, "--m"), self._opt(argv, "--rho"),
                self._opt(argv, "--sigma"), self._opt(argv, "--g"),
                self._opt(argv, "--a"), g))
        return DimensionlessParams(self._opt(argv, "--A"),
                                   self._opt(argv, "--C"), g)

    def _check_meta(self, meta, p):
        require_close(float(meta["mass_ratio"]), p.mass_ratio, "meta A")
        require_close(float(meta["capillary_ratio"]), p.capillary_ratio,
                      "meta C")
        require_close(float(meta["contact_angle"]), p.contact_angle,
                      "meta gamma")

    def _check_equilibria(self, argv, code, text, tr):
        p = self._params(argv)
        meta, header, rows = _csv(text)
        self._check_meta(meta, p)
        require(header[0] == "phi0_rad", f"equilibria header {header}")
        eqs = find_equilibria(p)
        require(len(rows) == len(eqs), f"equilibria: {len(rows)} rows, "
                f"library finds {len(eqs)} at {p}")
        n_valid = 0
        for row, eq in zip(rows, eqs):
            rep = validity(eq.phi0, p)
            n_valid += not rep.intersecting
            require_close(float(row[0]), eq.phi0, "phi0")
            require_close(float(row[1]), eq.height, "height")
            require(row[2] == eq.stability.value, f"stability {row[2]}")
            require(row[3] == ("false" if rep.intersecting else "true"),
                    f"valid {row[3]}")
            _num_or_blank(row[4], rep.margin, "margin")
            require(row[5] == rep.regime.value, f"regime {row[5]}")
        require(code == (0 if n_valid else 3), f"equilibria exit {code}")

    _check_equilibria_physical = _check_equilibria

    def _check_curves(self, argv, code, text, tr):
        p = self._params(argv)
        meta, header, rows = _csv(text)
        self._check_meta(meta, p)
        require(code == 0 and len(header) == 4, "curves header/exit")
        got = np.array(rows, dtype=float)
        grid = np.linspace(0.0, PI, 400)
        want = np.column_stack([grid, total_force(grid, p),
                                total_energy(grid, p).total,
                                center_height(grid, p)])
        require_close_array(got, want, "curves")

    def _check_profile(self, argv, code, text, tr):
        p = self._params(argv)
        phi0 = self._opt(argv, "--phi0")
        meta, _, rows = _csv(text)
        self._check_meta(meta, p)
        prof = interface_profile(phi0, p, n=1000, psi_cutoff=1e-6)
        require(code == 0 and meta["flat"] == str(prof.flat).lower(),
                "profile flat flag/exit")
        require_close(float(meta["psi0"]), prof.psi0, "psi0")
        require_close(float(meta["contact_x_over_a"]), prof.contact[0],
                      "contact x")
        require_close(float(meta["contact_u_over_a"]), prof.contact[1],
                      "contact u")
        require_close_array(np.array(rows, dtype=float), prof.samples,
                            "profile samples")

    def _check_astar(self, argv, code, text, tr):
        g = self._opt(argv, "--gamma")
        c = self._opt(argv, "--C")
        _, _, rows = _csv(text)
        require(code == 0 and len(rows) == 1 and len(rows[0]) == 7,
                "astar row/exit")
        row = rows[0]
        a_star, phi0_star = tr.call("equilibria.critical_mass_ratio",
                                    critical_mass_ratio, c, g)
        want = [c, a_star, phi0_star] + [None] * 4
        if math.isclose(g, PI / 2, rel_tol=0.0, abs_tol=1e-6):
            want[3:5] = asymptotic_critical_mass(c, PI / 2, "small")
            want[5:7] = asymptotic_critical_mass(c, PI / 2, "large")
        for cell, w in zip(row, want):
            _num_or_blank(cell, w, "astar")

    def _check_region_map(self, argv, code, text, tr):
        g = self._opt(argv, "--gamma")
        payload = json.loads(text)
        rm = region_map(g, resolution=(50, 50))
        require(code == 0 and payload["schema"] == 1, "region-map schema/exit")
        require_close(payload["contact_angle"], g, "region-map gamma")
        require_close_array(payload["a_axis"], rm.a_axis, "a_axis")
        require_close_array(payload["c_axis"], rm.c_axis, "c_axis")
        want = [[lab.value for lab in row] for row in rm.labels]
        require(payload["labels"] == want, "region-map labels differ from "
                "region_map in process")
        require([c["kind"] for c in payload["curves"]]
                == [c.kind.value for c in rm.curves], "region-map curves")
        for got, curve in zip(payload["curves"], rm.curves):
            require_close_array(np.array(got["points"]).reshape(-1, 2),
                                curve.points, f"{curve.kind.value} curve")

    def _check_verify(self, argv, code, text, tr):
        payload = json.loads(text)
        reports = tr.call("oracles.run_all", run_all,
                          int(self._opt(argv, "--samples")),
                          int(self._opt(argv, "--seed")))
        got = payload["reports"]
        require([r["name"] for r in got] == [r.name for r in reports],
                "verify report names")
        for g, r in zip(got, reports):
            require(g["samples"] == r.samples and g["passed"] == r.passed,
                    f"verify {r.name} samples/passed")
            for key in ("max_abs_err", "max_rel_err", "tolerance"):
                require_close(g[key], getattr(r, key), f"verify {key}")
        require(code == (0 if all(r.passed for r in reports) else 1),
                f"verify exit {code}")

    def fingerprint(self, inp, out):
        """Exit code and stdout: its text with numbers masked, exactly, and
        every number, within REL_TOL."""
        code, text = out
        skeleton = _NUMBER.sub("#", text)
        exact = [code, hashlib.sha256(skeleton.encode()).hexdigest()]
        return [exact, [float(x) for x in _NUMBER.findall(text)], 1.0]


WORKLOADS = {w.name: w for w in (Sweep, Map, Boundary, Cli)}


def make(name: str, seed: int, env: dict, root):
    if name == "cli":
        return Cli(seed, sys.executable, root, env)
    return WORKLOADS[name](seed)


class CountCalls:
    """Counts the calls regions makes to critical_mass_ratio while active.

    The count is taken at the boundary between regions and equilibria from
    outside the library: the name regions looks up is rebound to a counting
    wrapper and restored on exit.
    """

    def __init__(self, tr):
        self.tr = tr

    def __enter__(self):
        self.orig = getattr(floatcyl.regions, "critical_mass_ratio", None)
        if self.orig is not None:
            orig, tr = self.orig, self.tr

            def counted(*args, **kwargs):
                tr.count("equilibria.critical_mass_ratio.nested_calls")
                return orig(*args, **kwargs)

            floatcyl.regions.critical_mass_ratio = counted
        return self

    def __exit__(self, *exc):
        if self.orig is not None:
            floatcyl.regions.critical_mass_ratio = self.orig
        return False
