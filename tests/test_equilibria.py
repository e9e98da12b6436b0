import hashlib
import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import bisect as scipy_bisect

from floatcyl import equilibria, model, regions
from floatcyl.equilibria import (ROOT_VALUE_TOL, CriticalPoint, ExtremumKind,
                                 NoSecondCriticalPointError, Stability,
                                 UnsupportedRegimeError, _bounds, _bracketed,
                                 _extrema, _extremum, _extremum_brackets,
                                 asymptotic_critical_mass, bisect,
                                 critical_mass_ratio, critical_points,
                                 find_equilibria, force_extrema,
                                 second_extremum_threshold)
from floatcyl.model import (DimensionlessParams, _force, _slope,
                            force_curvature, total_force)

PI = math.pi


def params(a=1.0, c=1.0, g=PI / 2, exploratory=False):
    return DimensionlessParams(a, c, g, exploratory=exploratory)


def mp_force(x, a, c, g):
    """F(x) in mpmath at its working precision, for float x, a, c and g."""
    x, a, c, g = map(mpmath.mpf, (x, a, c, g))
    cos_x, sin_x = mpmath.cos_sin(x)
    return (-a * c * c - 2 * mpmath.sin(x + g)
            - 4 * c * mpmath.cos((x + g) / 2) * sin_x
            - c * c * sin_x * cos_x + c * c * x)


def mp_slope(x, c, g):
    """F'(x) in mpmath at its working precision, for mpf x, c and g."""
    return (-2 * mpmath.cos(x + g)
            + 2 * c * mpmath.sin((x + g) / 2) * mpmath.sin(x)
            - 4 * c * mpmath.cos((x + g) / 2) * mpmath.cos(x)
            + 2 * c * c * mpmath.sin(x) ** 2)


def mp_maximum(c, g):
    """(A*, phi0*) at 50 digits: F' bisected on the maximum's bracket
    to 1e-45, math.pi / 2 standing for pi/2."""
    with mpmath.workdps(50):
        c = mpmath.mpf(c)
        g = mpmath.pi / 2 if g == PI / 2 else mpmath.mpf(g)
        lo = 3 * mpmath.pi / 4 if g < mpmath.pi / 2 else mpmath.pi / 2
        hi = mpmath.pi

        def slope(x):
            return mp_slope(x, c, g)

        assert slope(lo) > 0 > slope(hi)
        while hi - lo > mpmath.mpf(10) ** -45:
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if slope(mid) > 0 else (lo, mid)
        x = (lo + hi) / 2
        f = (-2 * mpmath.sin(x + g) - 4 * c * mpmath.cos((x + g) / 2)
             * mpmath.sin(x) - c * c * mpmath.sin(2 * x) / 2 + c * c * x)
        return f / (c * c), x


def assert_is_maximum(got, c, g):
    """critical_mass_ratio's (A*, phi0*) against mp_maximum: A* to 1e-15
    relative; phi0* to twice the bisection's tolerance plus the slope's
    rounding, the s of _bounds, over |F''(pi)| = 2 sin(g) + 4 C cos(g/2)."""
    a_star, phi0_star = mp_maximum(c, g)
    assert abs(got[0] - a_star) <= 1e-15 * a_star
    curvature = 2.0 * math.sin(g) + 4.0 * c * math.cos(g / 2.0)
    tol = 2.0 * equilibria.PHI0_TOL + _bounds(c)[0] / curvature
    assert abs(got[1] - phi0_star) <= tol


class TestCriticalPoints:
    def test_neutral_angle_symmetric_pair(self):
        for c in (0.3, 1.0, 2.7):
            cps = critical_points(params(c=c))
            assert len(cps) == 2
            assert cps[0].kind is ExtremumKind.MINIMUM
            assert cps[1].kind is ExtremumKind.MAXIMUM
            assert 0 < cps[0].phi0 < PI / 2 < cps[1].phi0 < PI
            assert cps[0].phi0 + cps[1].phi0 == pytest.approx(PI, abs=1e-10)

    def test_low_wetting_angle_single_minimum(self):
        cps = critical_points(params(c=0.5, g=PI / 4))
        assert len(cps) == 1
        assert cps[0].kind is ExtremumKind.MINIMUM
        assert 0 < cps[0].phi0 < PI / 2

    def test_high_contact_angle_two_points(self):
        cps = critical_points(params(c=3.0, g=3 * PI / 4))
        assert len(cps) == 2
        assert 0 < cps[0].phi0 < PI / 4
        assert PI / 2 < cps[1].phi0 < PI

    def test_high_contact_angle_single_maximum(self):
        cps = critical_points(params(c=0.5, g=3 * PI / 4))
        assert len(cps) == 1
        assert cps[0].kind is ExtremumKind.MAXIMUM
        assert PI / 2 < cps[0].phi0 < PI

    def test_exact_maximum_location(self):
        # at C = 1, contact angle 3pi/4, the slope vanishes exactly at 3pi/4
        cps = critical_points(params(c=1.0, g=3 * PI / 4))
        assert cps[-1].phi0 == pytest.approx(3 * PI / 4, abs=1e-10)

    def test_extremum_threshold(self):
        assert second_extremum_threshold(PI / 2) == 0.0
        assert second_extremum_threshold(3 * PI / 4) == 0.0
        assert math.isinf(second_extremum_threshold(0.0))
        # sin(gamma/2) underflows to zero: no division by it
        assert math.isinf(second_extremum_threshold(5e-324))
        c0 = second_extremum_threshold(PI / 4)
        assert c0 == pytest.approx(math.cos(PI / 4) / (2 * math.sin(PI / 8)),
                                   rel=1e-14)
        # just below: no maximum; just above: maximum appears
        assert len(critical_points(params(c=c0 * 0.999, g=PI / 4))) == 1
        assert len(critical_points(params(c=c0 * 1.001, g=PI / 4))) == 2

    def test_extrema_continuous_across_neutral_angle(self):
        # force_extrema switches brackets at gamma == pi/2 exactly: the
        # extrema on either side stay with those at pi/2
        c = np.geomspace(1e-3, 1e3, 61)
        at = _column_extrema(c, PI / 2)
        for g in (PI / 2 - 1e-12, PI / 2 + 1e-12,
                  math.nextafter(PI / 2, 0.0), math.nextafter(PI / 2, 4.0)):
            for near, exact in zip(_column_extrema(c, g), at):
                assert np.all(np.abs(near - exact) <= 1e-11)

    @pytest.mark.parametrize("c", [math.nan, -1.0, math.inf, 0.0, -0.0, 0])
    def test_force_extrema_rejects_unusable_capillary_ratio(self, c):
        # as DimensionlessParams rejects it for critical_points, as any
        # number type; no NaN pair, no minimum at C = 0
        want = "^capillary_ratio must be strictly positive and finite"
        for cs in (c, np.float32(c)):
            with pytest.raises(ValueError, match=want):
                force_extrema(cs, 1.0)
        with pytest.raises(ValueError, match=want):
            critical_points(params(c=c, g=1.0))
        with pytest.raises(ValueError, match="^contact_angle"):
            force_extrema(1.0, math.nan)

    @pytest.mark.parametrize("g", [0.5, PI / 2, 2.3, PI])
    def test_force_extrema_of_any_number_type(self, g):
        # an int or a NumPy scalar C gives the float's extrema, as floats
        for c in (1, 3, np.int64(2), np.float32(0.7), np.float32(2.5),
                  np.float64(1.5)):
            got = force_extrema(c, g)
            assert all(type(x) is float for x in got)
            assert [x.hex() for x in got] == [
                x.hex() for x in force_extrema(float(c), g)]


class TestFindEquilibria:
    def test_two_configuration_example(self):
        eqs = find_equilibria(params(a=3.8, c=2.0))
        assert len(eqs) == 2
        assert eqs[0].phi0 == pytest.approx(2.3915, abs=1e-3)
        assert eqs[1].phi0 == pytest.approx(3.0178, abs=1e-3)
        assert eqs[0].stability is Stability.STABLE
        assert eqs[1].stability is Stability.UNSTABLE
        # NumPy scalars in the params give the same Python floats
        boxed = find_equilibria(params(a=np.float64(3.8), c=np.float64(2.0),
                                       g=np.float64(PI / 2)))
        assert boxed == eqs
        for eq in boxed:
            assert all(type(x) is float
                       for x in (eq.phi0, eq.force_slope, eq.height))

    def test_single_stable_below_endpoint_line(self):
        # one stable equilibrium whenever the force is still positive at pi
        for c in (0.5, 1.0, 2.0):
            a = 2.0 / c ** 2 + PI - 0.3
            eqs = find_equilibria(params(a=a, c=c))
            assert len(eqs) == 1
            assert eqs[0].stability is Stability.STABLE

    def test_light_cylinder_always_one_stable(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            p = params(a=PI / 2, c=rng.uniform(0.1, 5.0),
                       g=rng.uniform(0.0, PI))
            eqs = find_equilibria(p)
            assert len(eqs) == 1
            assert eqs[0].stability is Stability.STABLE

    def test_none_above_critical_mass(self):
        a_star, _ = critical_mass_ratio(1.0, PI / 2)
        assert 6.0 > a_star
        assert find_equilibria(params(a=6.0, c=1.0)) == []
        assert find_equilibria(params(a=a_star + 0.01, c=1.0)) == []

    def test_endpoint_root_counted(self):
        # mass ratio exactly on the endpoint-zero line: the larger root is pi
        c = 1.5
        a = 2.0 / c ** 2 + PI
        eqs = find_equilibria(params(a=a, c=c))
        assert len(eqs) == 2
        assert eqs[1].phi0 == pytest.approx(PI, abs=1e-9)
        assert eqs[1].stability is Stability.UNSTABLE

    def test_fully_wetting_endpoint_root_stable(self):
        # zero contact angle at mass ratio pi: the only root sits at pi with
        # positive slope
        eqs = find_equilibria(params(a=PI, c=1.3, g=0.0))
        assert len(eqs) == 1
        assert eqs[0].phi0 == pytest.approx(PI, abs=1e-9)
        assert eqs[0].stability is Stability.STABLE

    def test_marginal_at_tangency(self):
        a_star, phi0_star = critical_mass_ratio(2.0, PI / 2)
        eqs = find_equilibria(params(a=a_star, c=2.0))
        assert len(eqs) == 1
        assert eqs[0].phi0 == pytest.approx(phi0_star, abs=1e-6)
        assert eqs[0].stability is Stability.MARGINAL_UNSTABLE

    def test_exploratory_negative_mass_pair(self):
        eqs = find_equilibria(params(a=-10.0, c=0.5, g=PI / 4,
                                     exploratory=True))
        assert len(eqs) == 2
        assert eqs[0].phi0 == pytest.approx(0.4055884193, abs=1e-8)
        assert eqs[1].phi0 == pytest.approx(1.2753101586, abs=1e-8)
        assert eqs[0].stability is Stability.UNSTABLE
        assert eqs[1].stability is Stability.STABLE

    def test_roots_actually_vanish(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            p = params(rng.uniform(0.1, 12.0), rng.uniform(0.1, 5.0),
                       rng.uniform(0.0, PI))
            for eq in find_equilibria(p):
                assert abs(total_force(eq.phi0, p)) < 1e-8

    def test_matches_dense_scan(self):
        # independent root finder, the root-count oracle behind
        # _cell_roots' brackets: fine sign scan plus bisection refinement.
        # C is log-uniform on [1e-3, 1e3], edge contact angles alternate
        # with random ones, and two levels in three are drawn near the
        # endpoint or the tangency line.  Each level lies at least
        # 1e-6 (1+C)^2, the force's scale, from both lines: the scan then
        # resolves both roots, and no node value falls within the absolute
        # ROOT_VALUE_TOL that would report a node root the scan misses
        from scipy.optimize import bisect
        rng = np.random.default_rng(23)
        grid = np.linspace(0.0, PI, 10_000)
        edge = [0.0, 1e-12, PI / 2 - 1e-9, PI / 2 + 1e-9, PI]
        counts = []
        for k in range(600):
            g = edge[k // 2 % 5] if k % 2 else rng.uniform(0.0, PI)
            c = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
            lines = [PI + 2.0 * math.sin(g) / c ** 2]
            if c > second_extremum_threshold(g):
                lines.append(critical_mass_ratio(c, g)[0])
            a = rng.uniform(0.1, 12.0)
            if k % 3:
                a = lines[k % len(lines)] * (1.0 + rng.choice([-1.0, 1.0])
                                             * math.exp(rng.uniform(
                                                 math.log(1e-6), 0.0)))
            if min(abs(a - x) for x in lines) * c * c < 1e-6 * (1 + c) ** 2:
                continue
            p = params(a, c, g, exploratory=True)
            vals = total_force(grid, p)
            brackets = np.nonzero(vals[:-1] * vals[1:] < 0.0)[0]
            scan_roots = [bisect(lambda x: float(total_force(x, p)),
                                 grid[i], grid[i + 1], xtol=1e-10)
                          for i in brackets]
            eqs = find_equilibria(p)
            assert len(eqs) == len(scan_roots), (a, c, g)
            for eq, r in zip(eqs, scan_roots):
                assert abs(eq.phi0 - r) < 1e-6
            counts.append(len(eqs))
        assert len(counts) > 400
        assert counts.count(2) > 60 and counts.count(0) > 30

    def test_rejects_wrong_critical(self):
        # _cell_roots finds every root only with the true extrema: critical
        # must hold the kinds whose brackets _bracketed accepts, each inside
        # its bracket, and nothing else
        p = params(a=3.8, c=2.0)
        cps = critical_points(p)
        assert [cp.kind for cp in cps] == list(ExtremumKind)
        assert find_equilibria(p, cps) == find_equilibria(p)
        assert len(find_equilibria(p, cps)) == 2
        minimum, maximum = cps
        for wrong in ([], [minimum], [maximum], [minimum, maximum, maximum],
                      [minimum, CriticalPoint(1.0, ExtremumKind.MAXIMUM)],
                      [CriticalPoint(2.0, ExtremumKind.MINIMUM), maximum],
                      [minimum, CriticalPoint(math.nan,
                                              ExtremumKind.MAXIMUM)]):
            with pytest.raises(ValueError, match="^critical="):
                find_equilibria(p, wrong)
        # below the threshold there is no maximum to list, and far above
        # the level the closed-form answer still checks critical first
        q = params(a=1.0, c=0.1, g=0.5)
        assert [cp.kind for cp in critical_points(q)] == [ExtremumKind.MINIMUM]
        with pytest.raises(ValueError, match=r"must list a minimum in "
                           r"\[0\.0, 1\.5707963267948966\] at Dim"):
            find_equilibria(q, critical_points(q) + [maximum])
        with pytest.raises(ValueError, match="^critical="):
            find_equilibria(params(a=1e6, c=2.0), [])
        assert find_equilibria(params(a=1e6, c=2.0), cps) == []

    def test_pinned_digest(self):
        # every bit of the scalar path over 500 criterion-9 triples, captured
        # while the kernels still ran on NumPy for a lone lane
        rng = np.random.default_rng(9)
        rows = []
        for _ in range(500):
            p = params(rng.uniform(0.05, 15.0), rng.uniform(0.05, 6.0),
                       rng.uniform(0.0, PI))
            rows.append((
                [(eq.phi0, eq.stability.value, eq.force_slope, eq.height)
                 for eq in find_equilibria(p)],
                [(cp.phi0, cp.kind.value) for cp in critical_points(p)]))
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
            "df7ec78d38010a7b9ff386a45e031099b37b94bcdad55957e7c0e0b0c11fc748")

    def test_structure_sweep(self):
        rng = np.random.default_rng(24)
        for _ in range(2000):
            g = rng.uniform(0.0, PI)
            p = params(rng.uniform(0.05, 15.0), rng.uniform(0.05, 6.0), g)
            eqs = find_equilibria(p)
            assert len(eqs) <= 2
            if len(eqs) == 2:
                assert eqs[0].phi0 < eqs[1].phi0
                assert eqs[0].stability is Stability.STABLE
                assert eqs[1].stability in (Stability.UNSTABLE,
                                            Stability.MARGINAL_UNSTABLE)
                if g >= PI / 2:
                    assert eqs[1].phi0 > PI / 2

    # A >= 0.05 keeps A C^2 above ROOT_VALUE_TOL: below it the absolute
    # tolerance makes node roots of tiny forces (ROADMAP item 1)
    @settings(derandomize=True, max_examples=400, database=None,
              deadline=None)
    @given(a=st.floats(0.05, 15.0),
           log_c=st.floats(math.log(1e-3), math.log(1e3)),
           g=st.one_of(st.sampled_from([0.0, PI / 2, PI]),
                       st.floats(0.0, PI)))
    def test_root_structure_property(self, a, log_c, g):
        p = params(a, math.exp(log_c), g)
        eqs = find_equilibria(p)
        assert len(eqs) <= 2
        assert [eq.phi0 for eq in eqs] == sorted(eq.phi0 for eq in eqs)
        if len(eqs) == 2:
            assert eqs[0].stability is not Stability.UNSTABLE
            assert eqs[1].stability is not Stability.STABLE
        if not eqs:
            phis = [0.0] + [cp.phi0 for cp in critical_points(p)] + [PI]
            f = total_force(np.array(phis), p)
            assert np.all(f < 0.0) or np.all(f > 0.0)

    def test_ceiling_clears_only_rootless_cells(self, monkeypatch):
        # find_equilibria answers a level past F(.; A=0)'s closed-form range
        # without calling _cell_roots: every cell it clears has F of one
        # sign, |F| > ROOT_VALUE_TOL, at its four nodes, where _cell_roots
        # finds no root
        rng = np.random.default_rng(48)
        cells = _edge_cells(41)
        for g in (0.0, PI / 2, PI):
            for c in [1e-6, *np.exp(rng.uniform(math.log(1e-6), math.log(1e8),
                                                40)).tolist()]:
                margin = 2.0 * _bounds(c)[0] + ROOT_VALUE_TOL
                top = 2.0 + 4.0 * c * math.sin(g / 2.0) + PI * c * c + margin
                bottom = -2.0 - 4.0 * c - margin
                cells += [(rng.uniform(0.05, 15.0), c, g),
                          (-rng.uniform(0.05, 15.0), c, g)]
                cells += [(level / (c * c) * f, c, g)
                          for level in (top, bottom)
                          for f in (1.0 - 1e-6, 1.0 - 1e-12,
                                    1.0 + 1e-12, 1.0 + 1e-6)]
        cells += _criterion_9_draws(49, 2000)
        # criterion 9's draws of A and C at the edge angles too, where the
        # ceiling's middle term is 0, 4C sin(pi/4) and 4C
        cells += [(a, c, g) for g in (0.0, PI / 2, PI)
                  for a, c, _ in _criterion_9_draws(50, 300)]
        calls = _counting_cell_roots(monkeypatch)
        cleared = []
        for a, c, g in cells:
            n = len(calls)
            eqs = find_equilibria(params(a, c, g, exploratory=True))
            if len(calls) == n:
                assert eqs == []
                cleared.append((a, c, g))
        for a, c, g in cleared:
            f = _force(_cell_nodes(c, g), a, c, g)
            assert np.all(np.abs(f) > ROOT_VALUE_TOL), (a, c, g)
            assert np.all(np.sign(f) == np.sign(f[0])), (a, c, g)
            assert equilibria._cell_roots(a, c, g, None) == [], (a, c, g)
        assert 1500 < len(cleared) < len(cells)

    def test_ceiling_count_on_criterion_9_draws(self, monkeypatch):
        # the share the ceiling clears: 63 % of criterion-9 cells, pinned so
        # that a ceiling which stops clearing fails here
        calls = _counting_cell_roots(monkeypatch)
        for a, c, g in _criterion_9_draws(49, 2000):
            find_equilibria(params(a, c, g))
        assert 2000 - len(calls) == 1254

    @pytest.mark.parametrize("a,c,g,cleared,roots", [
        (10, 2.0, 1.0, True, 0),
        (3, 2.0, PI / 2, False, 1),
        (np.float32(10.0), 2.0, 1.0, True, 0),
        (np.float32(3.8), 2.0, PI / 2, False, 2),
        # its float32 level A C C would clear the ceiling, its float level
        # does not, and _cell_roots finds no root
        (np.float32(3.1415927), 3e7, PI / 2, False, 0),
    ])
    def test_mass_ratio_of_any_number_type(self, monkeypatch, a, c, g,
                                           cleared, roots):
        # the ceiling tests the float of A that _cell_roots solves
        calls = _counting_cell_roots(monkeypatch)
        eqs = find_equilibria(params(a, c, g))
        assert (not calls) is cleared
        assert len(eqs) == roots
        assert repr(eqs) == repr(find_equilibria(params(float(a), c, g)))

    def test_cells_run_without_numpy(self, monkeypatch):
        # find_equilibria and critical_points run on Python floats
        # throughout: with NumPy out of reach of both modules, every
        # criterion-9 draw and edge cell still runs, rooted cells too
        cells = _criterion_9_draws(53, 2000) + _edge_cells(41)

        def unreachable():
            raise AssertionError("NumPy reached")

        monkeypatch.setattr(model, "_numpy", unreachable)
        monkeypatch.setattr(equilibria, "_numpy", unreachable)
        roots = 0
        for a, c, g in cells:
            p = params(a, c, g, exploratory=True)
            roots += len(find_equilibria(p, critical_points(p)))
            roots += len(find_equilibria(p))
        assert roots > 2000
        # critical points that hold a NumPy scalar count as their floats
        for a, c, g in cells[:300]:
            p = params(a, c, g)
            narrow = [CriticalPoint(np.float32(cp.phi0), cp.kind)
                      for cp in critical_points(p)]
            wide = [CriticalPoint(float(cp.phi0), cp.kind) for cp in narrow]
            assert repr(find_equilibria(p, narrow)) == repr(
                find_equilibria(p, wide))


def _criterion_9_draws(seed, n):
    """n (A, C, gamma) triples drawn as criterion 9 draws them."""
    rng = np.random.default_rng(seed)
    cells = []
    for _ in range(n):
        g = rng.uniform(0.0, PI)
        cells.append((rng.uniform(0.05, 15.0), rng.uniform(0.05, 6.0), g))
    return cells


def _column_extrema(cs, g):
    """force_extrema of each C of the array cs, two arrays: one _extrema
    call per bracket."""
    return [_extrema(g, cs, b) for b in _extremum_brackets(g)]


def _cell_nodes(c, g):
    """_cell_roots' four nodes of one cell: 0, its minimum or 0, its
    maximum or pi, and pi."""
    minimum, maximum = force_extrema(c, g)
    return np.array([0.0, minimum if minimum == minimum else 0.0,
                     maximum if maximum == maximum else PI, PI])


def _counting_cell_roots(monkeypatch):
    """A list that grows by one with each cell find_equilibria solves,
    each call it makes to _cell_roots."""
    calls = []
    cell_roots = equilibria._cell_roots

    def counting(*args):
        calls.append(args)
        return cell_roots(*args)

    monkeypatch.setattr(equilibria, "_cell_roots", counting)
    return calls


class TestCriticalMass:
    def test_exact_value_high_contact_angle(self):
        # closed-form spot value: the maximum sits exactly at 3pi/4 for C = 1
        a_star, phi0_star = critical_mass_ratio(1.0, 3 * PI / 4)
        assert phi0_star == pytest.approx(3 * PI / 4, abs=1e-10)
        assert a_star == pytest.approx(4.5 + 3 * PI / 4, abs=1e-10)

    def test_tangency_bracketing(self):
        a_star, _ = critical_mass_ratio(1.0, PI / 2)
        assert a_star > 2.0 + PI  # above the endpoint-zero line
        assert len(find_equilibria(params(a=a_star - 1e-4, c=1.0))) == 2
        assert len(find_equilibria(params(a=a_star + 1e-4, c=1.0))) == 0

    def test_no_second_extremum_regime(self):
        with pytest.raises(NoSecondCriticalPointError):
            critical_mass_ratio(0.5, PI / 4)

    # A* falls strictly in C toward its large-C limit pi.  C starts 0.1 %
    # above the second-extremum threshold
    @settings(derandomize=True, max_examples=300, database=None,
              deadline=None)
    @given(g=st.floats(0.0, PI), u=st.floats(0.0, 1.0),
           v=st.floats(0.0, 1.0))
    def test_critical_mass_decreases_in_c_property(self, g, u, v):
        lo = math.log(max(1e-2, 1.001 * second_extremum_threshold(g)))
        gap, hi = math.log(1.001), math.log(1e2)
        assume(lo < hi - gap)
        # log C1 < log C2 in [lo, hi], at least 0.1 % apart in C
        x1 = lo + u * (hi - gap - lo)
        x2 = x1 + gap + v * (hi - gap - x1)
        a1, a2 = (critical_mass_ratio(math.exp(x), g)[0] for x in (x1, x2))
        assert a1 > a2 > PI

    @pytest.mark.parametrize("c,g,a_star,phi0_star", [
        (1e3, 1.6, 3.141665115649953, 3.104419563380662),
        (1e10, 1.6, 3.1415926535897953, 3.1415806757137235),
        (1e16, 1.6, 3.141592653589793, 3.141592638960612),
        (1e3, 2.0, 3.141684713465592, 3.101119232437202),
        (1e10, 2.0, 3.141592653589796, 3.1415796808194254),
        (1e16, 2.0, 3.141592653589793, 3.141592638960612),
        (1e3, 3.0, 3.141711471611193, 3.097011054683681),
        (1e10, 3.0, 3.141592653589797, 3.141578529184312),
        (1e16, 3.0, 3.141592653589793, 3.141592638960612),
    ])
    def test_large_c_bits(self, c, g, a_star, phi0_star):
        # captured before the too-large-C error: every bit below it stays
        assert critical_mass_ratio(c, g) == (a_star, phi0_star)

    @pytest.mark.parametrize("c,g", [(1e17, 1.6), (1e20, 2.0), (1e50, 3.0),
                                     (3e16, 1.0), (2e9, 1e-9)])
    def test_too_large_for_the_slope(self, c, g):
        # the slope's O(C) terms at pi round away against its C^2 terms,
        # so the maximum that exists above the threshold has no bracket
        with pytest.raises(ValueError,
                           match=r"capillary_ratio=.* is too large"):
            critical_mass_ratio(c, g)

    @pytest.mark.parametrize("g", [1e-6, 1e-3, 0.5, 1.6, 3.0])
    def test_too_large_from_the_rounding_test(self, g):
        # the error starts exactly where 4 sin(g/2) <= C 2^-52, below which
        # the slope near pi still brackets a maximum
        cut = 4.0 * math.sin(g / 2.0) * 2.0 ** 52
        assert PI / 2 < critical_mass_ratio(math.nextafter(cut, 0.0), g)[1]
        with pytest.raises(ValueError,
                           match=r"capillary_ratio=.* is too large"):
            critical_mass_ratio(cut, g)

    def test_force_scale_too_large_to_square(self):
        # pi C^2 = 3.1e200 squares to inf: named for C before
        # DimensionlessParams sees it
        with pytest.raises(ValueError, match=re.escape(
                "capillary_ratio=1e+100 gives a force scale pi C^2 = "
                "3.14e+200 too large to square")):
            critical_mass_ratio(1e100, 1.0)

    @pytest.mark.parametrize("g", [0.0, 1e-9, 0.5, PI / 2 - 1e-9, PI / 2,
                                   PI / 2 + 1e-9, 2.3, PI])
    def test_equals_force_extrema_maximum(self, g):
        # critical_mass_ratio bisects the maximum's bracket alone: its phi0*
        # is force_extrema's maximum bit for bit, a Python float, and it
        # raises exactly where that maximum is NaN
        cs = np.concatenate([np.geomspace(1e-3, 1e3, 300),
                             np.linspace(0.01, 5.0, 100)])
        want = _extrema(g, cs, _extremum_brackets(g)[1])
        # below gamma = 0.5 here the maximum needs C past 1e3, or never comes
        assert np.isfinite(want).any() == (g >= 0.5)
        got = []
        for c in cs.tolist():
            try:
                got.append(critical_mass_ratio(c, g)[1])
            except NoSecondCriticalPointError:
                got.append(math.nan)
        assert all(type(x) is float for x in got)
        assert np.array(got).tobytes() == want.tobytes()

    @pytest.mark.parametrize("c,g", [
        (1.7735822913560129, 0.5),
        (math.nextafter(999999.9999995417, math.inf), 1e-6)])
    def test_within_rounding_of_the_threshold(self, c, g):
        # one ulp above the threshold, where _slope(pi) rounds to zero: the
        # bracket reads the slope's sign at pi from C - threshold instead
        assert c == math.nextafter(second_extremum_threshold(g), math.inf)
        assert_is_maximum(critical_mass_ratio(c, g), c, g)

    @pytest.mark.parametrize("c", [1e-17, 1e-16, 1e-15])
    def test_neutral_angle_has_a_maximum_at_every_c(self, c):
        # math.pi / 2 stands for pi/2, threshold 0, though that float lies
        # 6.1e-17 below pi/2, where the threshold would be 4.3e-17
        assert second_extremum_threshold(PI / 2) == 0.0
        assert_is_maximum(critical_mass_ratio(c, PI / 2), c, PI / 2)

    def test_error_exactly_at_the_threshold(self):
        # no band: NoSecondCriticalPointError at the threshold, a maximum
        # one ulp above it and from there up, at every angle in (1e-6, pi/2)
        rng = np.random.default_rng(5)
        for g in [1e-6, 1e-3, 0.5, PI / 2 - 1e-9] + rng.uniform(
                1e-6, PI / 2, 40).tolist():
            t = second_extremum_threshold(g)
            with pytest.raises(NoSecondCriticalPointError,
                               match=re.escape(f"(threshold C = {t!r})")):
                critical_mass_ratio(t, g)
            c = t
            for _ in range(4):
                c = math.nextafter(c, math.inf)
                assert PI / 2 < critical_mass_ratio(c, g)[1] <= PI
            for rel in (1e-12, 1e-9, 1e-6, 2e-5):
                assert PI / 2 < critical_mass_ratio(t * (1 + rel), g)[1] <= PI

    def test_small_c_series(self):
        for c in (0.1, 0.05):
            a_num, phi_num = critical_mass_ratio(c, PI / 2)
            a_ser, phi_ser = asymptotic_critical_mass(c, PI / 2, "small")
            assert abs(phi_ser - phi_num) < 10.0 * c ** 4
            assert abs(a_ser - a_num) / a_num < 1e-3

    def test_large_c_series(self):
        a_num, phi_num = critical_mass_ratio(50.0, PI / 2)
        a_ser, phi_ser = asymptotic_critical_mass(50.0, PI / 2, "large")
        assert abs(a_ser - a_num) < 1e-5
        assert abs(phi_ser - phi_num) < 1e-4
        # the approximation closes onto the fully wetted angle
        far, phi_far = asymptotic_critical_mass(1e8, PI / 2, "large")
        assert phi_far == pytest.approx(PI, abs=1e-3)
        assert far == pytest.approx(PI, abs=1e-9)

    def test_series_regime_validation(self):
        with pytest.raises(UnsupportedRegimeError):
            asymptotic_critical_mass(1.0, PI / 3, "small")
        with pytest.raises(ValueError, match="regime"):
            asymptotic_critical_mass(1.0, PI / 2, "medium")
        # not positive and finite, or a power of C that overflows
        for c, regime in ((-1.0, "small"), (math.inf, "small"),
                          (math.inf, "large"), (1e160, "small"),
                          (1e300, "large")):
            with pytest.raises(ValueError, match="capillary_ratio"):
                asymptotic_critical_mass(c, PI / 2, regime)


def _random_brackets(kernel, n, seed):
    """n (a, c, g, lo, hi) draws whose kernel values change sign on [lo, hi]."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        a, c, g = rng.uniform(0.05, 15.0), rng.uniform(0.05, 6.0), rng.uniform(0.0, PI)
        lo, hi = sorted(rng.uniform(0.0, PI, 2).tolist())
        if kernel(lo, a, c, g) * kernel(hi, a, c, g) < 0.0:
            out.append((a, c, g, lo, hi))
    return out


def _slope_of(x, a, c, g):
    return _slope(x, c, g)


class TestBisect:
    """The shared bisection reproduces SciPy's bisect bit for bit."""

    @pytest.mark.parametrize("kernel", [_force, _slope_of])
    def test_equals_scipy_on_random_brackets(self, kernel):
        narrow = 0
        for a, c, g, lo, hi in _random_brackets(kernel, 200, seed=31):
            def f(x):
                return float(kernel(x, a, c, g))
            got = equilibria._halve(f, lo, hi, f(lo))
            assert type(got) is float
            assert got == scipy_bisect(f, lo, hi, xtol=1e-12)
            # a bracket about the root narrower than the wide shortcut,
            # 2 (PHI0_TOL + 4 eps hi): the first midpoint stops
            lo, hi = got - 3e-13, got + 6e-13
            if f(lo) * f(hi) < 0.0:
                narrow += 1
                want = scipy_bisect(f, lo, hi, xtol=1e-12)
                assert equilibria._halve(f, lo, hi, f(lo)) == want
                assert want == lo + 0.5 * (hi - lo)
        assert narrow > 100
        # lanes that share one bracket, each with its own (a, c, g)
        rng = np.random.default_rng(32)
        for lo, hi in ((0.0, PI), (0.3, 2.9), (PI / 2, PI), (1.0, 1.5)):
            a, c, g = (rng.uniform(x, y, 400)
                       for x, y in ((0.05, 15.0), (0.05, 6.0), (0.0, PI)))
            ok = (kernel(np.asarray(lo), a, c, g)
                  * kernel(np.asarray(hi), a, c, g) < 0.0)
            a, c, g = a[ok], c[ok], g[ok]
            assert a.size >= 10

            def f(x, k):
                return kernel(np.asarray(x), a[k], c[k], g[k])
            got = bisect(f, lo, hi, f(lo, slice(None)))
            assert got.tolist() == [
                scipy_bisect(lambda x: float(kernel(x, *p)), lo, hi,
                             xtol=1e-12)
                for p in zip(a.tolist(), c.tolist(), g.tolist())]

    def test_increasing_and_decreasing(self):
        for f in (np.cos, lambda x: -np.cos(x), lambda x: 1.0 - x * x,
                  lambda x: x ** 3 - 2.0):
            want = scipy_bisect(f, 0.0, 3.0, xtol=1e-12)
            assert equilibria._halve(f, 0.0, 3.0, f(0.0)) == want
            assert bisect(lambda x, k: f(x), 0.0, 3.0,
                          f(np.zeros(2))).tolist() == [want] * 2

    def test_one_bracket_equals_float_loop(self):
        # every lane shares the float bracket [0, 4]: lanes that hit
        # f(xm) == 0 while dm is still wide (2, 1, 3) or late (3 2^-40),
        # and seeded ones
        roots = [2.0, 1.0, 3.0, 3.0 * 2.0 ** -40, PI,
                 1.2345678901234] + np.random.default_rng(15).uniform(
                     0.0, 4.0, 40).tolist()
        r = np.array(roots)
        got = bisect(lambda x, k: x - r[k], 0.0, 4.0, -r)
        want = [equilibria._halve(lambda x, ri=ri: x - ri, 0.0, 4.0, -ri)
                for ri in roots]
        assert got.tolist() == want
        assert want == [scipy_bisect(lambda x, ri=ri: x - ri, 0.0, 4.0,
                                     xtol=1e-12) for ri in roots]

    @pytest.mark.parametrize("g", [0.0, PI / 2, 2.3, PI])
    def test_one_bracket_slope_lanes(self, g):
        # _extrema's shape of call: the slope over the C whose bracket of
        # _extremum_brackets holds an extremum, one bracket per call
        caps = np.geomspace(1e-3, 1e3, 60)
        for lo, hi in _extremum_brackets(g):
            cs = caps[_bracketed(caps, g, lo, hi)[0]]
            if not cs.size:
                continue
            got = bisect(lambda x, k: _slope(x, cs[k], g), lo, hi,
                         _slope(lo, cs, g))
            assert got.tolist() == [
                equilibria._halve(lambda x, c=c: _slope(x, c, g), lo, hi,
                                  _slope(lo, c, g))
                for c in cs.tolist()]

    def test_no_lanes(self):
        # an empty f_lo returns the empty float array at once, with and
        # without windows, and never runs f
        ran = []

        def f(x, k):
            ran.append(k)
            return x
        for window in ((), (np.empty(0), np.empty(0))):
            got = bisect(f, 0.0, 1.0, np.empty(0), *window)
            assert got.dtype == np.float64 and got.shape == (0,)
        assert ran == []


class TestSharedBisection:
    """Array extrema, each lane from its own slope at the bracket's start
    in one bisection per bracket, equal the float calls bit for bit."""

    @pytest.mark.parametrize("g", [0.0, 1e-12, 0.5, math.pi / 2,
                                   PI / 2 - 1e-9, PI / 2 + 1e-9, 2.3, PI])
    def test_arrays_equal_floats(self, g):
        cs = np.geomspace(1e-3, 1e3, 200).tolist()
        t = second_extremum_threshold(g)
        if t < math.inf:
            # C = 0, the threshold from pi/2 on, is no capillary ratio
            cs += [x for x in (t, math.nextafter(t, math.inf)) if x > 0.0]
            cs.append(math.nextafter(cs[-1], math.inf))
        floats = [force_extrema(c, g) for c in cs]
        want = [np.array(x) for x in zip(*floats)]
        got = _column_extrema(np.array(cs), g)
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
        # the maximum's bracket alone, as critical_mass_ratio bisects it
        high = _extremum_brackets(g)[1]
        assert np.array([_extremum(c, g, high) for c in cs]).tobytes() == (
            want[1].tobytes())
        # columns and tangency samples in one call, as region_map makes it
        samples = np.linspace(1e-3, 6.0, 150)
        mixed = _extrema(g, np.concatenate([cs, samples]), high)
        assert mixed.tobytes() == np.concatenate([want[1], [
            _extremum(c, g, high) for c in samples.tolist()]]).tobytes()

    @pytest.mark.parametrize("g", [0.0, 1e-12, 1e-9, PI / 2 - 1e-9,
                                   PI / 2 + 1e-9, PI - 1e-9, PI]
                             + np.linspace(0.2, 3.0, 8).tolist())
    def test_replayed_lanes_equal_bisect_and_floats(self, g):
        # the lane replay against window-free bisect and the float replay,
        # on both brackets, C log-uniform on [1e-6, 1e9] and just above
        # the threshold
        rng = np.random.default_rng(int(g * 1e3))
        cs = np.exp(rng.uniform(math.log(1e-6), math.log(1e9), 150))
        t = second_extremum_threshold(g)
        if 0.0 < t < math.inf:
            cs = np.concatenate([cs, t * (1.0 + 10.0 ** -np.arange(1, 16))])
        for bracket in _extremum_brackets(g):
            got = _extrema(g, cs, bracket)
            ok, s_lo, _ = _bracketed(cs, g, *bracket)
            free = np.full(cs.shape, np.nan)
            if ok.any():
                lanes = cs[ok]
                free[ok] = bisect(lambda x, k: _slope(x, lanes[k], g),
                                  *bracket, s_lo[ok])
            floats = np.array([_extremum(c, g, bracket) for c in cs.tolist()])
            assert got.tobytes() == free.tobytes() == floats.tobytes()

    def test_one_and_two_lanes(self):
        for g in (0.7, PI / 2, 2.3):
            for bracket in _extremum_brackets(g):
                for cs in ([2.0], [0.5, 40.0]):
                    got = _extrema(g, np.array(cs), bracket)
                    assert got.tobytes() == np.array(
                        [_extremum(c, g, bracket) for c in cs]).tobytes()

    def test_pinned_digest(self):
        # force_extrema's bits over C log-uniform on [1e-6, 1e15] at the
        # edge angles, pinned while Newton started from the chord's zero
        # against t - C and took _slope and _curv in two calls; the lanes
        # of _extrema over each bracket give the same bits
        rng = np.random.default_rng(39)
        cs = np.exp(rng.uniform(math.log(1e-6), math.log(1e15), 400))
        edges = [0.0, 5e-324, 1e-12, 1e-9, PI / 2 - 1e-9,
                 math.nextafter(PI / 2, 0.0), PI / 2,
                 math.nextafter(PI / 2, PI), PI / 2 + 1e-9, PI - 1e-9, PI]
        floats = np.array([[force_extrema(c, g) for c in cs.tolist()]
                           for g in edges])
        lanes = np.array([[_extrema(g, cs, bracket)
                           for bracket in _extremum_brackets(g)]
                          for g in edges])
        assert hashlib.sha256(floats.tobytes()).hexdigest() == (
            "dc6a5bb6089d779bb3518c984ebb7546107a11096bbc8fa0b2281dc99cfc65d7")
        assert lanes.transpose(0, 2, 1).tobytes() == floats.tobytes()

    @pytest.mark.parametrize("g", [PI / 2, 0.3, 0.7, 1.9, 2.3, 3.0])
    def test_default_map_maxima_settle_in_four_passes(self, monkeypatch, g):
        # a default region_map finds its 200 columns' and 200 tangency
        # samples' maxima in one _extrema call: from the start against
        # F'(pi)'s closed form every lane settles within 4 Newton passes,
        # one _slope_curv call each, and passes its certificate
        seen, passes = _windows(monkeypatch), []
        fused = equilibria._slope_curv
        monkeypatch.setattr(equilibria, "_slope_curv",
                            lambda *args: passes.append(args[0].size)
                            or fused(*args))
        rm = regions.region_map(g)
        (rl, rh), = seen
        assert 273 <= rl.size <= 400 == rm.c_axis.size + 200
        assert np.all(np.isfinite(rl)) and np.all(np.isfinite(rh))
        assert 1 <= len(passes) <= 4 and passes[0] == rl.size

    @pytest.mark.parametrize("g", [0.3, 1.0])
    def test_failed_certificates_share_a_call(self, monkeypatch, g):
        # just above the threshold t the maximum's stand-in f_hi = t - C is
        # at most 3 tau in size: those lanes get no window, and bisect runs
        # them with the certified lanes in one call
        seen = _windows(monkeypatch)
        t = second_extremum_threshold(g)
        cs = np.concatenate([t * (1.0 + 10.0 ** -np.arange(1, 16)),
                             np.geomspace(2.0 * t, 1e3, 20)])
        high = _extremum_brackets(g)[1]
        got = _extrema(g, cs, high)
        (rl, rh), = seen
        assert rl.size == cs.size
        free = (rl == -math.inf) & (rh == math.inf)
        assert np.all(free[np.abs(t - cs) <= 3.0 * _bounds(cs)[0]])
        assert 3 <= free.sum() and (~free).sum() >= 20
        assert got.tobytes() == np.array(
            [_extremum(c, g, high) for c in cs.tolist()]).tobytes()

    def test_windowed_lanes_equal_float_loop(self):
        # lines x - r on [0, 4], some with a window about r, some with
        # (-inf, inf); r = 2 and r = 1 are midpoints, where f is zero and
        # only that lane stops
        rng = np.random.default_rng(35)
        r = np.array([2.0, 1.0, 2.0, 1.0, 3.0 * 2.0 ** -40, PI,
                      1.2345678901234] + rng.uniform(0.0, 4.0, 30).tolist())
        h = np.where(np.arange(r.size) % 4 == 3, math.inf,
                     10.0 ** -rng.uniform(3.0, 12.0, r.size))
        rl, rh = r - h, r + h
        ran = []

        def f(x, k):
            ran.append((x, k))
            return x - r[k]
        got = bisect(f, 0.0, 4.0, -r, rl, rh)
        want = [equilibria._halve(lambda x, ri=ri: x - ri, 0.0, 4.0, -ri,
                                  a, b)
                for ri, a, b in zip(r.tolist(), rl.tolist(), rh.tolist())]
        assert got.tolist() == want
        assert want == bisect(lambda x, k: x - r[k], 0.0, 4.0, -r).tolist()
        assert want[:4] == [2.0, 1.0, 2.0, 1.0]
        # f runs only on lanes whose midpoint lies in their window
        assert all(np.all((rl[k] <= x) & (x <= rh[k])) for x, k in ran)

    def test_certificate_rejects_a_false_settle(self, monkeypatch):
        # parabolas x^2 - r^2 on [0, 4]; on odd lanes df overstates f' a
        # trillionfold, so Newton settles at once on the chord's zero r^2/4,
        # whose window misses r: those lanes fail the certificate, the
        # others pass it, and every lane keeps its float bits
        seen = _windows(monkeypatch)
        r = np.linspace(0.5, 3.5, 12)
        lying = np.arange(r.size) % 2 == 1
        got = equilibria._replay_lanes(
            lambda x, k: x * x - r[k] * r[k],
            lambda x, k: (x * x - r[k] * r[k],
                          np.where(lying[k], 1e12, 2.0 * x)),
            0.0, 4.0, -r * r, 16.0 - r * r, np.ones(r.size))
        (rl, rh), = seen
        free = (rl == -math.inf) & (rh == math.inf)
        assert free.tolist() == lying.tolist()
        assert got.tolist() == [
            equilibria._halve(lambda x, ri=ri: x * x - ri * ri, 0.0, 4.0,
                              -ri * ri) for ri in r.tolist()]

    def test_flat_derivative_gets_no_window(self, monkeypatch):
        # a lane whose f' is zero drops out of Newton without a division,
        # and its halvings run f at every midpoint
        seen = _windows(monkeypatch)
        r = np.array([4.0 / 3.0, 2.5, 0.7])
        got = equilibria._replay_lanes(
            lambda x, k: x - r[k],
            lambda x, k: (x - r[k], np.where(k == 0, 0.0, 1.0)),
            0.0, 4.0, -r, 4.0 - r, np.ones(3))
        (rl, rh), = seen
        assert (rl[0], rh[0]) == (-math.inf, math.inf)
        assert np.all(np.isfinite(rl[1:])) and np.all(np.isfinite(rh[1:]))
        assert got.tolist() == [
            equilibria._halve(lambda x, ri=ri: x - ri, 0.0, 4.0, -ri)
            for ri in r.tolist()]

    @pytest.mark.parametrize("g", [0.0, 5e-324, math.nextafter(PI / 2, 0.0),
                                   PI / 2, math.nextafter(PI / 2, PI),
                                   PI - 1e-9, PI, 0.3, 1.0])
    def test_lanes_get_the_float_windows(self, monkeypatch, g):
        # the lane replay gives each lane the window the float replay
        # gives its C, not just the same bits, on both brackets: C
        # log-uniform on [1e-6, 1e12] and just above the threshold t,
        # where the maximum's f_hi = t - C lies on either side of 3 tau
        lanes, floats = _windows(monkeypatch), _float_windows(monkeypatch)
        rng = np.random.default_rng(int(g * 1e3) + 7)
        cs = np.exp(rng.uniform(math.log(1e-6), math.log(1e12), 150))
        t = second_extremum_threshold(g)
        if 0.0 < t < math.inf:
            cs = np.concatenate([cs, t * (1.0 + 10.0 ** -np.arange(1, 16)),
                                 t + _bounds(t)[0] * np.array(
                                     [1.0, 2.5, 2.9, 3.1, 3.5, 6.0])])
        for bracket in _extremum_brackets(g):
            _extrema(g, cs, bracket)
            for c in cs.tolist():
                _extremum(c, g, bracket)
        _assert_same_windows(lanes, floats)

    def test_force_lanes_get_the_float_windows(self, monkeypatch):
        # as above for _cell_roots' segments next to the tangency A*, many
        # of which fall back: the lanes are the cells A*(1 +- eps) of one
        # (C, gamma), which share their extrema and so their segments, and
        # f is _force over the lanes' A
        eps = np.array([1e-15, 1e-12, 1e-9, 1e-6, 1e-4])
        cells = []
        for g in (0.7, PI / 2, 2.3, PI):
            for c in np.geomspace(1e-3, 1e9, 13).tolist():
                try:
                    a_star = critical_mass_ratio(c, g)[0]
                except NoSecondCriticalPointError:
                    continue
                minimum, maximum = force_extrema(c, g)
                cells.append((g, c, a_star * np.concatenate([1.0 - eps,
                                                             1.0 + eps]),
                              (0.0, minimum if minimum == minimum else 0.0,
                               maximum, PI)))
        lanes, floats = _windows(monkeypatch), _float_windows(monkeypatch)
        for g, c, a, nodes in cells:
            f = np.array([[_force(x, a_i, c, g) for x in nodes]
                          for a_i in a.tolist()])
            for j in range(3):
                f_lo, f_hi = f[:, j], f[:, j + 1]
                k = np.flatnonzero((f_lo * f_hi < 0.0)
                                   & (np.abs(f_lo) > ROOT_VALUE_TOL)
                                   & (np.abs(f_hi) > ROOT_VALUE_TOL))
                if not k.size:
                    continue
                lo, hi, ak = nodes[j], nodes[j + 1], a[k]
                got = equilibria._replay_lanes(
                    lambda x, i: _force(x, ak[i], c, g),
                    lambda x, i: (_force(x, ak[i], c, g), _slope(x, c, g)),
                    lo, hi, f_lo[k], f_hi[k], np.full(k.size, c))
                want = [equilibria._replay(
                    lambda x, a_i=a_i: _force(x, a_i, c, g),
                    lambda x, a_i=a_i: (_force(x, a_i, c, g),
                                        _slope(x, c, g)), lo, hi, u, v, c)
                    for a_i, u, v in zip(ak.tolist(), f_lo[k].tolist(),
                                         f_hi[k].tolist())]
                assert got.tolist() == want
        _assert_same_windows(lanes, floats)


def _float_windows(monkeypatch):
    """A list that receives the window (rl, rh) of each ``_halve`` call,
    (-inf, inf) for one with none."""
    seen = []
    halve = equilibria._halve

    def recorded(f, lo, hi, f_lo, rl=-math.inf, rh=math.inf):
        seen.append((rl, rh))
        return halve(f, lo, hi, f_lo, rl, rh)

    monkeypatch.setattr(equilibria, "_halve", recorded)
    return seen


def _assert_same_windows(lanes, floats):
    """The lanes' windows, in call and lane order, equal the float
    replays' bit for bit; some replays fall back and some are certified."""
    rl, rh = (np.concatenate(x) for x in zip(*lanes))
    assert np.array(floats).T.tobytes() == np.stack([rl, rh]).tobytes()
    free = (rl == -math.inf) & (rh == math.inf)
    assert free.any() and not free.all()


def _windows(monkeypatch):
    """A list that receives the windows (rl, rh) each ``_replay_lanes``
    call passes to ``bisect``."""
    seen = []
    halve = equilibria.bisect

    def recorded(f, lo, hi, f_lo, rl=None, rh=None):
        seen.append((rl, rh))
        return halve(f, lo, hi, f_lo, rl, rh)

    monkeypatch.setattr(equilibria, "bisect", recorded)
    return seen


class TestSlopeShape:
    """force_extrema's proof: F' rises, then falls, on (0, pi)."""

    def test_slope_rises_then_falls(self):
        # The certificate: with w = 1/(1+C), f = F''/(1+C)^2 and
        # d = F'''/(1+C)^2 have |grad f| <= (4, 2, 9) and
        # |grad d| <= (8, 2, 15) in (phi, gamma, w).  On every box of
        # [pi/4, pi] x [0, pi/2] x [0, 1] outside L4's region
        # (phi >= 3pi/4, C >= 2.2), f keeps its sign, or F''' < 0 on all
        # of it.  L1 covers phi < pi/4.  1e-12 covers the rounding.
        n, phi_from = 64, PI / 4
        half = np.array([(PI - phi_from) / n, PI / 2 / n, 1.0 / n]) / 2.0
        phi, g, w = np.meshgrid(*(lo + (2 * np.arange(n) + 1) * h
                                  for lo, h in zip((phi_from, 0.0, 0.0),
                                                   half)), indexing="ij")
        u, v, q = w * w, w * (1.0 - w), (1.0 - w) ** 2
        f = (2.0 * u * np.sin(phi + g)
             + v * (0.5 * np.sin((phi - g) / 2.0)
                    + 4.5 * np.sin((3.0 * phi + g) / 2.0))
             + 2.0 * q * np.sin(2.0 * phi))
        d = (2.0 * u * np.cos(phi + g)
             + v * (0.25 * np.cos((phi - g) / 2.0)
                    + 6.75 * np.cos((3.0 * phi + g) / 2.0))
             + 4.0 * q * np.cos(2.0 * phi))
        ok = ((np.abs(f) > half @ [4.0, 2.0, 9.0] + 1e-12)
              | (d + half @ [8.0, 2.0, 15.0] + 1e-12 < 0.0))
        l4 = (phi - half[0] >= 3.0 * PI / 4.0) & (w + half[2] <= 1.0 / 3.2)
        assert np.all(ok | l4)
        # the second form of F'' equals model.force_curvature, which
        # evaluates the first; L1 and L4 hold on samples of their regions
        rng = np.random.default_rng(61)
        g = rng.uniform(0.0, PI / 2, 20_000)
        c = np.exp(rng.uniform(math.log(1e-6), math.log(1e6), g.size))
        for phi, c, sign in ((rng.uniform(0.0, PI / 4, g.size), c, 1.0),
                             (rng.uniform(3.0 * PI / 4, PI, g.size),
                              2.2 + c, -1.0)):
            second = (2.0 * np.sin(phi + g)
                      + c / 2.0 * np.sin((phi - g) / 2.0)
                      + 4.5 * c * np.sin((3.0 * phi + g) / 2.0)
                      + 2.0 * c * c * np.sin(2.0 * phi))
            k = slice(200)
            curvature = [force_curvature(x, params(1.0, y, z)) for x, y, z
                         in zip(phi[k].tolist(), c[k].tolist(), g[k].tolist())]
            assert np.all(np.abs(second[k] - curvature)
                          <= 1e-12 * (1.0 + c[k]) ** 2)
            assert np.all(sign * second[phi > 0.0] > 0.0)

    def test_inner_bracket_ends_rise(self):
        # _bracketed decides on a sign change alone: the inner ends of
        # _extremum_brackets, the minimum's hi and the maximum's lo (pi/4
        # and pi/2 for gamma > pi/2, pi/2 and 3pi/4 below), have a computed
        # F' > 0, so a minimum's accepted bracket has F' < 0 at lo, and a
        # maximum's at hi.  C log-spaced over [1e-12, 1e15], on floats at
        # the edge angles, and on arrays at those and a grid of angles
        cs = np.geomspace(1e-12, 1e15, 4000)
        edges = [0.0, 5e-324, math.nextafter(PI / 2, 0.0), PI / 2,
                 math.nextafter(PI / 2, PI), PI]
        for g in edges + np.linspace(0.0, PI, 401).tolist():
            low, high = _extremum_brackets(g)
            assert low[0] == 0.0 < low[1] <= high[0] < high[1] == PI
            for end in (low[1], high[0]):
                assert np.all(_slope(end, cs, g) > 0.0), (g, end)
                if g in edges:
                    assert all(_slope(end, c, g) > 0.0
                               for c in cs.tolist()), (g, end)
            ok = _bracketed(cs, g, *low)[0]
            assert np.all(_slope(0.0, cs[ok], g) < 0.0), g
            ok, _, s_hi = _bracketed(cs, g, *high)
            assert np.all(s_hi[ok] < 0.0), g

    def test_slope_sign_pattern_at_50_digits(self):
        # An mpmath oracle: on each bracket of _extremum_brackets, F' at 50
        # digits changes sign at most once, from - to + on the minimum's
        # and from + to - on the maximum's, and does exactly where
        # _bracketed accepts the bracket; between the brackets F' > 0
        ends = np.geomspace(1e-9, 0.2, 15)
        xs = sorted({*np.linspace(0.0, PI, 91).tolist(), *ends.tolist(),
                     *(PI - ends).tolist(), PI / 4, PI / 2, 3 * PI / 4})
        with mpmath.workdps(50):
            for g in (0.0, 1e-12, 1e-9, PI / 2 - 1e-9, PI / 2 + 1e-9,
                      PI - 1e-9, PI):
                low, high = _extremum_brackets(g)
                for c in np.geomspace(1e-6, 1e3, 19).tolist():
                    sign = {x: int(mpmath.sign(mp_slope(
                        mpmath.mpf(x), mpmath.mpf(c), mpmath.mpf(g))))
                        for x in xs}
                    for (lo, hi), rise in ((low, 1), (high, -1)):
                        seen = [sign[x] for x in xs if lo <= x <= hi]
                        assert 0 not in seen
                        assert seen == sorted(seen, key=lambda v: rise * v)
                        assert bool(_bracketed(c, g, lo, hi)[0]) == (
                            seen[0] != seen[-1]), (g, c, lo)
                    assert all(sign[x] > 0 for x in xs
                               if low[1] <= x <= high[0])


# _cell_roots' extrema when there are none: one segment [0, pi]
NO_EXTREMA = (math.nan, math.nan)


def _rows(a, c, g):
    """_cell_roots of each cell of A broadcast against C, in C order.

    Each distinct C's extrema come from one _extrema call per bracket,
    which gives the float replay's bits (test_arrays_equal_floats)."""
    a, c = (x.ravel().tolist() for x in np.broadcast_arrays(
        np.asarray(a, dtype=float), np.asarray(c, dtype=float)))
    caps = sorted(set(c))
    extrema = dict(zip(caps, zip(*(x.tolist() for x in _column_extrema(
        np.array(caps), g)))))
    return [equilibria._cell_roots(x, y, g, extrema[y])
            for x, y in zip(a, c)]


def _padded(a, c, g):
    """_rows padded with NaN to the most roots a cell has, shaped as the
    broadcast of A against C plus one axis: the arrays of the pinned
    digests."""
    rows = _rows(a, c, g)
    out = np.full((len(rows), max(map(len, rows), default=0)), np.nan)
    for out_row, row in zip(out, rows):
        out_row[:len(row)] = row
    return out.reshape(np.broadcast_shapes(np.shape(a), np.shape(c))
                       + out.shape[1:])


class TestCellRoots:
    def test_column_matches_find_equilibria(self):
        # a column's extrema from one _extrema call per bracket give each
        # cell find_equilibria's roots bit for bit, the cleared cells too
        a = np.linspace(0.0, 12.0, 121)[1:]
        for c, g in ((2.0, PI / 2), (0.7, 0.4), (3.1, 2.6), (1.3, PI)):
            assert _bits(_rows(a, c, g)) == _bits(
                [[eq.phi0 for eq in find_equilibria(params(x, c, g))]
                 for x in a.tolist()])

    @pytest.mark.parametrize("g", [0.0, PI / 2, PI])
    def test_block_brackets(self, g):
        # a grid's extrema, one _extrema call per bracket over its C, give
        # every cell the rows _cell_roots finds with its own float extrema
        a_axis = np.linspace(0.0, 12.0, 61)[1:]
        caps = np.geomspace(1e-3, 1e3, 30)
        block = _rows(a_axis[:, None], caps[None, :], g)
        alone = [equilibria._cell_roots(x, y, g, None)
                 for x in a_axis.tolist() for y in caps.tolist()]
        assert _bits(block) == _bits(alone)
        assert any(block)

    def test_endpoint_root_without_maximum_counts_once(self):
        # below the second-extremum threshold the missing maximum sits on
        # the pi node, so the endpoint root appears twice before the dedup
        g = 0.5
        c = 0.5 * second_extremum_threshold(g)
        a = PI + 2.0 * math.sin(g) / c ** 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert equilibria._cell_roots(a, c, g, None) == [PI]
            assert equilibria._cell_roots(a, c, g, NO_EXTREMA) == [PI]
            assert equilibria._cell_roots(0.0, c, g, NO_EXTREMA) == [
                2.0703197066879953]

    def test_node_root_and_bracketed_root_share_a_row(self):
        # at A = 0, gamma = 0 the node at 0 is a zero of F and a segment
        # brackets the other root: one row holds both, the node's first,
        # alone and in find_equilibria (captured values)
        assert _force(0.0, 0.0, 1.0, 0.0) == 0.0
        roots = equilibria._cell_roots(0.0, 1.0, 0.0, None)
        assert roots == [0.0, 2.2822711490320837]
        assert [eq.phi0 for eq in find_equilibria(
            params(0.0, 1.0, 0.0, exploratory=True))] == roots
        # an independent bisection on another bracket agrees to its xtol
        want = scipy_bisect(lambda x: _force(x, 0.0, 1.0, 0.0), PI / 2, PI,
                            xtol=1e-12)
        assert abs(roots[1] - want) < 2.0 * equilibria.PHI0_TOL

    def test_hard_cells_keep_every_root(self):
        # cells where a root count is easy to get wrong, each with its
        # expected roots: a root on a point of a 1000-point grid, one next
        # to each end node, and below the tangency a pair within a grid
        # step of each other, either side of the maximum.  Each root has
        # F ~ 0, and one _extrema call per bracket and angle gives each
        # cell its lone roots bit for bit
        grid = np.linspace(0.0, PI, 1000)
        rng = np.random.default_rng(43)
        cells, expect = [], []
        for g in [0.0, PI / 2, PI] + rng.uniform(0.0, PI, 5).tolist():
            cells += [(rng.uniform(0.05, 15.0), rng.uniform(0.05, 6.0), g)
                      for _ in range(60)]
            expect += [None] * 60
            for c in rng.uniform(0.05, 6.0, 6).tolist():
                for j in (int(rng.integers(2, 998)), 1, 998):
                    x = float(grid[j])
                    cells.append((_force(x, 0.0, c, g) / c ** 2, c, g))
                    expect.append(("on", x))
                if c > second_extremum_threshold(g):
                    a_star, phi_star = critical_mass_ratio(c, g)[:2]
                    cells += [(a_star * (1.0 - eps), c, g)
                              for eps in (1e-4, 1e-6, 1e-9)]
                    expect += [("around", phi_star)] * 3
        lone = [[eq.phi0 for eq in find_equilibria(
            params(a, c, g, exploratory=True))] for a, c, g in cells]
        for (a, c, g), want, roots in zip(cells, expect, lone):
            assert all(abs(_force(x, a, c, g)) <= 1e-11 * (1.0 + c) ** 2
                       for x in roots), (a, c, g)
            if want and want[0] == "on":
                assert min(abs(x - want[1]) for x in roots) < 1e-9, (a, c, g)
            elif want:
                assert len(roots) == 2 and roots[0] < want[1] < roots[1], (
                    a, c, g)
        block = []
        for g, a, c in _by_angle(cells):
            block += _rows(a, c, g)
        assert _bits(block) == _bits(
            [roots for _, roots in sorted(zip([g for *_, g in cells], lone),
                                          key=lambda x: x[0])])
        assert sum(map(len, lone)) > 500
        assert sum(len(roots) == 2 for roots in lone) > 150

    def test_block_at_extreme_capillary_ratios(self):
        # C from 1e-3 to 1e3, where _force's slack is widest (about
        # 1.4e-8 at C = 1e3).  Each column's mass ratios straddle its
        # root-count changes, near the endpoint line pi + 2 sin(gamma)/C^2
        # and the tangency A* (the line stands in for A* at gamma = 0,
        # where there is none).  Arrays and shapes are pinned (captured
        # values).
        c = np.array([1e-3, 1e-2, 30.0, 1e3])
        near = np.array([0.5, 0.9, 0.95, 0.99, 0.999, 1.0 - 1e-9, 1.0,
                         1.0 + 1e-9, 1.001])
        pinned = []
        for g in (0.0, PI / 2, 2.6, PI):
            a_end = PI + 2.0 * math.sin(g) / c ** 2
            a_star = np.array([critical_mass_ratio(x, g)[0] if g else a
                               for x, a in zip(c.tolist(), a_end)])
            a = np.concatenate([near[:, None] * a_end,
                                near[:, None] * a_star, [2.0 * a_star]])
            block = _padded(a, c, g)
            pinned.append((block.shape, block.tolist()))
            assert [[x for x in row if x == x] for row in block.reshape(
                -1, block.shape[-1]).tolist()] == [
                [eq.phi0 for eq in find_equilibria(params(x, y, g))]
                for x, y in zip(a.ravel().tolist(),
                                np.resize(c, a.size).tolist())]
        assert [shape for shape, _ in pinned] == [
            (19, 4, 1), (19, 4, 2), (19, 4, 2), (19, 4, 2)]
        assert hashlib.sha256(repr(pinned).encode()).hexdigest() == (
            "741996c6f0a501f69098ae897a7387f2af6ad5deab50e1a34e4fc99f8097466f")

    def test_rootless_cells_keep_one_sign(self):
        # the cells for which _cell_roots finds no root must have F of one
        # sign, |F| > ROOT_VALUE_TOL, at their nodes and between them
        cells = _edge_cells(41)
        fine = np.linspace(0.0, PI, 100_001)
        marked = {}
        for g, a, c in _by_angle(cells):
            rootless = np.array([not row for row in _rows(a, c, g)])
            for x, y in zip(a[rootless].tolist(), c[rootless].tolist()):
                marked.setdefault((y, g), []).append(x)
        assert 150 < sum(map(len, marked.values())) < len(cells)
        # each column's marked levels at once
        for (c, g), a in marked.items():
            a = np.array(a)[:, None]
            for f in (_force(_cell_nodes(c, g), a, c, g),
                      _force(fine, a, c, g)):
                assert np.all(np.abs(f) > ROOT_VALUE_TOL), (c, g)
                assert np.all(np.sign(f) == np.sign(f[:, :1])), (c, g)
        # the same cells' roots, one at a time with their float extrema and
        # padded in blocks per angle (captured values)
        pinned = [np.array(equilibria._cell_roots(a, c, g, None))
                  for a, c, g in cells]
        pinned += [_padded(a, c, g) for g, a, c in _by_angle(cells)]
        digest = repr([(x.shape, x.tolist()) for x in pinned])
        assert hashlib.sha256(digest.encode()).hexdigest() == (
            "2d38c74e1f63ed2eb3f370a4860614a027e2aba96df4c8fdabda2e4123815c7d")

    def test_first_wins_rows_match_the_float_cell(self, monkeypatch):
        # a missing extremum's node repeats 0 or pi, so a node root at 0
        # (A = -2 sin(gamma)/C^2) or on the endpoint line appears twice:
        # _cell_roots' first-wins pass drops the repeat, in exactly the
        # cells where a root has a twin
        rng = np.random.default_rng(52)
        cells = []
        for g in [0.0, PI / 2, PI] + rng.uniform(0.0, PI, 5).tolist():
            for c in np.geomspace(1e-3, 1e3, 12).tolist():
                cells += [(PI + 2.0 * math.sin(g) / c ** 2, c, g),
                          (-2.0 * math.sin(g) / c ** 2, c, g),
                          (rng.uniform(0.05, 15.0), c, g)]
        runs = []
        first_wins = equilibria._first_wins

        def counting(found):
            kept = first_wins(found)
            runs.append(len(found) - len(kept))
            return kept

        monkeypatch.setattr(equilibria, "_first_wins", counting)
        rows = [equilibria._cell_roots(a, c, g, None) for a, c, g in cells]
        # every cell runs the pass; 51 drop one root there, the rest none,
        # and no row keeps two roots within _DEDUP_TOL
        assert len(runs) == len(cells)
        assert sorted(runs) == [0] * (len(cells) - 51) + [1] * 51
        assert all(y - x > equilibria._DEDUP_TOL
                   for row in rows for x, y in zip(row, row[1:]))


def _bits(rows):
    """Each root's exact bits, for comparisons that -0.0 == 0.0 would hide."""
    return [[x.hex() for x in row] for row in rows]


def _edge_cells(seed):
    """(A, C, gamma) next to a change of root count, C log-uniform on
    [1e-3, 1e3]: A*(1 +- eps) at the upper tangency (the endpoint line
    where there is no maximum), and at the lower one F(minimum; A=0)/C^2
    (or F(0; A=0)/C^2 without a minimum), the endpoint line itself, and an
    exploratory A < 0."""
    rng = np.random.default_rng(seed)
    cells = []
    for g in [0.0, PI / 2, PI] + rng.uniform(0.0, PI, 3).tolist():
        for c in np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 8)).tolist():
            a_end = PI + 2.0 * math.sin(g) / c ** 2
            try:
                a_top = critical_mass_ratio(c, g)[0]
            except NoSecondCriticalPointError:
                a_top = a_end
            minimum = force_extrema(c, g)[0]
            a_bottom = _force(minimum if minimum == minimum else 0.0,
                              0.0, c, g) / c ** 2
            for eps in (1e-15, 1e-12, 1e-9, 1e-6, 1e-5, 1e-4):
                cells += [(a * f, c, g) for a in (a_top, a_bottom)
                          for f in (1.0 - eps, 1.0 + eps)]
            cells += [(a_end, c, g), (-rng.uniform(0.05, 15.0), c, g)]
    return cells


def _by_angle(cells):
    """(gamma, A array, C array) for each contact angle of the cells."""
    for g in sorted({g for _, _, g in cells}):
        a, c = zip(*[(a, c) for a, c, h in cells if h == g])
        yield g, np.array(a), np.array(c)


class TestForceSlack:
    def test_force_slack_bounds_the_rounding(self):
        # _force, on floats and on arrays, lies within the slack s of
        # _bounds of a 40-digit F at _cell_roots' nodes and a random point,
        # with A = 0 and with a level inside the node values' range: the
        # ceiling's proof and _count_block's rounding bullet rest on it
        rng = np.random.default_rng(31)
        c = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 600))
        g = np.concatenate([np.repeat([0.0, PI / 2, PI], 100),
                            rng.uniform(0.0, PI, 300)])
        worst = 0.0
        with mpmath.workdps(40):
            for c_i, g_i in zip(c.tolist(), g.tolist()):
                x = np.append(_cell_nodes(c_i, g_i), rng.uniform(0.0, PI))
                f0 = _force(x, 0.0, c_i, g_i)
                level = rng.uniform(f0.min(), f0.max())
                f_exact = [mp_force(x_i, 0.0, c_i, g_i) for x_i in x.tolist()]
                for a in (0.0, level / (c_i * c_i)):
                    shift = mpmath.mpf(a) * mpmath.mpf(c_i) ** 2
                    exact = np.array([float(f - shift) for f in f_exact])
                    gap = np.abs(np.concatenate([
                        _force(x, a, c_i, g_i),
                        [_force(x_i, a, c_i, g_i) for x_i in x.tolist()]])
                        - np.tile(exact, 2))
                    worst = max(worst, gap.max() / _bounds(c_i)[0])
        assert worst <= 1.0


class TestSlopeSlack:
    def test_slope_slack_bounds_the_rounding(self):
        # _slope, on floats and on arrays, lies within the slack s of
        # _bounds of a 40-digit F' at _cell_roots' nodes and a random point,
        # over TestForceSlack's (C, gamma) pairs, and within 1e-3 of pi at C
        # up to 1e9, where its C^2 - C^2 cos(2 phi) cancels: _replay rests
        # on it
        rng = np.random.default_rng(31)
        c = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 600))
        g = np.concatenate([np.repeat([0.0, PI / 2, PI], 100),
                            rng.uniform(0.0, PI, 300)])
        points = [(np.append(_cell_nodes(c_i, g_i), rng.uniform(0.0, PI)),
                   c_i, g_i) for c_i, g_i in zip(c.tolist(), g.tolist())]
        for g_i in (0.0, PI / 2, 2.3, PI) + tuple(rng.uniform(0.0, PI, 4)):
            for c_i in np.geomspace(1e3, 1e9, 13).tolist():
                x = PI - np.append(np.geomspace(1e-12, 1e-3, 7),
                                   rng.uniform(0.0, 1e-3, 3))
                points.append((x, c_i, g_i))
        worst = 0.0
        with mpmath.workdps(40):
            for x, c_i, g_i in points:
                exact = np.array([float(mp_slope(*map(mpmath.mpf, (x_i, c_i,
                                                                 g_i))))
                                  for x_i in x.tolist()])
                gap = np.abs(np.concatenate([
                    _slope(x, c_i, g_i),
                    [_slope(x_i, c_i, g_i) for x_i in x.tolist()]])
                    - np.tile(exact, 2))
                worst = max(worst, gap.max() / _bounds(c_i)[0])
        assert worst <= 1.0


def _noisy_kernels(seed):
    """(f, df, lo, hi) of kernels whose rounding, within the slack tau of
    _bounds(1.0), flips their sign away from their zero r: a line of slope
    1e-5 flipped where 0.8 tau < |F| < 0.99 tau, and a rise of slope 1
    through r to 8 tau, a drop to 0.8 tau and a fall to 0.5 tau at hi,
    flipped where 0.6 tau < F < 0.99 tau on the fall.  The second is least
    in size at hi, as F' may be on the minimum's bracket."""
    tau = _bounds(1.0)[0]
    kernels = []
    for r in np.random.default_rng(seed).uniform(0.2, 0.8, 20).tolist():
        def line(x, r=r):
            v = 1e-5 * (x - r)
            flip = 0.8 * tau < abs(v) < 0.99 * tau
            return v - 0.95 * tau * math.copysign(1.0, v) if flip else v
        kernels.append((line, lambda x: 1e-5, 0.0, 1.0))
        top, foot = r + 8.0 * tau, r + 8.0 * tau + 1e-12

        def peak(x, r=r, top=top, foot=foot):
            if x <= top:
                return x - r
            if x <= foot:
                return 8.0 * tau - 7.2 * tau * (x - top) / 1e-12
            v = 0.8 * tau - 0.3 * tau * (x - foot) / 1e-9
            return v - 0.99 * tau if 0.6 * tau < v < 0.99 * tau else v

        def peak_slope(x, top=top, foot=foot):
            return (1.0 if x <= top else -7.2 * tau / 1e-12 if x <= foot
                    else -0.3 * tau / 1e-9)
        kernels.append((peak, peak_slope, 0.0, foot + 1e-9))
    return kernels


def _checked_replays(monkeypatch, compare=True):
    """A count of _replay's calls and of its fallbacks, the _halve calls
    with no window, with each call's result compared with SciPy's bisect
    bit for bit, f_hi standing in for f(hi), if ``compare``."""
    seen = {"calls": 0, "fallbacks": 0}
    replay, halve = equilibria._replay, equilibria._halve

    def counted(f, lo, hi, f_lo, *window):
        seen["fallbacks"] += not window
        return halve(f, lo, hi, f_lo, *window)

    def checked(f, fdf, lo, hi, f_lo, f_hi, c, x0=None):
        seen["calls"] += 1
        got = replay(f, fdf, lo, hi, f_lo, f_hi, c, x0)
        if compare:
            want = scipy_bisect(lambda x: f_hi if x == hi else f(x), lo, hi,
                                xtol=1e-12)
            assert got.hex() == want.hex(), (lo, hi, c)
        return got

    monkeypatch.setattr(equilibria, "_halve", counted)
    monkeypatch.setattr(equilibria, "_replay", checked)
    return seen


class TestReplay:
    """_replay gives bisect's bits from a third of its kernel calls."""

    def test_replays_criterion_9_draws(self, monkeypatch):
        # every bisection of 2,000 criterion-9 cells replays, at under 16
        # kernel calls a bisection, node and stability calls included
        # (about 44 with no window).  No digest sees a replay that always
        # falls back: its bits are bisect's
        calls = []
        for name in ("_force", "_slope", "_slope_curv"):
            kernel = getattr(equilibria, name)
            monkeypatch.setattr(equilibria, name,
                                lambda *args, k=kernel: calls.append(1)
                                or k(*args))
        seen = _checked_replays(monkeypatch, compare=False)
        for a, c, g in _criterion_9_draws(51, 2000):
            find_equilibria(params(a, c, g))
        assert seen["fallbacks"] == 0
        assert seen["calls"] > 1500
        assert len(calls) <= 16 * seen["calls"]

    def test_equals_bisect_on_edge_cells(self, monkeypatch):
        # every replay of find_equilibria, force_extrema and
        # critical_mass_ratio equals SciPy's bisect bit for bit: on edge
        # cells, next to the tangency A* and on the endpoint line, at the
        # edge angles and C from 1e-6 to 1e9, where some fall back
        cells = _edge_cells(41) + _edge_cells(47)
        edges = [0.0, 5e-324, math.nextafter(PI / 2, 0.0), PI / 2,
                 math.nextafter(PI / 2, PI), PI - 1e-9, PI]
        caps = np.geomspace(1e-6, 1e9, 25).tolist()
        for g in edges:
            for c in caps:
                a_end = PI + 2.0 * math.sin(g) / c ** 2
                cells.append((a_end, c, g))
                try:
                    a_star = critical_mass_ratio(c, g)[0]
                except ValueError:
                    continue
                cells += [(a_star * (1.0 + sign * eps), c, g)
                          for eps in (1e-15, 1e-12, 1e-9, 1e-6, 1e-4)
                          for sign in (-1.0, 1.0)]
        seen = _checked_replays(monkeypatch)
        for a, c, g in cells:
            find_equilibria(params(a, c, g, exploratory=True))
        for g in edges:
            for c in caps:
                force_extrema(c, g)
                try:
                    critical_mass_ratio(c, g)
                except ValueError:
                    pass
        assert seen["calls"] > 8000
        assert 0 < seen["fallbacks"] < seen["calls"] / 4

    def test_falls_back_near_a_tangency(self, monkeypatch):
        # next to the tangency every replay equals SciPy's bisect; one that
        # falls back either fails the end-value screen before any kernel
        # call or runs Newton's 12 steps without settling: 24 calls for a
        # root (_force and _slope), 12 for an extremum (one _slope_curv)
        calls, start, before = [], [0], []
        for name in ("_force", "_slope", "_slope_curv"):
            kernel = getattr(equilibria, name)
            monkeypatch.setattr(equilibria, name,
                                lambda *args, k=kernel: calls.append(1)
                                or k(*args))
        seen = _checked_replays(monkeypatch)
        replay, halve = equilibria._replay, equilibria._halve

        def counted(*args):
            start[0] = len(calls)
            return replay(*args)

        def fallback(f, lo, hi, f_lo, *window):
            if not window:
                before.append(len(calls) - start[0])
            return halve(f, lo, hi, f_lo, *window)

        monkeypatch.setattr(equilibria, "_replay", counted)
        monkeypatch.setattr(equilibria, "_halve", fallback)
        for g in (PI / 2, PI):
            for c in np.geomspace(1e-3, 1e9, 13).tolist():
                a_star = critical_mass_ratio(c, g)[0]
                for eps in (1e-15, 1e-12, 1e-9, 1e-6, 1e-4):
                    for sign in (-1.0, 1.0):
                        find_equilibria(params(a_star * (1.0 + sign * eps),
                                               c, g))
        assert seen["fallbacks"] == len(before) == 201
        assert sorted(set(before)) == [0, 12, 24]
        assert [before.count(n) for n in (0, 12, 24)] == [28, 86, 87]

    def test_start_outside_the_bracket_takes_the_chord(self):
        # x^2 - r on [0, 1]: Newton's first point is x0 where it lies in
        # (0, 1), else the chord's zero r, for an x0 at an end, outside
        # the bracket or NaN; the float replay and the lanes agree, and
        # every result is bisect's
        r = 0.3
        starts = [0.6, 0.0, 1.0, -2.0, 5.0, math.nan, math.inf]
        first = [0.6] + [r] * (len(starts) - 1)
        ran = []

        def f(x, k=None):
            return x * x - r

        def fdf(x, k=None):
            ran.append(x)
            return f(x), 2.0 * x
        want = equilibria._halve(f, 0.0, 1.0, -r)
        for x0, x in zip([None] + starts, [r] + first):
            del ran[:]
            assert equilibria._replay(f, fdf, 0.0, 1.0, -r, 1.0 - r, 1.0,
                                      x0) == want
            assert ran[0] == x
        n = len(starts)
        for x0, x in ((None, [r] * n), (np.array(starts), first)):
            del ran[:]
            got = equilibria._replay_lanes(f, fdf, 0.0, 1.0, np.full(n, -r),
                                           np.full(n, 1.0 - r), np.ones(n),
                                           x0)
            assert got.tolist() == [want] * n
            assert ran[0].tolist() == x

    def test_screens_the_end_values_first(self, monkeypatch):
        # lines x - r on [0, 1]: a replay whose |f_lo| or |f_hi| is at most
        # 3 tau, at hi a stand-in as for the maximum's bracket, runs no
        # kernel before its window-free _halve; r = 4 tau passes the screen
        tau = _bounds(1.0)[0]
        ran, at_halve = [], []
        halve = equilibria._halve

        def first(f, lo, hi, f_lo, *window):
            at_halve.append((len(ran), bool(window)))
            return halve(f, lo, hi, f_lo, *window)
        monkeypatch.setattr(equilibria, "_halve", first)
        for r, f_hi in ((2.0 * tau, None), (3.0 * tau, None),
                        (0.6, 3.0 * tau), (4.0 * tau, None)):
            def f(x, r=r):
                ran.append(x)
                return x - r
            ends = f(0.0), f(1.0) if f_hi is None else f_hi
            del ran[:]
            got = equilibria._replay(
                f, lambda x, f=f: (f(x), ran.append(x) or 1.0), 0.0, 1.0,
                *ends, 1.0)
            assert got == scipy_bisect(lambda x, r=r: x - r, 0.0, 1.0,
                                       xtol=1e-12)
        assert at_halve == [(0, False)] * 3 + [(4, True)]

    def test_certificate_holds_against_adverse_rounding(self, monkeypatch):
        # kernels whose rounding, within tau, flips their sign near the
        # certificate's points or near hi: each replay equals SciPy's
        # bisect, by replaying where the certificate holds and falling back
        # where the end value at hi is under 3 tau
        seen = _checked_replays(monkeypatch)
        for f, df, lo, hi in _noisy_kernels(3):
            equilibria._replay(f, lambda x, f=f, df=df: (f(x), df(x)), lo, hi,
                               f(lo), f(hi), 1.0)
        assert seen == {"calls": 40, "fallbacks": 20}
