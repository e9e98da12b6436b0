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

from floatcyl import equilibria
from floatcyl.equilibria import (ROOT_VALUE_TOL, CriticalPoint, ExtremumKind,
                                 NoSecondCriticalPointError, Stability,
                                 UnsupportedRegimeError, _bounds, _bracketed,
                                 _extrema, _extremum_brackets, _force_maximum,
                                 _margin, _rootless, _scan_rows,
                                 asymptotic_critical_mass, bisect,
                                 critical_mass_ratio, critical_points,
                                 find_equilibria, force_extrema,
                                 second_extremum_threshold, solve)
from floatcyl.model import (DimensionlessParams, _force, _slope,
                            force_curvature, total_force)

PI = math.pi


def params(a=1.0, c=1.0, g=PI / 2, exploratory=False):
    return DimensionlessParams(a, c, g, exploratory=exploratory)


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
        at = force_extrema(c, PI / 2)
        for g in (PI / 2 - 1e-12, PI / 2 + 1e-12,
                  math.nextafter(PI / 2, 0.0), math.nextafter(PI / 2, 4.0)):
            for near, exact in zip(force_extrema(c, g), at):
                assert np.all(np.abs(near - exact) <= 1e-11)


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
        # independent root finder, the root-count oracle behind solve's
        # brackets: fine sign scan plus bisection refinement.  C is
        # log-uniform on [1e-3, 1e3], edge contact angles alternate with
        # random ones, and two levels in three are drawn near the endpoint
        # or the tangency line.  Each level lies at least 1e-6 (1+C)^2,
        # the force's scale, from both lines: the scan then resolves both
        # roots, and no node value falls within the absolute
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
        # solve finds every root only with the true extrema: critical must
        # hold the kinds whose brackets _bracketed accepts, each inside its
        # bracket, and nothing else
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
    # tolerance makes node roots of tiny forces (ROADMAP item 2)
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
        # without calling solve: every cell it clears is one _rootless marks
        # from its row, where solve finds no root either
        rng = np.random.default_rng(48)
        cells = _edge_cells(41)
        for g in (0.0, PI / 2, PI):
            for c in [1e-6, *np.exp(rng.uniform(math.log(1e-6), math.log(1e8),
                                                40)).tolist()]:
                s, margin = _margin(c)
                top = (2.0 + 4.0 * c * math.sin(g / 2.0) + PI * c * c
                       + 2.0 * s + margin)
                bottom = -2.0 - 4.0 * c - 2.0 * s - margin
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
        calls = _counting_solve(monkeypatch)
        cleared = []
        for a, c, g in cells:
            n = len(calls)
            eqs = find_equilibria(params(a, c, g, exploratory=True))
            if len(calls) == n:
                assert eqs == []
                cleared.append((a, c, g))
        for a, c, g in cleared:
            one = np.array([c])
            assert _rootless(_scan_rows(one, g), np.array([a]), one,
                             np.array([0])).item(), (a, c, g)
            assert solve(a, c, g).shape == (0,), (a, c, g)
        assert 1500 < len(cleared) < len(cells)

    def test_ceiling_count_on_criterion_9_draws(self, monkeypatch):
        # the share the ceiling clears: 63 % of criterion-9 cells, pinned so
        # that a ceiling which stops clearing fails here
        calls = _counting_solve(monkeypatch)
        for a, c, g in _criterion_9_draws(49, 2000):
            find_equilibria(params(a, c, g))
        assert 2000 - len(calls) == 1254

    @pytest.mark.parametrize("a,c,g,cleared,roots", [
        (10, 2.0, 1.0, True, 0),
        (3, 2.0, PI / 2, False, 1),
        (np.float32(10.0), 2.0, 1.0, True, 0),
        (np.float32(3.8), 2.0, PI / 2, False, 2),
        # its float32 level A C C would clear the ceiling, its float level
        # does not, nor does _rootless mark it
        (np.float32(3.1415951), 1e8, PI / 2, False, 0),
    ])
    def test_mass_ratio_of_any_number_type(self, monkeypatch, a, c, g,
                                           cleared, roots):
        # the ceiling tests the float of A, as solve does
        calls = _counting_solve(monkeypatch)
        eqs = find_equilibria(params(a, c, g))
        assert (not calls) is cleared
        assert len(eqs) == roots
        assert repr(eqs) == repr(find_equilibria(params(float(a), c, g)))


def _criterion_9_draws(seed, n):
    """n (A, C, gamma) triples drawn as criterion 9 draws them."""
    rng = np.random.default_rng(seed)
    cells = []
    for _ in range(n):
        g = rng.uniform(0.0, PI)
        cells.append((rng.uniform(0.05, 15.0), rng.uniform(0.05, 6.0), g))
    return cells


def _counting_solve(monkeypatch):
    """A list that grows by one with each call find_equilibria makes to
    solve."""
    calls = []

    def counting(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(equilibria, "solve", counting)
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
        draws = _random_brackets(kernel, 200, seed=31)
        expected = []
        for a, c, g, lo, hi in draws:
            def f(x):
                return float(kernel(x, a, c, g))
            want = scipy_bisect(f, lo, hi, xtol=1e-12)
            got = bisect(f, lo, hi)
            assert type(got) is float
            assert got == want
            expected.append(want)
        a, c, g, lo, hi = (np.array(col) for col in zip(*draws))
        got = bisect(lambda x: kernel(x, a, c, g), lo, hi)
        assert got.tolist() == expected

    def test_zero_at_either_end(self):
        def f(x):
            return x - 1.0
        for lo, hi in ((1.0, 2.0), (0.0, 1.0), (0.3, 2.5)):
            assert bisect(f, lo, hi) == scipy_bisect(f, lo, hi, xtol=1e-12)
        lo = np.array([1.0, 0.0, 0.3])
        hi = np.array([2.0, 1.0, 2.5])
        assert bisect(f, lo, hi).tolist() == [
            1.0, 1.0, scipy_bisect(f, 0.3, 2.5, xtol=1e-12)]

    def test_increasing_and_decreasing(self):
        for f in (np.cos, lambda x: -np.cos(x), lambda x: 1.0 - x * x,
                  lambda x: x ** 3 - 2.0):
            want = scipy_bisect(f, 0.0, 3.0, xtol=1e-12)
            assert bisect(f, 0.0, 3.0) == want
            assert bisect(f, np.zeros(2), np.full(2, 3.0)).tolist() == [want] * 2


    def test_one_bracket_equals_float_loop(self):
        # every lane shares the float bracket [0, 4]: lanes with f(lo) == 0
        # or f(hi) == 0, lanes that hit f(xm) == 0 while dm is still wide
        # (2, 1, 3) or late (3 2^-40), and seeded ones
        roots = [0.0, 4.0, 2.0, 1.0, 3.0, 3.0 * 2.0 ** -40, PI,
                 1.2345678901234] + np.random.default_rng(15).uniform(
                     0.0, 4.0, 40).tolist()
        r = np.array(roots)
        got = bisect(lambda x: x - r, 0.0, 4.0)
        want = [bisect(lambda x, ri=ri: x - ri, 0.0, 4.0) for ri in roots]
        assert got.tolist() == want
        assert want == [scipy_bisect(lambda x, ri=ri: x - ri, 0.0, 4.0,
                                     xtol=1e-12) for ri in roots]
        # the same lanes with a bracket each, as arrays
        assert bisect(lambda x: x - r, np.zeros(r.size),
                      np.full(r.size, 4.0)).tolist() == want

    def test_lane_brackets_equal_float_loop(self):
        # a bracket per lane, as force_extrema's: widths from 4e-12 to 50,
        # ends up to 50, roots met early (dyadic) or late; a narrow lane
        # keeps every lane on the tolerance test, so each set also runs
        # without one
        rng = np.random.default_rng(16)
        r = np.concatenate([[1.0, 0.5, 3.0, 2.0 ** -30, PI, 48.0],
                            rng.uniform(0.0, 50.0, 40)])
        below = np.concatenate([[1.0, 0.25, 1.0, 1.0, 1e-12, 2.0],
                                rng.uniform(1e-12, 4.0, 40)])
        above = np.concatenate([[3.0, 0.75, 1.0, 1.0, 3e-12, 2.0],
                                np.exp(rng.uniform(-27.0, 0.0, 40))])
        for lanes in (slice(None), slice(None, 4), slice(6, None),
                      np.flatnonzero(below + above > 1e-3)):
            ri, lo, hi = r[lanes], (r - below)[lanes], (r + above)[lanes]
            got = bisect(lambda x: x - ri, lo, hi)
            assert got.tolist() == [
                scipy_bisect(lambda x, c=c: x - c, a, b, xtol=1e-12)
                for c, a, b in zip(ri.tolist(), lo.tolist(), hi.tolist())]
        assert bisect(lambda x: x, np.empty(0), np.empty(0)).size == 0

    @pytest.mark.parametrize("g", [0.0, PI / 2, 2.3, PI])
    def test_one_bracket_slope_lanes(self, g):
        # force_extrema's shape of call: the slope over many C, one bracket
        cs = np.geomspace(1e-3, 1e3, 60)
        lo, hi = PI / 2, PI
        f = _slope(hi, cs, g)
        cs = cs[_slope(lo, cs, g) * f < 0.0]
        got = bisect(lambda x: _slope(x, cs, g), lo, hi)
        assert got.tolist() == [bisect(lambda x, c=c: _slope(x, c, g), lo, hi)
                                for c in cs.tolist()]


class TestSharedBisection:
    """Array extrema, each lane with its own bracket in one bisection, equal
    the float calls bit for bit."""

    @pytest.mark.parametrize("g", [0.0, 1e-12, 0.5, math.pi / 2,
                                   PI / 2 - 1e-9, PI / 2 + 1e-9, 2.3, PI])
    def test_arrays_equal_floats(self, g):
        cs = np.geomspace(1e-3, 1e3, 200).tolist()
        t = second_extremum_threshold(g)
        if t < math.inf:
            cs += [t, math.nextafter(t, math.inf)]
            cs.append(math.nextafter(cs[-1], math.inf))
        floats = [force_extrema(c, g) for c in cs]
        want = [np.array(x) for x in zip(*floats)]
        got = force_extrema(np.array(cs), g)
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
        assert _force_maximum(np.array(cs), g).tobytes() == want[1].tobytes()
        assert np.array([_force_maximum(c, g) for c in cs]).tobytes() == (
            want[1].tobytes())
        # columns and tangency samples in one call, as region_map makes it
        samples = np.linspace(1e-3, 6.0, 150)
        low, high = _extremum_brackets(g)
        mixed = _extrema(g, [(np.array(cs), low), (np.array(cs), high),
                             (samples, high)])
        assert [x.tobytes() for x in mixed] == [
            *(x.tobytes() for x in want),
            np.array([_force_maximum(c, g) for c in samples.tolist()]
                     ).tobytes()]


class TestForceMaximum:
    """The maximum-only helper gives force_extrema's maximum bit for bit."""

    @pytest.mark.parametrize("g", [0.0, 1e-9, 0.5, PI / 2 - 1e-9, PI / 2,
                                   PI / 2 + 1e-9, 2.3, PI])
    def test_equals_force_extrema(self, g):
        cs = np.concatenate([np.geomspace(1e-3, 1e3, 300),
                             np.linspace(0.01, 5.0, 100)])
        want = force_extrema(cs, g)[1]
        assert _force_maximum(cs, g).tobytes() == want.tobytes()
        # below gamma = 0.5 here the maximum needs C past 1e3, or never comes
        assert np.isfinite(want).any() == (g >= 0.5)
        for c in cs[::17].tolist():
            got, want = _force_maximum(c, g), force_extrema(c, g)[1]
            assert type(got) is float
            assert got == want or (got != got and want != want)


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
                    for (lo, hi, *rest), rise in ((low, 1), (high, -1)):
                        seen = [sign[x] for x in xs if lo <= x <= hi]
                        assert 0 not in seen
                        assert seen == sorted(seen, key=lambda v: rise * v)
                        assert bool(_bracketed(c, g, lo, hi, *rest)[0]) == (
                            seen[0] != seen[-1]), (g, c, lo)
                    assert all(sign[x] > 0 for x in xs
                               if low[1] <= x <= high[0])


# solve's extrema when there are none: one segment [0, pi]
NO_EXTREMA = (math.nan, math.nan)


def cell_roots(padded):
    """solve's NaN-padded roots as one list per cell, in C order."""
    return [[x for x in row if x == x]
            for row in padded.reshape(math.prod(padded.shape[:-1]),
                                      padded.shape[-1]).tolist()]


class TestSolve:
    def test_column_matches_find_equilibria(self):
        # one call over many mass ratios gives each cell's roots bit for bit
        a = np.linspace(0.0, 12.0, 121)[1:]
        for c, g in ((2.0, PI / 2), (0.7, 0.4), (3.1, 2.6), (1.3, PI)):
            column = cell_roots(solve(a, c, g))
            assert column == [[eq.phi0 for eq in find_equilibria(params(x, c, g))]
                              for x in a.tolist()]

    @pytest.mark.parametrize("g", [0.0, PI / 2, PI])
    def test_block_brackets(self, g):
        # a block's node roots and brackets, from _force over its columns,
        # give each cell the roots it has alone, from _force on floats
        a_axis = np.linspace(0.0, 12.0, 61)[1:]
        caps = np.geomspace(1e-3, 1e3, 30)
        block = cell_roots(solve(a_axis[:, None], caps[None, :], g))
        alone = [[x for x in solve(x, y, g).tolist() if x == x]
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
            roots = solve(a, c, g)
            assert roots.shape == (1,)
            assert roots.tolist() == [PI]
            column = solve(np.array([0.0, a]), c, g, NO_EXTREMA)
        assert column.shape == (2, 1)
        assert column.tolist() == [[2.0703197066879953], [PI]]

    def test_node_root_and_bracketed_root_share_a_row(self):
        # at A = 0, gamma = 0 the node at 0 is a zero of F and a segment
        # brackets the other root: one row holds both, the node's first,
        # with no padding column, alone, in a column and in
        # find_equilibria (captured values)
        assert _force(0.0, 0.0, 1.0, 0.0) == 0.0
        roots = solve(0.0, 1.0, 0.0)
        assert roots.shape == (2,)
        assert roots.tolist() == [0.0, 2.2822711490320837]
        column = solve(np.array([0.0, 1e12]), 1.0, 0.0)
        assert cell_roots(column) == [roots.tolist(), []]
        assert [eq.phi0 for eq in find_equilibria(
            params(0.0, 1.0, 0.0, exploratory=True))] == roots.tolist()
        # an independent bisection on another bracket agrees to its xtol
        want = scipy_bisect(lambda x: _force(x, 0.0, 1.0, 0.0), PI / 2, PI,
                            xtol=1e-12)
        assert abs(roots[1] - want) < 2.0 * equilibria.PHI0_TOL

    def test_hard_cells_keep_every_root(self):
        # cells where a root count is easy to get wrong, each with its
        # expected roots: a root on a scan grid point, one next to each end
        # node, and below the tangency a pair within a grid step of each
        # other, either side of the maximum.  Each root has F ~ 0, and a
        # block gives each cell's lone roots bit for bit
        grid = equilibria._scan().grid
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
            block += cell_roots(solve(a, c, g))
        assert _bits(block) == _bits(
            [roots for _, roots in sorted(zip([g for *_, g in cells], lone),
                                          key=lambda x: x[0])])
        assert sum(map(len, lone)) > 500
        assert sum(len(roots) == 2 for roots in lone) > 150

    def test_block_at_extreme_capillary_ratios(self):
        # C from 1e-3 to 1e3, where the rows' slack is widest (about
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
            block = solve(a, c, g)
            pinned.append((block.shape, block.tolist()))
            assert cell_roots(block) == [
                [eq.phi0 for eq in find_equilibria(params(x, y, g))]
                for x, y in zip(a.ravel().tolist(),
                                np.resize(c, a.size).tolist())]
        assert [shape for shape, _ in pinned] == [
            (19, 4, 1), (19, 4, 2), (19, 4, 2), (19, 4, 2)]
        assert hashlib.sha256(repr(pinned).encode()).hexdigest() == (
            "741996c6f0a501f69098ae897a7387f2af6ad5deab50e1a34e4fc99f8097466f")

    def test_rootless_cells_keep_one_sign(self):
        # the cells solve answers from the rows alone must have F of one
        # sign, |F| > ROOT_VALUE_TOL, at their nodes and between them
        cells = _edge_cells(41)
        fine = np.linspace(0.0, PI, 100_001)
        marked = []
        for g, a, c in _by_angle(cells):
            rootless = _rootless(_scan_rows(c, g), a, c, np.arange(c.size))
            marked += [(x, y, g) for x, y in zip(a[rootless].tolist(),
                                                 c[rootless].tolist())]
        assert 150 < len(marked) < len(cells)
        for a, c, g in marked:
            minimum, maximum = force_extrema(c, g)
            nodes = np.array([0.0, minimum if minimum == minimum else 0.0,
                              maximum if maximum == maximum else PI, PI])
            for f in (_force(nodes, a, c, g), _force(fine, a, c, g)):
                assert np.all(np.abs(f) > ROOT_VALUE_TOL), (a, c, g)
                assert np.all(np.sign(f) == np.sign(f[0])), (a, c, g)
        # solve over the same cells, one at a time and in blocks per angle
        # (captured values)
        pinned = [solve(a, c, g) for a, c, g in cells]
        pinned += [solve(a, c, g) for g, a, c in _by_angle(cells)]
        digest = repr([(x.shape, x.tolist()) for x in pinned])
        assert hashlib.sha256(digest.encode()).hexdigest() == (
            "2d38c74e1f63ed2eb3f370a4860614a027e2aba96df4c8fdabda2e4123815c7d")

    def test_lone_cell_matches_its_block(self):
        # solve decides a lone cell on floats and a block on arrays: each
        # cell alone gives its block row bit for bit
        cells = _edge_cells(45)
        rng = np.random.default_rng(46)
        for g, a, c in _by_angle(cells):
            # 26 edge cells per capillary ratio, plus criterion-9 levels:
            # one column per capillary ratio, many cells each
            a = np.vstack([a.reshape(-1, 26).T,
                           rng.uniform(0.05, 15.0, (6, a.size // 26))])
            c = c.reshape(-1, 26)[:, 0]
            block = cell_roots(solve(a, c, g))
            alone = [[x for x in solve(x, y, g).tolist() if x == x]
                     for x, y in zip(a.ravel().tolist(),
                                     np.resize(c, a.size).tolist())]
            assert _bits(block) == _bits(alone)
            # one live cell in a block of rootless ones takes the lone
            # branches with its own column's row.  Row 20 of a column's
            # edge cells is A*(1 - 1e-4), two roots where there is a maximum
            for k in range(c.size):
                solo = np.full(c.size, 1e12)
                solo[k] = a[20, k]
                block = cell_roots(solve(solo, c, g))
                alone = [x for x in solve(solo[k], c[k], g).tolist() if x == x]
                assert _bits(block) == _bits(
                    [alone if j == k else [] for j in range(c.size)])


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


class TestScanRows:
    def test_scan_slack_bounds_the_expansion(self):
        # _rootless's margin holds only if the rows stay within the slack
        # of _force on the grid
        rng = np.random.default_rng(31)
        c = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 20_900))
        g = np.concatenate([rng.uniform(0.0, PI, 20_000),
                            np.repeat([0.0, PI / 2, PI], 300)])
        grid = equilibria._scan().grid
        worst = 0.0
        for c_i, g_i in zip(c.tolist(), g.tolist()):
            row, = _scan_rows(np.array([c_i]), g_i)
            gap = np.max(np.abs(row - _force(grid, 0.0, c_i, g_i)))
            worst = max(worst, gap / _bounds(c_i)[0])
        assert worst <= 1.0
        # a lone row is one vector product, a block's rows one matrix
        # product, which may sum in another order
        rng = np.random.default_rng(32)
        for g in [0.0, PI / 2, PI] + rng.uniform(0.0, PI, 18).tolist():
            c = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 1000))
            gap = np.abs(_scan_rows(c, g)
                         - _force(grid, 0.0, c[:, None], g)).max(axis=1)
            assert np.all(gap <= _bounds(c)[0]), g
