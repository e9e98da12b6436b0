import hashlib
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import bisect as scipy_bisect

from floatcyl.equilibria import (ExtremumKind, ModelInconsistencyWarning,
                                 NoSecondCriticalPointError, Stability,
                                 UnsupportedRegimeError,
                                 asymptotic_critical_mass, bisect,
                                 critical_mass_ratio, critical_points,
                                 find_equilibria, second_extremum_threshold,
                                 solve)
from floatcyl.model import DimensionlessParams, _force, _slope, total_force

PI = math.pi


def params(a=1.0, c=1.0, g=PI / 2, exploratory=False):
    return DimensionlessParams(a, c, g, exploratory=exploratory)


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
        c0 = second_extremum_threshold(PI / 4)
        assert c0 == pytest.approx(math.cos(PI / 4) / (2 * math.sin(PI / 8)),
                                   rel=1e-14)
        # just below: no maximum; just above: maximum appears
        assert len(critical_points(params(c=c0 * 0.999, g=PI / 4))) == 1
        assert len(critical_points(params(c=c0 * 1.001, g=PI / 4))) == 2


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
        # independent root finder: fine sign scan plus bisection refinement
        from scipy.optimize import bisect
        rng = np.random.default_rng(23)
        grid = np.linspace(0.0, PI, 10_000)
        for _ in range(500):
            p = params(rng.uniform(0.1, 12.0), rng.uniform(0.1, 5.0),
                       rng.uniform(0.0, PI))
            vals = total_force(grid, p)
            brackets = np.nonzero(vals[:-1] * vals[1:] < 0.0)[0]
            scan_roots = [bisect(lambda x: float(total_force(x, p)),
                                 grid[i], grid[i + 1], xtol=1e-10)
                          for i in brackets]
            eqs = find_equilibria(p)
            assert len(eqs) == len(scan_roots)
            for eq, r in zip(eqs, scan_roots):
                assert abs(eq.phi0 - r) < 1e-6

    def test_scan_guard_recovers_missing_brackets(self):
        # deliberately degraded segment structure: the dense-scan fallback
        # must still find both roots and flag the inconsistency
        import warnings

        from floatcyl.equilibria import ModelInconsistencyWarning

        p = params(a=3.8, c=2.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            eqs = find_equilibria(p, critical=[])
        assert len(eqs) == 2
        assert eqs[0].phi0 == pytest.approx(2.3915, abs=1e-3)
        assert any(issubclass(w.category, ModelInconsistencyWarning)
                   for w in caught)

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
        with pytest.raises(ValueError, match="capillary_ratio"):
            asymptotic_critical_mass(-1.0, PI / 2, "small")


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


def cell_roots(padded):
    """solve's NaN-padded roots as one list per cell, in C order."""
    return [[x for x in row if x == x]
            for row in padded.reshape(-1, padded.shape[-1]).tolist()]


class TestSolve:
    def test_column_matches_find_equilibria(self):
        # one call over many mass ratios gives each cell's roots bit for bit
        a = np.linspace(0.0, 12.0, 121)[1:]
        for c, g in ((2.0, PI / 2), (0.7, 0.4), (3.1, 2.6), (1.3, PI)):
            column = cell_roots(solve(a, c, g))
            assert column == [[eq.phi0 for eq in find_equilibria(params(x, c, g))]
                              for x in a.tolist()]

    def test_block_without_extrema_matches_find_equilibria(self):
        # critical=[] leaves one segment [0, pi]: the guard must recover
        # every missed root, in a block as in a single cell
        a = np.concatenate([np.linspace(0.5, 12.0, 24), [3.7, 3.8, 3.9]])
        c = np.array([0.7, 2.0, 3.1])
        for g in (PI / 2, 2.6):
            with pytest.warns(ModelInconsistencyWarning):
                block = cell_roots(solve(a[:, None], c[None, :], g,
                                         critical=[]))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ModelInconsistencyWarning)
                want = [[eq.phi0 for eq in find_equilibria(
                    params(x, y, g), critical=[])]
                    for x in a.tolist() for y in c.tolist()]
            assert block == want
            assert max(len(roots) for roots in want) == 2
