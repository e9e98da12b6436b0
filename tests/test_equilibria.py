import hashlib
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import bisect as scipy_bisect

from floatcyl import equilibria
from floatcyl.equilibria import (_SCAN_GRID, _SCAN_SLACK, ROOT_VALUE_TOL,
                                 ExtremumKind, ModelInconsistencyWarning,
                                 NoSecondCriticalPointError, Stability,
                                 UnsupportedRegimeError, _bracket, _crossings,
                                 _force_maximum, _node_forces, _rootless,
                                 _scan_rows,
                                 asymptotic_critical_mass, bisect,
                                 critical_mass_ratio, critical_points,
                                 find_equilibria, force_extrema,
                                 second_extremum_threshold, solve)
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

    @pytest.mark.parametrize("c,g", [
        (1.7735822913560129, 0.5),
        (math.nextafter(999999.9999995417, math.inf), 1e-6)])
    def test_within_rounding_of_the_threshold(self, c, g):
        # above the threshold, but the slope at pi rounds to zero or above:
        # the message says so instead of quoting a threshold below C
        threshold = second_extremum_threshold(g)
        assert c > threshold
        with pytest.raises(NoSecondCriticalPointError, match=re.escape(
                f"capillary_ratio={c!r}: C is within rounding of the "
                f"threshold C = {threshold!r}")):
            critical_mass_ratio(c, g)

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
        # the same lanes with a bracket each take the per-lane path
        assert bisect(lambda x: x - r, np.zeros(r.size),
                      np.full(r.size, 4.0)).tolist() == want

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


class TestNodeForces:
    """_bracket's node forces from per-column terms equal _force's bits."""

    @pytest.mark.parametrize("g", [0.0, PI / 2, PI])
    def test_equal_force_on_seeded_blocks(self, g):
        rng = np.random.default_rng(16)
        caps = np.geomspace(1e-3, 1e3, 40)
        minimum, maximum = force_extrema(caps, g)
        extrema = np.column_stack([
            np.zeros(caps.size), np.where(minimum == minimum, minimum, 0.0),
            np.where(maximum == maximum, maximum, PI), np.full(caps.size, PI)])
        for col_nodes in (extrema, rng.uniform(0.0, PI, (caps.size, 4))):
            col = rng.integers(caps.size, size=600)
            a = rng.uniform(0.05, 15.0, col.size)
            c = caps[col]
            got = _node_forces(a, c, col, col_nodes, caps, g)
            want = _force(col_nodes[col], a[:, None], c[:, None], g)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("g", [0.0, PI / 2, PI])
    def test_block_brackets(self, g):
        # the block's node roots and brackets, from _force per cell
        a_axis = np.linspace(0.0, 12.0, 61)[1:]
        caps = np.geomspace(1e-3, 1e3, 30)
        block = _bracket(a_axis[:, None], caps[None, :], g)
        f = _force(block.nodes, block.a[:, None], block.c[:, None], g)
        on_node = np.abs(f) <= ROOT_VALUE_TOL
        assert np.array_equal(block.bracket,
                              (f[:, :-1] * f[:, 1:] < 0.0)
                              & ~on_node[:, :-1] & ~on_node[:, 1:])
        n_nodes = block.nodes.shape[1]
        assert np.array_equal(block.found[:, :n_nodes],
                              np.where(on_node, block.nodes, np.nan),
                              equal_nan=True)
        assert block.bracket.any()


class TestCrossings:
    """A cell alone in its column counts its crossings with no sort, as the
    sorted bounds of a shared column count them."""

    def test_lone_and_shared_columns_agree(self):
        rng = np.random.default_rng(17)
        for g in (0.0, 0.3, PI / 2, 2.3, PI):
            # more lone cells than one chunk, levels inside each row's
            # range, some on a row value exactly
            caps = rng.uniform(0.05, 6.0, 300)
            rows = _scan_rows(caps, g)
            level = (rows.min(axis=1)
                     + rng.uniform(0.0, 1.0, caps.size) * np.ptp(rows, axis=1))
            level[::7] = rows[::7, 500]
            slack = _SCAN_SLACK * (1.0 + caps) ** 2
            below, above = level - slack, level + slack
            lone = _crossings(rows, np.arange(caps.size), below, above)
            shared = _crossings(rows, np.repeat(np.arange(caps.size), 2),
                                np.repeat(below, 2), np.repeat(above, 2))
            brute = ((np.minimum(rows[:, :-1], rows[:, 1:]) < above[:, None])
                     & (below[:, None] < np.maximum(rows[:, :-1], rows[:, 1:]))
                     ).sum(axis=1)
            assert lone.tolist() == brute.tolist()
            assert shared[::2].tolist() == shared[1::2].tolist() == brute.tolist()
            assert (brute > 0).all() and (brute > 1).any()


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

    def test_guard_root_joins_on_node_zeros(self):
        # zeros on the nodes at 0 and a guard root in one row: one root at
        # 0, the guard's, one warning, no padding column (captured values)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            roots = solve(0.0, 1.0, 0.0, critical=[])
        assert roots.shape == (2,)
        assert roots.tolist() == [0.0, 2.282271149032337]
        assert [(w.category, str(w.message)) for w in caught] == [(
            ModelInconsistencyWarning,
            "dense scan found a root at phi0=2.28227114903 outside the "
            "monotone-segment structure (A=0.0, C=1.0, gamma=0.0); the force "
            "curve shape assumption is violated here")]

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
            column = solve(np.array([0.0, a]), c, g, critical=[])
        assert column.shape == (2, 1)
        assert column.tolist() == [[2.0703197066879953], [PI]]

    def test_block_at_extreme_capillary_ratios(self):
        # C from 1e-3 to 1e3, where the guard's slack is widest (about
        # 1.4e-8 at C = 1e3).  Each column's mass ratios straddle its
        # root-count changes, near the endpoint line pi + 2 sin(gamma)/C^2
        # and the tangency A* (the line stands in for A* at gamma = 0,
        # where there is none).  Arrays, shapes and warning texts are
        # pinned (captured values).
        c = np.array([1e-3, 1e-2, 30.0, 1e3])
        near = np.array([0.5, 0.9, 0.95, 0.99, 0.999, 1.0 - 1e-9, 1.0,
                         1.0 + 1e-9, 1.001])
        pinned = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for g in (0.0, PI / 2, 2.6, PI):
                a_end = PI + 2.0 * math.sin(g) / c ** 2
                a_star = np.array([critical_mass_ratio(x, g)[0] if g else a
                                   for x, a in zip(c.tolist(), a_end)])
                a = np.concatenate([near[:, None] * a_end,
                                    near[:, None] * a_star, [2.0 * a_star]])
                block = solve(a, c, g, critical=[])
                pinned.append((block.shape, block.tolist()))
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", ModelInconsistencyWarning)
                    assert cell_roots(block) == [
                        [eq.phi0 for eq in find_equilibria(
                            params(x, y, g), critical=[])]
                        for x, y in zip(a.ravel().tolist(),
                                        np.resize(c, a.size).tolist())]
        texts = [str(w.message) for w in caught
                 if w.category is ModelInconsistencyWarning]
        assert len(texts) == len(caught) == 89
        assert [shape for shape, _ in pinned] == [
            (19, 4, 1), (19, 4, 2), (19, 4, 2), (19, 4, 2)]
        assert hashlib.sha256(repr((pinned, texts)).encode()).hexdigest() == (
            "e7950b736082f669dc6d55e4621340edb8c8926b79efc88542d5219bd9b1c817")

    def test_rootless_cells_keep_one_sign(self):
        # the cells solve answers from the guard's rows alone must have F of
        # one sign, |F| > ROOT_VALUE_TOL, at their nodes and between them
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
        # solve over the same cells, one at a time and in blocks per angle,
        # with warning texts in order (captured values)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pinned = [solve(a, c, g) for a, c, g in cells]
            pinned += [solve(a, c, g, critical) for g, a, c in _by_angle(cells)
                       for critical in (None, [])]
        texts = [str(w.message) for w in caught]
        digest = repr(([(x.shape, x.tolist()) for x in pinned], texts))
        assert len(texts) == 308
        assert hashlib.sha256(digest.encode()).hexdigest() == (
            "5319d1a6217c7fef64c398db90e456e131dd52bb2779bc2358eb9268ffd1c731")

    def test_guard_rescans_no_sound_cell(self, monkeypatch):
        # an over-counting guard changes no output, only the time it takes:
        # no cell whose segments found every root may rescan its grid,
        # alone or in a block, not even where root windows overlap.  (A
        # level within the slack of a row value, as on the endpoint line
        # at gamma = 0 and C ~ 500, rescans rightly: the count cannot tell.)
        force = equilibria._force
        rescans = []

        def counting(phi, *args):
            if phi is _SCAN_GRID:
                rescans.append(args)
            return force(phi, *args)

        rng = np.random.default_rng(43)
        cells = []
        for g in [0.0, PI / 2, PI] + rng.uniform(0.0, PI, 5).tolist():
            cells += [(rng.uniform(0.05, 15.0), rng.uniform(0.05, 6.0), g)
                      for _ in range(60)]
            for c in rng.uniform(0.05, 6.0, 6).tolist():
                # a root on a grid point, one next to each end node, and
                # near the tangency a pair within a grid step of each other
                for j in (int(rng.integers(2, 998)), 1, 998):
                    cells.append((force(float(_SCAN_GRID[j]), 0.0, c, g)
                                  / c ** 2, c, g))
                if c > second_extremum_threshold(g):
                    a_star = critical_mass_ratio(c, g)[0]
                    cells += [(a_star * (1.0 - eps), c, g)
                              for eps in (1e-4, 1e-6, 1e-9)]
        monkeypatch.setattr(equilibria, "_force", counting)
        lone = [find_equilibria(params(a, c, g, exploratory=True))
                for a, c, g in cells]
        for g, a, c in _by_angle(cells):
            solve(a, c, g)
        assert rescans == []
        assert sum(len(roots) for roots in lone) > 500
        assert sum(len(roots) == 2 for roots in lone) > 150

    def test_lone_cell_matches_its_block(self):
        # solve decides a lone cell on floats and a block on arrays: each
        # cell alone gives its block row bit for bit, with the same
        # warnings in the same order, with and without the extrema
        cells = _edge_cells(45)
        rng = np.random.default_rng(46)
        for g, a, c in _by_angle(cells):
            # 26 edge cells per capillary ratio, plus criterion-9 levels:
            # one column per capillary ratio, many cells each
            a = np.vstack([a.reshape(-1, 26).T,
                           rng.uniform(0.05, 15.0, (6, a.size // 26))])
            c = c.reshape(-1, 26)[:, 0]
            for critical in (None, []):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    block = cell_roots(solve(a, c, g, critical))
                    alone = [[x for x in solve(x, y, g, critical).tolist()
                              if x == x]
                             for x, y in zip(a.ravel().tolist(),
                                             np.resize(c, a.size).tolist())]
                texts = [str(w.message) for w in caught]
                n = len(texts) // 2
                assert texts[:n] == texts[n:]
                assert _bits(block) == _bits(alone)
                if critical == []:
                    assert n > 0
                # one live cell in a block of rootless ones takes the lone
                # branches with its own column's row.  Row 20 of a column's
                # edge cells is A*(1 - 1e-4): two roots that only the guard
                # finds without the extrema
                for k in range(c.size):
                    solo = np.full(c.size, 1e12)
                    solo[k] = a[20, k]
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        block = cell_roots(solve(solo, c, g, critical))
                        alone = [x for x in solve(solo[k], c[k], g,
                                                  critical).tolist() if x == x]
                    texts = [str(w.message) for w in caught]
                    n = len(texts) // 2
                    assert texts[:n] == texts[n:]
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


class TestScanGuard:
    def test_scan_slack_bounds_the_expansion(self):
        # the widened count never falls below _force's crossings only if
        # the guard's rows stay within the slack of _force on the grid
        rng = np.random.default_rng(31)
        c = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 20_900))
        g = np.concatenate([rng.uniform(0.0, PI, 20_000),
                            np.repeat([0.0, PI / 2, PI], 300)])
        worst = 0.0
        for c_i, g_i in zip(c.tolist(), g.tolist()):
            row, = _scan_rows(np.array([c_i]), g_i)
            gap = np.max(np.abs(row - _force(_SCAN_GRID, 0.0, c_i, g_i)))
            worst = max(worst, gap / (_SCAN_SLACK * (1.0 + c_i) ** 2))
        assert worst <= 1.0
        # a lone row is one vector product, a block's rows one matrix
        # product, which may sum in another order
        rng = np.random.default_rng(32)
        for g in [0.0, PI / 2, PI] + rng.uniform(0.0, PI, 18).tolist():
            c = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 1000))
            gap = np.abs(_scan_rows(c, g)
                         - _force(_SCAN_GRID, 0.0, c[:, None], g)).max(axis=1)
            assert np.all(gap <= _SCAN_SLACK * (1.0 + c) ** 2), g
