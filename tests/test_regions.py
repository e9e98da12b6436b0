import hashlib
import json
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floatcyl import equilibria, regions
from floatcyl.equilibria import (PHI0_TOL, ROOT_VALUE_TOL,
                                 NoSecondCriticalPointError, _bounds,
                                 _extrema, _extremum_brackets,
                                 critical_mass_ratio, find_equilibria,
                                 force_extrema, second_extremum_threshold)
from floatcyl.intersection import _margin, _overhang, intersection_margin
from floatcyl.model import DimensionlessParams, _force, _slope, total_force
from floatcyl.regions import (_LABEL_TABLE, CurveKind, RegionLabel,
                              classify_point,
                              endpoint_boundary_c, endpoint_boundary_is_vertical,
                              intersection_curve_point, region_map,
                              region_map_csv, region_map_json,
                              tangency_boundary_c,
                              trace_endpoint_curve, trace_intersection_curve,
                              trace_tangency_curve, two_equilibrium_corner)

PI = math.pi


def params(a, c, g):
    return DimensionlessParams(a, c, g)


# region_map's labels and curve points, one SHA-256 per contact angle over
# three maps: the CLI default (200 x 200 with curves), 60 x 40, and 200 x 200
# without curves; pinned from maps made with one bisection per bracket,
# before the brackets shared one
_MAP_DIGESTS = [
    (0.0, "8465a0ae33bd653916576a8ae7a61cf547ab69fa50ac0f7ec90eed962853f2d9"),
    (0.01, "74bdf25a5ab793e4995585ced89eddfe38a1c01e12aefb1b2d64082d62d78543"),
    (0.05, "be38cfa2bdc80b3e2abe45a8b44a377b56bf173de785b3111dc69f3c108e4569"),
    (0.3, "a8e177d1a07c7d63566b50cc0cb5ec682996db002cf33cac768812fc974d824e"),
    (0.7, "42d9193342ab8d71f3281e0469c93bd22b3d32d6f79d72c36a24e31f2d93a4e4"),
    (1.2, "f6bd2181c83711a403a6e9c148ea27bb1793fd6f0ebd18fd9a28f843362e265e"),
    (PI / 2, "d71f0d310ba87009d0398f58b47de71cfd9c6862698a104fc4164098d723e21e"),
    (1.5707963, "72c9f2e636931a50bc31a62ccae26bb663a993a4368d1ab50a525c798ff4280f"),
    (2.0, "56c528159ec3d2cac36ff585fe540e77d949436a578808bbc20c2bb6d078203d"),
    (2.3, "caa00a005b65c965b7f032bad65e9a20c0b530f5bbfeee4f0dfe3e0fb77a49c1"),
    (2.8, "a57a727e220a8c452ba87ffa362cf824217c3da3826a701c353a29dd3726ba9f"),
    (3.0, "7fc4c62ee225654665242ecaf1c23ab296b2e756530ed39563a51e22ce67beb2"),
    (3.1, "2ce9911583479921fa63ffef7b411007aead2dd0c0ed43a12400f8b24ee5d048"),
    (PI, "2dee22176ea0f3f30f4d324afb3d13b7bed8edc82a875039160f0947fb948b59"),
]


def _map_digest(maps):
    h = hashlib.sha256()
    for rm in maps:
        h.update(" ".join(label.value for label in rm.labels.flat).encode())
        for curve in rm.curves:
            h.update(curve.kind.value.encode())
            h.update(curve.points.tobytes())
    return h.hexdigest()


class TestEndpointBoundary:
    def test_quarter_angle_formula(self):
        for a in (4.0, 5.0, 9.0):
            assert endpoint_boundary_c(PI / 4, a) == pytest.approx(
                math.sqrt(math.sqrt(2.0) / (a - PI)), rel=1e-14)

    def test_neutral_angle_point(self):
        c = endpoint_boundary_c(PI / 2, PI + 2.0)
        assert c == pytest.approx(1.0, rel=1e-12)
        assert total_force(PI, params(PI + 2.0, 1.0, PI / 2)) == pytest.approx(
            0.0, abs=1e-12)

    def test_undefined_below_pi(self):
        assert endpoint_boundary_c(PI / 4, PI) is None
        assert endpoint_boundary_c(PI / 4, 1.0) is None
        # a non-finite mass ratio is not a point of the plane
        for a in (math.nan, math.inf):
            with pytest.raises(ValueError, match="mass_ratio"):
                endpoint_boundary_c(1.0, a)

    def test_vertical_degeneration(self):
        assert endpoint_boundary_is_vertical(0.0)
        assert endpoint_boundary_is_vertical(PI)
        assert not endpoint_boundary_is_vertical(PI / 4)
        assert endpoint_boundary_c(0.0, 5.0) is None
        curve = trace_endpoint_curve(0.0, (0.0, 6.0), (0.0, 2.0), n=50)
        assert curve.analytic
        assert np.allclose(curve.points[:, 0], PI)

    def test_trace_points_on_zero_set(self):
        curve = trace_endpoint_curve(PI / 3, (0.0, 12.0), (0.0, 5.0), n=40)
        assert curve.kind is CurveKind.ENDPOINT
        for a, c in curve.points:
            assert abs(total_force(PI, params(a, c, PI / 3))) < 1e-10

    @pytest.mark.parametrize("g", [math.nextafter(PI, 0.0), 1e-300, 5e-324])
    def test_trace_where_the_lowest_mass_ratio_rounds_to_pi(self, g):
        # pi + 2 sin(gamma) / c_hi^2 rounds to pi: no sample may sit on the
        # pole of C(A) = sqrt(2 sin(gamma) / (A - pi))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = trace_endpoint_curve(g, (0.0, 12.0), (0.0, 5.0), n=50)
        a, c = curve.points.T
        assert len(a) == 50
        assert np.all(a > PI) and np.all(np.isfinite(c))
        assert np.all(c <= 5.0)

    def test_trace_keeps_its_samples_elsewhere(self):
        # a lower end above pi is kept, so the samples are the usual ones
        curve = trace_endpoint_curve(PI / 3, (0.0, 12.0), (0.0, 5.0), n=40)
        lo = PI + 2.0 * math.sin(PI / 3) / 25.0
        assert curve.points[:, 0].tolist() == np.linspace(lo, 12.0,
                                                          40).tolist()


class TestCorner:
    def test_printed_value(self):
        a0, c0 = two_equilibrium_corner(PI / 4)
        assert a0 == pytest.approx(PI + 4 * math.sqrt(2) / (2 + math.sqrt(2)),
                                   abs=1e-9)
        assert c0 == pytest.approx(math.sqrt(2 + math.sqrt(2)) / 2, abs=1e-9)
        # corner really is the meeting point: endpoint curve through it
        assert endpoint_boundary_c(PI / 4, a0) == pytest.approx(c0, rel=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            two_equilibrium_corner(PI / 2)

    @pytest.mark.parametrize("g", [1e-300, 1e-160, 5e-324])
    def test_tiny_angle(self, g):
        # C0^2 overflows, or C0 is inf: 2 sin(gamma) / C0^2 is far below
        # an ulp of pi
        assert two_equilibrium_corner(g)[0] == PI


class TestTangencyBoundary:
    def test_round_trip_neutral_angle(self):
        a_star, _ = critical_mass_ratio(1.0, PI / 2)
        assert tangency_boundary_c(PI / 2, a_star) == pytest.approx(1.0,
                                                                    abs=1e-9)

    def test_round_trip_high_contact_angle(self):
        assert tangency_boundary_c(3 * PI / 4, 4.5 + 3 * PI / 4) == \
            pytest.approx(1.0, abs=1e-9)

    def test_no_solution_cases(self):
        assert tangency_boundary_c(PI / 2, 2.0) is None  # below pi
        a0, _ = two_equilibrium_corner(PI / 4)
        assert tangency_boundary_c(PI / 4, a0 + 0.5) is None  # past the corner
        assert tangency_boundary_c(0.0, 5.0) is None
        # past the corner, where A0 rounds to pi (C0 is about 1e9)
        assert tangency_boundary_c(1e-9, 5.0) is None
        with pytest.raises(ValueError, match="mass_ratio"):
            tangency_boundary_c(1.0, math.nan)

    # A - pi from 1e-3 to 1e3, log-uniform, so C* spans about 0.04 to 250
    @settings(derandomize=True, max_examples=300, database=None,
              deadline=None)
    @given(g=st.one_of(st.sampled_from([0.0, PI / 2, PI, PI / 2 - 1e-9,
                                        PI / 2 + 1e-9]),
                       st.floats(0.0, PI)),
           log_excess=st.floats(math.log(1e-3), math.log(1e3)))
    def test_inverts_critical_mass_ratio_property(self, g, log_excess):
        a = PI + math.exp(log_excess)
        c = tangency_boundary_c(g, a)
        past_corner = g < PI / 2 and (
            g == 0.0 or a >= two_equilibrium_corner(g)[0])
        assert (c is None) == past_corner
        if c is not None:
            assert abs(critical_mass_ratio(c, g)[0] - a) <= 1e-12 * a

    @pytest.mark.parametrize("g,a,c_want", [
        # C* far above the 1e6 where a doubling search over C stopped
        (PI / 2, PI + 1e-9, 1.713e6),
        # just below the corner, where C* is just above the threshold C0
        (1.0, two_equilibrium_corner(1.0)[0] * (1.0 - 1e-9), None),
        # large A, small C*: a tolerance on C of 1e-12 would miss A by 1e-8
        (PI / 2, 1e10, math.sqrt(2e-10)),
    ])
    def test_edges(self, g, a, c_want):
        c = tangency_boundary_c(g, a)
        assert c is not None
        assert abs(critical_mass_ratio(c, g)[0] - a) <= 1e-12 * a
        if c_want is not None:
            assert c == pytest.approx(c_want, rel=1e-3)

    def test_force_is_quadratic_in_c(self):
        # the decomposition the inversion solves: F = p C^2 + q C + r
        rng = np.random.default_rng(20)
        for _ in range(500):
            x, g = rng.uniform(0.0, PI, 2).tolist()
            a = float(rng.uniform(0.0, 15.0))
            c = float(10.0 ** rng.uniform(-3.0, 3.0))
            p = x - math.sin(x) * math.cos(x) - a
            q = -4.0 * math.cos((x + g) / 2.0) * math.sin(x)
            r = -2.0 * math.sin(x + g)
            assert abs(p * c * c + q * c + r - _force(x, a, c, g)) <= \
                _bounds(c)[0]

    def test_count_changes_across_curve(self):
        a_star, _ = critical_mass_ratio(1.0, PI / 2)
        assert len(find_equilibria(params(a_star, 1.0 * (1 - 1e-3), PI / 2))) == 2
        assert len(find_equilibria(params(a_star, 1.0 * (1 + 1e-3), PI / 2))) == 0

    def test_trace_in_window(self):
        curve = trace_tangency_curve(PI / 2, (0.0, 12.0), (0.0, 5.0), n=40)
        assert len(curve.points) > 10
        for a, c in curve.points:
            a_star, _ = critical_mass_ratio(c, PI / 2)
            assert a == pytest.approx(a_star, rel=1e-10)

    @pytest.mark.parametrize("g", [0.3, 1.2, PI / 2, 2.3, PI])
    def test_trace_equals_critical_mass_ratio(self, g):
        # one batched extrema call gives critical_mass_ratio's bits, and
        # region_map's curve, whose samples share a call with its columns
        curve = trace_tangency_curve(g, (0.0, 12.0), (0.0, 5.0), n=60)
        rm = region_map(g, resolution=(20, 20), curve_samples=60)
        assert [c.points.tobytes() for c in rm.curves
                if c.kind is CurveKind.TANGENCY] == [curve.points.tobytes()]
        lo = max(0.0, second_extremum_threshold(g) * (1.0 + 1e-9), 1e-6)
        want = []
        for c in np.linspace(lo, 5.0, 60).tolist():
            try:
                a_star = critical_mass_ratio(c, g)[0]
            except NoSecondCriticalPointError:
                continue
            if 0.0 <= a_star <= 12.0:
                want.append([a_star, c])
        assert want
        assert curve.points.tolist() == want

    @pytest.mark.parametrize("c_window", [(0.0, 1e300), (0.0, 1e200),
                                          (0.0, math.inf), (0.0, math.nan),
                                          (math.nan, 5.0)])
    def test_trace_rejects_unusable_window(self, c_window):
        # checked once up front, as each critical_mass_ratio sample was:
        # no NumPy warning, no silently dropped samples; a finite C bound
        # too large gets critical_mass_ratio's message, which names no
        # mass ratio (one of 0.0 was once named)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="capillary_ratio") as got:
                trace_tangency_curve(2.0, (0.0, 12.0), c_window)
        if all(map(math.isfinite, c_window)):
            with pytest.raises(ValueError) as want:
                critical_mass_ratio(c_window[1], 2.0)
            assert str(got.value) == str(want.value)

    def test_inversion_equals_scipy_bisect(self):
        # tangency_boundary_c halves [lo, pi] from f(lo) > 0, f(pi) = -1
        # standing for the slope there: C+ of SciPy's bisect on the same
        # f, bit for bit, where the slope at pi is negative
        from scipy.optimize import bisect as scipy_bisect
        for g in np.linspace(0.0, PI, 41)[1:].tolist() + [PI / 2, 1e-9]:
            lo = max(_extremum_brackets(g)[1][0], PI - g)
            for a in np.geomspace(PI * (1.0 + 1e-14), 1e15, 60).tolist():
                def c_plus(x):
                    w = math.sqrt(a - x + 0.5 * math.sin(2.0 * x))
                    u = -4.0 * math.cos((x + g) / 2.0) * math.sin(x) / w
                    r = -2.0 * math.sin(x + g)
                    return (u + math.sqrt(max(u * u + 4.0 * r, 0.0))) / (
                        2.0 * w)

                def f(x):
                    return (_slope(x, c_plus(x), g) if x < PI
                            else -1.0)
                got = tangency_boundary_c(g, a)
                if not c_plus(PI) > second_extremum_threshold(g):
                    assert got is None
                    continue
                assert f(lo) > 0.0, (g, a)
                assert got == c_plus(scipy_bisect(f, lo, PI, xtol=1e-12))

    def test_large_mass_leading_order(self):
        # heavy cylinders: inverting the leading small-C behavior of the
        # critical mass gives C ~ sqrt(2/(A - 2 - pi))
        for a, tol in ((50.0, 0.01), (100.0, 0.005)):
            c = tangency_boundary_c(PI / 2, a)
            approx = math.sqrt(2.0 / (a - 2.0 - PI))
            assert abs(c - approx) / c < tol


class TestIntersectionCurve:
    def test_defining_equations(self):
        g = 3 * PI / 4
        lo = 3 * PI / 2 - g
        for t in np.linspace(0.05, 0.95, 15):
            phi02 = lo + t * (PI - lo)
            point = intersection_curve_point(phi02, g)
            if point is None:
                continue
            a, c = point
            assert abs(intersection_margin(phi02, c, g)) < 1e-10
            assert abs(total_force(phi02, params(a, c, g))) < 1e-10

    def test_separates_regions(self):
        g = 3 * PI / 4
        a, c = intersection_curve_point(3.0, g)
        lab_lo, _ = classify_point(params(a - 0.05, c, g))
        lab_hi, _ = classify_point(params(a + 0.05, c, g))
        assert lab_lo is RegionLabel.ONE_VALID_ONE_INVALID
        assert lab_hi is RegionLabel.TWO

    def test_same_construction_fully_nonwetting(self):
        # contact angle pi: same nested solve, wider overhang window
        a, c = intersection_curve_point(3.0, PI)
        assert abs(intersection_margin(3.0, c, PI)) < 1e-10
        assert abs(total_force(3.0, params(a, c, PI))) < 1e-10
        lab_lo, _ = classify_point(params(a - 0.05, c, PI))
        lab_hi, _ = classify_point(params(a + 0.05, c, PI))
        assert lab_lo is RegionLabel.ONE_VALID_ONE_INVALID
        assert lab_hi is RegionLabel.TWO

    def test_no_point_without_a_positive_capillary_ratio(self):
        # sin(phi0) <= 0 leaves the margin without its C term.  Where
        # phi0 + gamma is pi/2 or 3pi/2 the C-free offset is exactly 0, so
        # C would be 0: it rounds to 0.0 at (pi/2, pi), and within the
        # margin's rounding band elsewhere, where C of 1e-16 with A of
        # -1e31 (phi0 + gamma = pi/2), and C = 0.09 over sin(pi) = 1.2e-16
        # at (pi, pi/2), once came out
        for g in (0.0, 1.0, PI / 2, 2.3, PI):
            assert intersection_curve_point(0.0, g) is None
            assert intersection_curve_point(-0.0, g) is None
        assert intersection_margin(PI / 2, 1.0, PI) - 1.0 == 0.0
        assert intersection_curve_point(PI / 2, PI) is None
        assert intersection_curve_point(PI / 2, 0.0) is None
        assert intersection_curve_point(PI, PI / 2) is None
        for g in (0.1, 0.5, 1.0, 1.5):
            assert intersection_curve_point(PI / 2 - g, g) is None

    def test_trace_equals_its_points(self):
        # the tracer finds each sample's C on floats and F on arrays; its
        # points are intersection_curve_point's at the same samples,
        # clipped to the windows and sorted by C, bit for bit.  In a wide
        # window every sample is a point at gamma = 2.3 and 3.1, the
        # first at C of 2.8e-13 and 8.3e-13 and A of 2.5e25 and 2.9e24
        n, total = 200, 0
        wide = ((-1e30, 1e30), (0.0, 1e9))
        for g in (math.nextafter(PI / 2, 4.0), 1.7, 2.0, 2.3, 2.9, 3.1, PI):
            lo = 3.0 * PI / 2.0 - g
            points = [intersection_curve_point(lo + t * (PI - lo), g)
                      for t in np.linspace(1e-6, 1.0 - 1e-6, n).tolist()]
            windows = [((0.0, 12.0), (0.0, 5.0)), ((-1e3, 1e3), (0.0, 1e3)),
                       ((2.0, 6.0), (0.5, 1.5))]
            if g in (2.3, 3.1):
                windows.append(wide)
            for (a_lo, a_hi), (c_lo, c_hi) in windows:
                want = sorted((p for p in points if p is not None
                               and a_lo <= p[0] <= a_hi
                               and c_lo <= p[1] <= c_hi),
                              key=lambda p: p[1])
                got = trace_intersection_curve(g, (a_lo, a_hi), (c_lo, c_hi),
                                               n).points
                assert got.tobytes() == np.array(
                    want, dtype=float).reshape(-1, 2).tobytes()
                if (a_lo, a_hi) == wide[0]:
                    assert len(got) == n, g
                total += len(want)
        assert total > 1000

    def test_crossing_band_bounds_the_offset(self):
        # _crossing_c's proof: where |phi0 + gamma - pi| >= pi/4 the
        # computed offset lies within 13.3 eps of a 50-digit one, and
        # nearer pi it lies below -0.14; samples on the zero-offset
        # lines, random points and the tracer's first samples
        rng = np.random.default_rng(57)
        eps = 2.0 ** -52
        cases = [(x, g) for x, g in zip(rng.uniform(0.0, PI, 3000).tolist(),
                                        rng.uniform(0.0, PI, 3000).tolist())]
        for g in np.linspace(0.0, PI, 121).tolist():
            cases += [(x, g) for x in (PI / 2 - g, 3 * PI / 2 - g,
                                       3 * PI / 2 - g + 1e-6 * (g - PI / 2))
                      if 0.0 < x < PI]
        worst = 0.0
        with mpmath.workdps(50):
            k = mpmath.sqrt(2) + mpmath.log(mpmath.tan(mpmath.pi / 8))
            for x, g in cases:
                offset = _margin(x, 1.0, g, math) - math.sin(x)
                t = mpmath.mpf(x) + mpmath.mpf(g)
                if abs(t - mpmath.pi) < mpmath.pi / 4:
                    assert offset < -0.14, (x, g)
                    continue
                exact = (-k + 2 * mpmath.sin(t / 2)
                         + mpmath.log(abs(mpmath.tan((t - mpmath.pi) / 4))))
                worst = max(worst, abs(offset - float(exact)) / eps)
        assert 0.5 < worst <= 13.3

    def test_traced_curves_ascend_in_c(self):
        # _curve keeps its samples' order: C never falls along the
        # intersection curve, over 200 angles, or along the tangency
        # curve, whose samples are a linspace, over every tenth of them
        total = 0
        for k, g in enumerate(np.linspace(PI / 2, PI, 201)[1:].tolist()):
            traces = [trace_intersection_curve]
            if k % 10 == 0:
                traces.append(trace_tangency_curve)
            for a_window, c_window in (((0.0, 12.0), (0.0, 5.0)),
                                       ((-1e3, 1e3), (0.0, 1e3)),
                                       ((2.0, 6.0), (0.5, 1.5))):
                for trace in traces:
                    c = trace(g, a_window, c_window, 50).points[:, 1]
                    assert np.all(np.diff(c) >= 0.0), (g, trace)
                    total += c.size
        assert total > 10_000

    def test_empty_for_low_contact_angles(self):
        curve = trace_intersection_curve(PI / 4, (0.0, 12.0), (0.0, 5.0))
        assert len(curve.points) == 0
        curve = trace_intersection_curve(3 * PI / 4, (0.0, 12.0), (0.0, 5.0))
        assert len(curve.points) > 0


_TRACES = (trace_endpoint_curve, trace_tangency_curve,
           trace_intersection_curve)


class TestTraceWindows:
    """The three tracers check their windows alike, before any sample."""

    @pytest.mark.parametrize("a_window, c_window, name", [
        ((0.0, 12.0), (0.0, math.nan), "capillary_ratio"),
        ((0.0, math.nan), (0.0, 5.0), "mass_ratio"),
        ((math.nan, 12.0), (0.0, 5.0), "mass_ratio"),
        ((0.0, 12.0), (-1.0, 5.0), "capillary_ratio"),
        ((0.0, math.inf), (0.0, 5.0), "mass_ratio"),
        ((-math.inf, 12.0), (0.0, 5.0), "mass_ratio"),
        ((0.0, 12.0), (0.0, math.inf), "capillary_ratio"),
        ((0.0, 12.0), (math.inf, math.inf), "capillary_ratio")])
    @pytest.mark.parametrize("g", [0.0, 1.0, 2.0, PI])
    def test_unusable_window_raises(self, g, a_window, c_window, name):
        # each row once gave some tracer points: up to C = 6.4e7 for a NaN
        # C bound at gamma = 2, NaN points for a NaN A bound, points for C
        # from -1, which region_map rejects, and a NaN point with a NumPy
        # warning for an infinite A bound at gamma = 1 or C bound at
        # gamma = 0
        for trace in _TRACES:
            with pytest.raises(ValueError, match=f"^{name} window"):
                trace(g, a_window, c_window)

    @pytest.mark.parametrize("a_window, c_window", [
        ((0.0, 12.0), (5.0, 1.0)), ((12.0, 0.0), (0.0, 5.0)),
        ((0.0, 12.0), (0.0, 1e-13)), ((0.0, 12.0), (0.0, 1e-12)),
        ((0.0, 12.0), (5.0, 5.0)), ((PI, PI), (0.0, 5.0))])
    @pytest.mark.parametrize("g", [0.0, 1.0, 2.0, PI])
    def test_reversed_window_is_empty(self, g, a_window, c_window):
        # the vertical endpoint line once ran its samples down a reversed
        # C window, and from 1e-12 down to a C bound below it; at gamma
        # in {0, pi} it gave 200 copies of one point for a zero-width
        # window, or one that its floor C >= 1e-12 left zero-width, where
        # the other angles gave none
        for trace in _TRACES:
            assert trace(g, a_window, c_window).points.shape == (0, 2)

    @pytest.mark.parametrize("c_window, like", [
        ((0.0, 1e200), (0.0, 1e150)), ((1e-3, 1e200), (1e-3, 1e150)),
        ((1e200, 1e201), (1e150, 1e151)), ((1e150, 1e200), (1e150, 1e151))])
    @pytest.mark.parametrize("g", [0.0, 1.0, 2.0, PI])
    def test_capillary_bound_whose_square_overflows(self, g, c_window, like):
        # the endpoint curve's C ** 2 once raised OverflowError past
        # C = 1.3e154; such a bound stands for its limit, as
        # pi + s/C^2 rounds to pi from C = 1e8 on
        got = trace_endpoint_curve(g, (0.0, 12.0), c_window).points
        if g not in (0.0, PI):
            assert got.tolist() == trace_endpoint_curve(
                g, (0.0, 12.0), like).points.tolist()
        assert np.all(np.isfinite(got))
        assert (len(got) > 0) == (c_window[0] < 1.0 or g in (0.0, PI))

    def test_mass_ratio_bounds_may_be_negative(self):
        for trace in _TRACES:
            got = trace(2.0, (-1e3, 1e3), (0.0, 5.0)).points
            assert len(got) > 0 and np.all(got[:, 0] >= -1e3)


class TestRegionMap:
    def test_fully_wetting_split(self):
        rm = region_map(0.0, a_range=(0.0, 6.0), c_range=(0.0, 2.0),
                        resolution=(24, 6))
        for i, a in enumerate(rm.a_axis):
            for j in range(len(rm.c_axis)):
                expected = RegionLabel.ONE if a < PI else RegionLabel.ZERO
                assert rm.labels[i, j] is expected

    def test_light_strip_always_one(self):
        rng = np.random.default_rng(41)
        for g in (PI / 4, PI / 2, 2.5):
            for _ in range(20):
                p = params(rng.uniform(0.05, PI - 1e-6), rng.uniform(0.05, 5.0), g)
                label, _ = classify_point(p)
                assert label is RegionLabel.ONE

    def test_no_invalid_region_low_contact_angle(self):
        # zoomed on the (thin) two-equilibrium band between the endpoint and
        # tangency curves
        rm = region_map(PI / 4, a_range=(3.0, 5.0), c_range=(0.5, 3.0),
                        resolution=(20, 20))
        found = {rm.labels[i, j] for i in range(20) for j in range(20)}
        assert RegionLabel.ONE_VALID_ONE_INVALID not in found
        assert {RegionLabel.ZERO, RegionLabel.ONE, RegionLabel.TWO} <= found

    def test_all_labels_high_contact_angle(self):
        rm = region_map(3 * PI / 4, resolution=(30, 30))
        found = {rm.labels[i, j] for i in range(30) for j in range(30)}
        assert found == {RegionLabel.ZERO, RegionLabel.ONE, RegionLabel.TWO,
                         RegionLabel.ONE_VALID_ONE_INVALID}

    @pytest.mark.parametrize("g,digest", _MAP_DIGESTS,
                             ids=[repr(g) for g, _ in _MAP_DIGESTS])
    def test_pinned_bytes(self, g, digest):
        # the columns' extrema and the tangency samples' maxima share one
        # bisection, and the labels one table lookup: the same bytes
        assert _map_digest([region_map(g), region_map(g, resolution=(60, 40)),
                            region_map(g, curve_samples=0)]) == digest

    def test_two_configuration_cell(self):
        label, details = classify_point(params(3.8, 2.0, PI / 2))
        assert label is RegionLabel.TWO
        assert len(details) == 2

    def test_count_changes_by_one_across_endpoint_curve(self):
        c = 1.0
        boundary = PI + 2.0 / c ** 2  # neutral contact angle
        below = len(find_equilibria(params(boundary - 0.01, c, PI / 2)))
        above = len(find_equilibria(params(boundary + 0.01, c, PI / 2)))
        assert (below, above) == (1, 2)

    def test_refinement_stability(self):
        window = dict(a_range=(3.0, 7.0), c_range=(0.5, 2.0))
        coarse = region_map(PI / 2, resolution=(12, 12), **window)
        fine = region_map(PI / 2, resolution=(24, 24), **window)
        # coarse point (i, j) coincides with fine point (2i+1, 2j+1)
        for i in range(1, 11):
            for j in range(1, 11):
                patch = {coarse.labels[i + di, j + dj]
                         for di in (-1, 0, 1) for dj in (-1, 0, 1)}
                if len(patch) > 1:
                    continue  # coarse cell touches a region boundary
                fi, fj = 2 * i + 1, 2 * j + 1
                for di in (-1, 0, 1):
                    for dj in (-1, 0, 1):
                        assert fine.labels[fi + di, fj + dj] is coarse.labels[i, j]

    def test_axis_conventions(self):
        rm = region_map(PI / 2, a_range=(0.0, 4.0), c_range=(0.0, 2.0),
                        resolution=(4, 5))
        assert rm.labels.shape == (4, 5)
        assert rm.a_axis[0] > 0.0 and rm.c_axis[0] > 0.0
        assert rm.a_axis[-1] == 4.0 and rm.c_axis[-1] == 2.0
        assert np.all(np.diff(rm.a_axis) > 0)
        with pytest.raises(ValueError):
            region_map(PI / 2, resolution=(1, 5))
        # a negative sample count is named, not left to NumPy
        with pytest.raises(ValueError, match="^curve_samples must be non-neg"):
            region_map(PI / 2, resolution=(2, 2), curve_samples=-1)
        for trace in (trace_endpoint_curve, trace_tangency_curve,
                      trace_intersection_curve):
            with pytest.raises(ValueError, match="^n must be non-negative"):
                trace(2.3, (0.0, 12.0), (0.0, 5.0), n=-1)

    @pytest.mark.parametrize("g", [0.0, 0.4, PI / 2, 2.3, PI])
    def test_every_cell_matches_classify_point(self, g):
        # the block solver labels each cell as the one-cell path does
        rm = region_map(g, resolution=(23, 17))
        for i, a in enumerate(rm.a_axis.tolist()):
            for j, c in enumerate(rm.c_axis.tolist()):
                assert rm.labels[i, j] is classify_point(params(a, c, g))[0]

    def test_unclassifiable_cell_raises(self, monkeypatch):
        # a cell with three roots raises, naming its own parameters
        def three_roots(a_axis, cs, g, extrema):
            three = np.full((a_axis.size, cs.size), 3)
            return three, three

        monkeypatch.setattr(regions, "_count_block", three_roots)
        with pytest.raises(ValueError, match=(
                r"unclassifiable equilibrium structure at DimensionlessParams"
                r"\(mass_ratio=3\.0, capillary_ratio=1\.25, .*\): "
                r"3 equilibria")):
            region_map(1.0, resolution=(4, 4))

    def test_self_consistency_sampled(self):
        rm = region_map(3 * PI / 4, resolution=(8, 8))
        for i in (0, 3, 7):
            for j in (1, 4, 6):
                label, _ = classify_point(
                    params(float(rm.a_axis[i]), float(rm.c_axis[j]), 3 * PI / 4))
                assert rm.labels[i, j] is label


def bisected_labels(rm):
    """rm's labels from _cell_roots' fully bisected roots and the margin.

    Each cell takes its column's extrema, from one _extrema call per
    bracket: the bits _cell_roots finds per cell with its float extrema."""
    g = rm.contact_angle
    columns = list(zip(rm.c_axis.tolist(), zip(*(
        _extrema(g, rm.c_axis, b).tolist() for b in _extremum_brackets(g)))))
    labels = []
    for a in rm.a_axis.tolist():
        row = []
        for c, extrema in columns:
            roots = equilibria._cell_roots(a, c, g, extrema)
            invalid = sum(intersection_margin(r, c, g) <= 0.0
                          for r in roots if any(_overhang(r, g)))
            row.append(_LABEL_TABLE[len(roots), len(roots) - invalid])
        labels.append(row)
    return labels


class TestSettledLabels:
    """Labels read from the breakpoints, with the fallback's for the cells
    they leave open, equal the fully bisected ones."""

    @pytest.mark.parametrize("g", [0.0, 0.05, 0.7, PI / 2, 2.3, 3.0, PI])
    def test_default_grid(self, g):
        rm = region_map(g, resolution=(200, 200), curve_samples=0)
        assert rm.labels.tolist() == bisected_labels(rm)

    def test_windows_where_lanes_stay_unsettled(self, monkeypatch):
        # close to the tangency curve the two roots pair up, near the
        # corner the root count changes, near the intersection curve the
        # margin changes sign: cells there fall back to _cell_roots
        fallback = _count_fallback(monkeypatch)
        a_star = critical_mass_ratio(1.0, PI / 2)[0]
        a_0, c_0 = two_equilibrium_corner(PI / 4)
        a_i, c_i = intersection_curve_point(3.0, 3 * PI / 4)
        for g, (a, da), (c, dc) in [
                (PI / 2, (a_star, 1e-3), (1.0, 1e-3)),
                (2.3, (critical_mass_ratio(2.0, 2.3)[0], 1e-6), (2.0, 1e-6)),
                (PI / 4, (a_0, 0.05), (c_0, 0.05)),
                (3 * PI / 4, (a_i, 1e-4), (c_i, 1e-4))]:
            rm = region_map(g, (a - da, a + da), (c - dc, c + dc), (60, 60),
                            curve_samples=0)
            assert len({label for row in rm.labels for label in row}) > 1
            assert rm.labels.tolist() == bisected_labels(rm)
        assert sum(fallback) > 0

    @pytest.mark.parametrize("g", [0.0, 0.05, 0.7, PI / 2, 2.3, 3.0, PI])
    def test_few_cells_fall_back(self, g, monkeypatch):
        # the breakpoints settle every cell of the default grid at these
        # angles, so the map bisects its columns' maxima and no minimum
        fallback = _count_fallback(monkeypatch)
        calls = _count_extrema(monkeypatch)
        region_map(g, resolution=(200, 200), curve_samples=0)
        assert sum(fallback) == 0
        high = _extremum_brackets(g)[1]
        assert [(c.size, bracket) for _, c, bracket in calls] == [
            (200, high)]

    def test_fallback_takes_the_map_extrema(self, monkeypatch):
        # a window 2e-10 wide around A* at C = 1, 2e-12 wide in C, lies
        # within the B band of the maximum's value, so every cell goes
        # through the fallback, which finds no extremum of its own: the
        # map's maximum bisection serves every column, every fallback
        # cell and the tangency curve, and one more bisects the minima of
        # the fallback's columns
        fallback = _count_fallback(monkeypatch)
        calls = _count_extrema(monkeypatch)
        tracemalloc.start()
        try:
            a_star = critical_mass_ratio(1.0, PI / 2)[0]
            rm = region_map(PI / 2, (a_star - 1e-10, a_star + 1e-10),
                            (1.0 - 1e-12, 1.0 + 1e-12))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        low, high = _extremum_brackets(PI / 2)
        # the maxima of the 200 columns and of the 200 samples, then the
        # minima of the 200 columns, each one fallback column
        assert [(c.size, bracket) for _, c, bracket in calls] == [
            (400, high), (200, low)]
        assert calls[1][1].tolist() == rm.c_axis.tolist()
        assert sum(fallback) == 200 * 200
        # the fallback holds one cell's roots at a time: its memory stays
        # bounded whatever the cell count, and its labels are the bisected
        # ones
        assert peak < 20e6
        assert rm.labels.tolist() == bisected_labels(rm)

    @settings(derandomize=True, max_examples=30, database=None,
              deadline=None)
    @given(g=st.one_of(st.sampled_from([0.0, PI / 2, PI]),
                       st.floats(0.0, PI)))
    def test_labels_property(self, g):
        rm = region_map(g, resolution=(40, 40), curve_samples=0)
        assert rm.labels.tolist() == bisected_labels(rm)

    @settings(derandomize=True, max_examples=60, database=None,
              deadline=None)
    @given(where=st.sampled_from(["tangency", "corner", "intersection",
                                  "endpoint"]),
           u=st.floats(0.0, 1.0), t=st.floats(0.0, 1.0),
           log_zoom=st.floats(math.log(1e-6), math.log(0.1)))
    def test_labels_property_near_curves(self, where, u, t, log_zoom):
        # a small window centred on a point of one boundary curve
        g, (a, c) = _on_curve(where, u, t)
        zoom = math.exp(log_zoom)
        rm = region_map(g, (a * (1 - zoom), a * (1 + zoom)),
                        (c * (1 - zoom), c * (1 + zoom)), (30, 30),
                        curve_samples=0)
        assert rm.labels.tolist() == bisected_labels(rm)


class TestBreakpoints:
    """Labels read from each column's breakpoints equal the bisected ones."""

    @pytest.mark.parametrize("g", [0.0, 0.7, PI / 2, 2.3, PI, 1e-9,
                                   PI / 2 - 1e-9, PI / 2 + 1e-9, PI - 1e-9])
    @pytest.mark.parametrize("a_range, c_range, resolution", [
        ((0.0, 12.0), (0.0, 5.0), (200, 50)),
        # levels A C^2 that underflow
        ((0.0, 12.0), (0.0, 1e-170), (50, 10)),
        ((0.0, 12.0), (0.0, 1e-5), (50, 20)),
        ((0.0, 30.0), (1.0, 1e3), (120, 40)),
        ((3.0, 3.1), (0.0, 0.1), (40, 20)),
        ((3.0, 3.000001), (1.0, 1.000001), (60, 30)),
        # axes one ulp wide, or subnormal
        ((1.0, 1.0000000000000002), (0.0, 5.0), (3, 20)),
        ((0.0, 1e-323), (0.0, 5.0), (3, 20))])
    def test_labels_equal_bisected(self, g, a_range, c_range, resolution):
        rm = region_map(g, a_range, c_range, resolution, curve_samples=0)
        assert rm.labels.tolist() == bisected_labels(rm)

    @pytest.mark.parametrize("g", [0.7, PI / 2, 2.3])
    def test_levels_beside_the_maximum_settle(self, g):
        # a level more than the band B from the maximum's value is read
        # from the breakpoints, however near: the two roots beside the
        # maximum lie more than _DEDUP_TOL apart
        c = 2.0
        a_star = critical_mass_ratio(c, g)[0]
        a_axis = a_star + np.array([-1e-2, -1e-6, 1e-6, 1e-2])
        n, n_valid = regions._count_block(
            a_axis, np.array([c]), g, np.array([force_extrema(c, g)[1]]))
        assert n.dtype == n_valid.dtype == np.int8
        assert n[:, 0].tolist() == n_valid[:, 0].tolist() == [2, 2, 0, 0]
        assert [_LABEL_TABLE[k, k] for k in n[:, 0].tolist()] == [
            classify_point(params(a, c, g))[0] for a in a_axis.tolist()]

    @pytest.mark.parametrize("g", [PI / 2 + 1e-9, PI / 2 + 1e-3,
                                   PI / 2 + 0.1])
    @pytest.mark.parametrize("width", [0.5, 1e-3, 1e-9])
    def test_labels_where_the_minimum_appears(self, g, width):
        # the minimum's bracket opens where F'(0) = -2 cos(gamma)
        # - 4 C cos(gamma/2) turns negative: columns on both sides of that
        # C, A across the endpoint curve there; no label reads a minimum
        c_open = -math.cos(g) / (2.0 * math.cos(g / 2.0))
        a_end = PI + 2.0 * math.sin(g) / c_open ** 2
        rm = region_map(g, (0.0, 2.0 * a_end),
                        (c_open * (1.0 - width), c_open * (1.0 + width)),
                        (40, 40), curve_samples=0)
        minimum = _extrema(g, rm.c_axis, _extremum_brackets(g)[0])
        assert 0 < np.isnan(minimum).sum() < minimum.size
        assert len({label for row in rm.labels for label in row}) > 1
        assert rm.labels.tolist() == bisected_labels(rm)

    @pytest.mark.parametrize("g", [0.0, PI])
    @pytest.mark.parametrize("a_range, c_range", [
        # levels that underflow to 0
        ((0.0, 12.0), (0.0, 1e-170)),
        # levels below ROOT_VALUE_TOL, with F(pi) above it: at gamma = 0
        # the fallback's cell has a node root at 0 and, past the minimum
        # the map did not bisect, a root to bisect
        ((0.0, 0.1), (0.0, 1e-4))])
    def test_levels_at_the_force_at_zero_fall_back(self, g, a_range, c_range,
                                                    monkeypatch):
        # F0(0) = -2 sin(gamma) lies within the band B of every level, so
        # no count is read from the segment [0, maximum]: every cell goes
        # to the fallback
        fallback = _count_fallback(monkeypatch)
        rm = region_map(g, a_range, c_range, (50, 10), curve_samples=0)
        assert sum(fallback) == 50 * 10
        assert rm.labels.tolist() == bisected_labels(rm)

    @pytest.mark.parametrize("g", [0.0, 0.7, PI / 2 - 1e-9, PI / 2])
    def test_no_margin_bisection_at_low_angles(self, g, monkeypatch):
        # no equilibrium self-intersects at gamma <= pi/2 (intersection's
        # proof): the three node breakpoints decide every label, with the
        # fallback's for the cells near one, as at tiny C
        def unused(*args):
            raise AssertionError("margin bisected at gamma <= pi/2")

        for name in ("_intersecting_parts", "_margin", "bisect"):
            monkeypatch.setattr(regions, name, unused)
        for c_range in ((0.0, 5.0), (0.0, 1e-5), (0.0, 1e-170)):
            rm = region_map(g, c_range=c_range, resolution=(60, 20))
            assert rm.labels.tolist() == bisected_labels(rm)
        with pytest.raises(AssertionError, match="margin bisected"):
            region_map(math.nextafter(PI / 2, 4.0), resolution=(2, 2),
                       curve_samples=0)

    @pytest.mark.parametrize("g", [1.6, 2.3, 3.0, PI])
    def test_no_margin_bisection_on_the_default_window(self, g, monkeypatch):
        # above pi/2 Newton's ends of the intersecting parts pass their
        # certificate in every column of the default window, so no lane
        # falls back to the margin's bisection
        def unused(*args):
            raise AssertionError("margin bisected")

        monkeypatch.setattr(regions, "bisect", unused)
        region_map(g)
        rm = region_map(g, resolution=(50, 40), curve_samples=0)
        assert rm.labels.tolist() == bisected_labels(rm)

    def test_tiny_capillary_window_labels(self):
        # levels far below every band label as _cell_roots does
        for c_range in ((0.0, 1e-170), (0.0, 1e-5)):
            rm = region_map(1.0, c_range=c_range, resolution=(30, 20),
                            curve_samples=0)
            assert rm.labels.tolist() == bisected_labels(rm)


def _clip_and_compare(a_axis, cs, g, maximum):
    """_count_block's counts from F0 at every node and at every end z
    clipped to each segment, each compared with every level, and a band
    test per breakpoint: the reference the one pair of grid comparisons
    per breakpoint must equal, -1 marks included."""
    nodes = np.stack([np.zeros(cs.size), np.where(
        maximum == maximum, maximum, PI), np.full(cs.size, PI)])
    f_nodes = _force(nodes, 0.0, cs, g)
    level = a_axis[:, None] * cs
    level *= cs
    above = [f > level for f in f_nodes]
    brackets = [above[k] != above[k + 1] for k in range(2)]
    n = np.add(*brackets, dtype=np.int8)
    n_valid, breakpoints = n.copy(), list(f_nodes)
    unsettled = np.zeros(level.shape, dtype=bool)
    if g > PI / 2.0:
        z = regions._intersecting_parts(cs, g)
        breakpoints += list(_force(z, 0.0, cs, g))
        # a segment's share of a part [z, pi] runs from z, clipped to the
        # segment, to the segment's upper node
        f_z = _force(np.stack([np.clip(z, nodes[k], nodes[k + 1])
                               for k in range(2)]), 0.0, cs, g)
        for bracket, upper, ends in zip(brackets, above[1:], f_z):
            inner, outer = ((f > level) != upper for f in ends)
            n_valid -= bracket & inner
            unsettled |= bracket & outer & ~inner
    s, S, _ = _bounds(cs)
    B = ROOT_VALUE_TOL + 4.0 * s + 3.0 * PHI0_TOL * S
    for f in breakpoints:
        unsettled |= (f - B <= level) & (level <= f + B)
    for counts in (n, n_valid):
        np.putmask(counts, unsettled, -1)
    return n, n_valid


def _axes(a_range, c_range, resolution):
    """region_map's axes over a window."""
    return tuple(np.linspace(lo, hi, k + 1)[1:]
                 for (lo, hi), k in zip((a_range, c_range), resolution))


def _maxima(g, cs):
    """The force maxima of the columns cs."""
    return _extrema(g, cs, _extremum_brackets(g)[1])


def _unsettled_cells(g, a_range, c_range, resolution=(200, 200),
                     maximum=None):
    """Asserts _count_block's counts equal _clip_and_compare's over the
    window, with ``maximum`` as the columns' force maxima (their own by
    default); returns the number of cells marked -1."""
    a_axis, cs = _axes(a_range, c_range, resolution)
    if maximum is None:
        maximum = _maxima(g, cs)
    want = _clip_and_compare(a_axis, cs, g, maximum)
    got = regions._count_block(a_axis, cs, g, maximum)
    for w, x in zip(want, got):
        assert x.dtype == np.int8
        assert np.array_equal(x, w)
    return int((want[0] < 0).sum())


class TestOnePairPerBreakpoint:
    """_count_block compares each breakpoint with the grid once for the
    side and once for the band, and equals the clip-and-compare counts."""

    GAMMAS = [0.0, 1e-12, 0.05, 0.7, PI / 2 - 1e-9, PI / 2, PI / 2 + 1e-9,
              2.3, 3.0, PI - 1e-9, PI]
    SEEDED = np.random.default_rng(40).uniform(0.0, PI, 24).tolist()

    @pytest.mark.parametrize("g", GAMMAS + SEEDED)
    def test_default_window(self, g):
        _unsettled_cells(g, (0.0, 12.0), (0.0, 5.0))

    @pytest.mark.parametrize("g", GAMMAS)
    def test_extreme_windows(self, g):
        for a_range, c_range, resolution in [
                # levels that underflow
                ((0.0, 1e-300), (0.0, 5.0), (40, 30)),
                ((0.0, 12.0), (0.0, 1e-150), (40, 30)),
                ((0.0, 12.0), (0.0, 1e-5), (40, 30)),
                # large C, and axes of different lengths
                ((0.0, 30.0), (0.0, 1e3), (60, 90)),
                ((0.0, 1e3), (0.0, 1e6), (90, 60)),
                ((0.0, 12.0), (0.0, 5.0), (37, 211)),
                ((3.0, 3.1), (0.0, 0.1), (211, 37))]:
            _unsettled_cells(g, a_range, c_range, resolution)

    @pytest.mark.parametrize("g", [0.7, PI / 2, 2.3, 3.0])
    def test_tangency_zooms(self, g):
        # relative and absolute zooms onto (A*(2), 2): the maximum's band
        # holds a cell or two at h = 1e-4 and every cell at 1e-12
        a, c = critical_mass_ratio(2.0, g)[0], 2.0
        counts = []
        for h in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
            for (a_lo, a_hi), (c_lo, c_hi) in [
                    ((a * (1 - h), a * (1 + h)), (c * (1 - h), c * (1 + h))),
                    ((a - h, a + h), (c - h, c + h))]:
                counts.append(_unsettled_cells(
                    g, (a_lo, a_hi), (c_lo, c_hi), (80, 80)))
        assert 0 < min(counts[:2]) and counts[-2:] == [80 * 80] * 2

    @pytest.mark.parametrize("g", [PI / 2 + 1e-3, 1.9, 2.3, 3.0, PI - 1e-9])
    def test_intersection_zooms(self, g):
        lo = 1.5 * PI - g
        unsettled = 0
        for t in (0.2, 0.5, 0.8):
            a, c = intersection_curve_point(lo + t * (PI - lo), g)
            for h in (1e-3, 1e-6, 1e-9):
                unsettled += _unsettled_cells(
                    g, (a * (1 - h), a * (1 + h)), (c * (1 - h), c * (1 + h)),
                    (60, 60))
        assert unsettled > 0

    @pytest.mark.parametrize("g", [1.65, 1.9, 2.3, 2.8, PI])
    def test_ends_before_the_maximum(self, g, monkeypatch):
        # an end z of the parts falls before its column's maximum only at
        # C below about 1e-10, where both tend to 3pi/2 - gamma and no
        # level lies between F0 at the two; synthetic ends on [pi/2, pi]
        # fall there, where F0 rises, at any C, and synthetic maxima, NaN
        # ones among them, move the node
        rng = np.random.default_rng(41)
        parts = regions._intersecting_parts
        resolution, real_before, before = (80, 60), [], 0
        for c_range in ((0.0, 5.0), (0.0, 1e-3), (0.0, 100.0), (0.0, 1e-12)):
            cs = _axes((0.0, 12.0), c_range, resolution)[1]
            real, z = _maxima(g, cs), parts(cs, g)
            real_before.append(int((z < real).any(axis=0).sum()))
            drawn = -np.sort(-rng.uniform(PI / 2, PI, z.shape), axis=0)
            for ends in (z, drawn):
                monkeypatch.setattr(regions, "_intersecting_parts",
                                    lambda cs, g, ends=ends: ends)
                for maximum in (real, np.full(real.size, PI - 1e-3),
                                rng.uniform(PI / 2, PI, real.size),
                                np.where(rng.random(real.size) < 0.3,
                                         math.nan, real)):
                    _unsettled_cells(g, (0.0, 12.0), c_range, resolution,
                                     maximum)
                    node = np.where(maximum == maximum, maximum, PI)
                    before += int((ends < node).any(axis=0).sum())
        assert real_before[:3] == [0, 0, 0] and real_before[3] > 0
        assert before > 0

    @pytest.mark.parametrize("g", [0.0, PI])
    def test_band_of_the_force_at_zero(self, g):
        # F0(0) = -2 sin(gamma) lies within B of the tiny levels, so the
        # grid comparison behind the columns' least-level test runs
        assert _unsettled_cells(g, (0.0, 1e-300), (0.0, 5.0),
                                (30, 20)) == 30 * 20


class TestIntersectingParts:
    """Each end z of _intersecting_parts has, within LB of it, a point at
    or below it where NumPy's m = margin - shift is >= 0 and one at or
    above it where m <= 0: all that _count_block's Parts bullet needs."""

    LB = equilibria.PHI0_TOL + 4.0 * np.finfo(float).eps * PI

    @pytest.mark.parametrize("g", [PI / 2 + 1e-9, PI / 2 + 1e-3, 1.6, 2.3,
                                   3.0, PI - 1e-9, PI])
    @pytest.mark.parametrize("window", [(0.0, 5.0), (0.0, 1e-3),
                                        (1e-9, 1e-5), (0.0, 1e3),
                                        (0.0, 1e6)])
    def test_ends_are_certified(self, g, window, monkeypatch):
        lanes = []
        bisect = regions.bisect

        def counted(f, lo, hi, f_lo):
            lanes.append(f_lo.size)
            return bisect(f, lo, hi, f_lo)

        monkeypatch.setattr(regions, "bisect", counted)
        c_lo, c_hi = window
        # region_map's axis over (0, hi], the closed window as it is
        cs = (np.linspace(c_lo, c_hi, 201)[1:] if c_lo == 0.0
              else np.linspace(c_lo, c_hi, 200))
        z = regions._intersecting_parts(cs, g).ravel()
        lo = 1.5 * PI - g
        c = np.concatenate([cs, cs])
        shift = regions._MARGIN_BAND * (4.0 + c) * np.repeat(
            [-1.0, 1.0], cs.size)

        def m(x, k=slice(None)):
            return _margin(x, c[k], g, np) - shift[k]

        m_lo, m_pi = m(lo), m(PI)
        bracketed = (m_lo > 0.0) & (m_pi < 0.0)
        other = ~bracketed
        assert z[other].tolist() == np.where(
            m_lo <= 0.0, lo, PI)[other].tolist()
        # Newton's lanes are certified at z -+ LB/2; the others are
        # bisect's, which is _halve's bit for bit, and its last points on
        # either side of z lie within LB of it
        certified = (m(z - self.LB / 2) >= 0.0) & (m(z + self.LB / 2) <= 0.0)
        for k in np.flatnonzero(bracketed & ~certified).tolist():
            seen = [(lo, m_lo[k]), (PI, m_pi[k])]

            def f(x):
                seen.append((x, float(m(np.array([x]), [k])[0])))
                return seen[-1][1]

            assert z[k] == equilibria._halve(f, lo, PI, m_lo[k])
            assert any(z[k] - self.LB <= x <= z[k] and v >= 0.0
                       for x, v in seen)
            assert any(z[k] <= x <= z[k] + self.LB and v <= 0.0
                       for x, v in seen)
        assert sum(lanes) >= (bracketed & ~certified).sum()
        if window == (1e-9, 1e-5) and g > PI / 2 + 1e-9:
            # m's rounding over its slope is wider than LB/2 at tiny C
            # (at pi/2 + 1e-9 no lane is bracketed)
            assert sum(lanes) > 0
        elif window[1] >= 5.0:
            assert sum(lanes) == 0

    @pytest.mark.parametrize("g", [PI / 2 + 1e-3, 1.6, 2.3, 3.0, PI])
    def test_few_newton_steps(self, g, monkeypatch):
        # Newton starts at or below z, from the larger of the chord's zero
        # and the zero of m's quadratic at lo, and a lane whose slope bound
        # E moves m over LB by less than its rounding goes to bisect before
        # any Newton step: no window runs more than 4 steps (one _margin
        # call each, after the two at lo and pi and before the
        # certificate's), and at C <= 1e-9 none runs at all
        calls, at_bisect = [], []
        margin, bisect = regions._margin, regions.bisect

        def counted(*args):
            calls.append(1)
            return margin(*args)

        def first(f, lo, hi, f_lo):
            at_bisect.append(len(calls))
            return bisect(f, lo, hi, f_lo)

        monkeypatch.setattr(regions, "_margin", counted)
        monkeypatch.setattr(regions, "bisect", first)
        for c_lo, c_hi in ((0.0, 5.0), (0.0, 1e-3), (1e-9, 1e-5),
                           (0.0, 1e6), (1e-12, 1e-9)):
            del calls[:], at_bisect[:]
            regions._intersecting_parts(
                np.linspace(c_lo, c_hi, 201)[1:] if c_lo == 0.0
                else np.linspace(c_lo, c_hi, 200), g)
            steps = (at_bisect or [len(calls)])[0] - 3
            assert 0 <= steps <= (0 if c_hi <= 1e-9 else 4)


def _count_fallback(monkeypatch):
    """A list that receives the size of each fallback of region_map."""
    sizes = []
    count_cells = regions._count_cells

    def counted(a, c, g, extrema):
        sizes.append(a.size)
        return count_cells(a, c, g, extrema)

    monkeypatch.setattr(regions, "_count_cells", counted)
    return sizes


def _count_extrema(monkeypatch):
    """A list that receives the arguments of each _extrema call."""
    calls = []
    extrema = equilibria._extrema

    def counted(*args):
        calls.append(args)
        return extrema(*args)

    for module in (regions, equilibria):
        monkeypatch.setattr(module, "_extrema", counted)
    return calls


def _on_curve(where, u, t):
    """A contact angle, from u, and a point (A, C) on the named curve there."""
    if where == "tangency":
        g = 0.3 + u * (PI - 0.3)
        c = max(second_extremum_threshold(g), 0.05) * (1.01 + 4.0 * t)
        return g, (critical_mass_ratio(c, g)[0], c)
    if where == "corner":
        g = 0.05 + u * (PI / 2 - 0.1)
        return g, two_equilibrium_corner(g)
    if where == "intersection":
        g = PI / 2 + 0.1 + u * (PI / 2 - 0.1)
        lo = 1.5 * PI - g
        return g, intersection_curve_point(lo + (0.5 + 0.45 * t) * (PI - lo), g)
    g, c = u * PI, 0.05 + 5.0 * t
    return g, (PI + 2.0 * math.sin(g) / (c * c), c)


class TestEmitters:
    def test_csv_shape(self):
        rm = region_map(PI / 2, a_range=(0.0, 4.0), c_range=(0.0, 2.0),
                        resolution=(3, 4))
        text = region_map_csv(rm)
        lines = text.strip().split("\n")
        assert lines[0] == "mass_ratio,capillary_ratio,label"
        assert len(lines) == 1 + 3 * 4
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(rm.a_axis[0])
        assert first[2] in {l.value for l in RegionLabel}

    def test_json_schema(self):
        rm = region_map(PI / 2, a_range=(0.0, 4.0), c_range=(0.0, 2.0),
                        resolution=(3, 4))
        payload = region_map_json(rm)
        blob = json.dumps(payload)  # must be serializable
        assert payload["schema"] == 1
        assert len(payload["labels"]) == 3
        assert len(payload["labels"][0]) == 4
        assert {c["kind"] for c in payload["curves"]} <= {
            "endpoint", "tangency", "intersection"}
        assert "points" in payload["curves"][0]
        assert isinstance(json.loads(blob), dict)
