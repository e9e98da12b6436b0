import hashlib
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floatcyl import equilibria, regions
from floatcyl.equilibria import (NoSecondCriticalPointError, _bounds,
                                 critical_mass_ratio, find_equilibria,
                                 force_extrema, second_extremum_threshold,
                                 solve)
from floatcyl.intersection import _overhang, intersection_margin
from floatcyl.model import DimensionlessParams, _force, total_force
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
        # one batched extrema call gives critical_mass_ratio's bits
        curve = trace_tangency_curve(g, (0.0, 12.0), (0.0, 5.0), n=60)
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

    @pytest.mark.parametrize("c_window", [(0.0, 1e300), (0.0, math.inf),
                                          (0.0, math.nan), (math.nan, 5.0)])
    def test_trace_rejects_unusable_window(self, c_window):
        # checked once up front, as each critical_mass_ratio sample was:
        # no NumPy warning, no silently dropped samples
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="capillary_ratio"):
                trace_tangency_curve(2.0, (0.0, 12.0), c_window)

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

    def test_empty_for_low_contact_angles(self):
        curve = trace_intersection_curve(PI / 4, (0.0, 12.0), (0.0, 5.0))
        assert len(curve.points) == 0
        curve = trace_intersection_curve(3 * PI / 4, (0.0, 12.0), (0.0, 5.0))
        assert len(curve.points) > 0


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
    """rm's labels from solve's fully bisected roots and the margin."""
    g = rm.contact_angle
    roots = solve(rm.a_axis[:, None], rm.c_axis[None, :], g)
    n = (roots == roots).sum(axis=-1)
    n_valid = n.copy()
    c_axis = rm.c_axis.tolist()
    for i, j, k in zip(*(x.tolist() for x in np.nonzero(
            np.logical_or(*_overhang(roots, g))))):
        if intersection_margin(float(roots[i, j, k]), c_axis[j], g) <= 0.0:
            n_valid[i, j] -= 1
    return [[_LABEL_TABLE[pair] for pair in zip(*counts)]
            for counts in zip(n.tolist(), n_valid.tolist())]


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
        # margin changes sign: cells there fall back to one solve call
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
        # angles
        fallback = _count_fallback(monkeypatch)
        region_map(g, resolution=(200, 200), curve_samples=0)
        assert sum(fallback) == 0

    def test_fallback_takes_the_map_extrema(self, monkeypatch):
        # a window 2e-10 wide around A* at C = 1, 2e-12 wide in C, lies
        # within the B band of the maximum's value, so every cell goes
        # through the fallback, which finds no extremum of its own: the
        # map's one extremum bisection serves every column, every fallback
        # cell and the tangency curve
        fallback = _count_fallback(monkeypatch)
        calls = []
        extrema = equilibria._extrema

        def counted(*args):
            calls.append(args)
            return extrema(*args)

        for module in (regions, equilibria):
            monkeypatch.setattr(module, "_extrema", counted)
        tracemalloc.start()
        try:
            a_star = critical_mass_ratio(1.0, PI / 2)[0]
            rm = region_map(PI / 2, (a_star - 1e-10, a_star + 1e-10),
                            (1.0 - 1e-12, 1.0 + 1e-12))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(calls) == 1
        # the minima and maxima of the 200 columns, the 200 samples' maxima
        assert [c.size for c, _ in calls[0][1]] == [200, 200, 200]
        assert sum(fallback) == 200 * 200
        # the fallback solves its cells in chunks, each cell with an 8 kB
        # row: its memory stays bounded whatever the cell count, and its
        # labels are the bisected ones across the chunks
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
            a_axis, np.array([c]), g, force_extrema(np.array([c]), g))
        assert n[:, 0].tolist() == n_valid[:, 0].tolist() == [2, 2, 0, 0]
        assert [_LABEL_TABLE[k, k] for k in n[:, 0].tolist()] == [
            classify_point(params(a, c, g))[0] for a in a_axis.tolist()]

    def test_tiny_capillary_window_labels(self):
        # levels far below every band label as solve does
        for c_range in ((0.0, 1e-170), (0.0, 1e-5)):
            rm = region_map(1.0, c_range=c_range, resolution=(30, 20),
                            curve_samples=0)
            assert rm.labels.tolist() == bisected_labels(rm)


def _count_fallback(monkeypatch):
    """A list that receives the size of each fallback of region_map."""
    sizes = []
    count_cells = regions._count_cells

    def counted(a, c, g, extrema):
        sizes.append(a.size)
        return count_cells(a, c, g, extrema)

    monkeypatch.setattr(regions, "_count_cells", counted)
    return sizes


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
