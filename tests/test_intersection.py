import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from floatcyl.equilibria import Stability, find_equilibria
from floatcyl.intersection import (FlatInterfaceError, Regime, _margin,
                                   _overhang, intersection_margin, validity)
from floatcyl.model import DimensionlessParams
from floatcyl.regions import _MARGIN_BAND

PI = math.pi


def params(a=1.0, c=1.0, g=PI / 2, exploratory=False):
    return DimensionlessParams(a, c, g, exploratory=exploratory)


class TestMargin:
    def test_negative_near_zero_angles(self):
        # tiny wetting and contact angles: the interface folds back over the
        # centerline
        assert intersection_margin(1e-6, 1.0, 0.0) < 0.0
        assert intersection_margin(0.0, 1.0, 0.0) == pytest.approx(
            -math.sqrt(2) - math.log(math.tan(PI / 8)), rel=1e-12)

    def test_flat_interface_raises(self):
        with pytest.raises(FlatInterfaceError):
            intersection_margin(PI / 2, 1.0, PI / 2)
        with pytest.raises(FlatInterfaceError):
            intersection_margin(1.0, 2.0, PI - 1.0)

    def test_boundary_tie_at_neutral_angle(self):
        # phi0 = pi with contact angle pi/2 sits exactly on the margin zero
        assert intersection_margin(PI, 2.3, PI / 2) == pytest.approx(0.0,
                                                                     abs=1e-12)

    def test_fully_wetted_nonwetting_witness(self):
        assert intersection_margin(PI, 1.0, PI) == pytest.approx(-0.5328399754,
                                                                 abs=1e-9)

    def test_known_positive_case(self):
        assert intersection_margin(0.1, 5.0, PI / 4) == pytest.approx(
            0.3651761480, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError, match="capillary_ratio"):
            intersection_margin(0.3, -1.0, 0.2)

    # region_map reads a root's margin sign off the ends of its bracket:
    # that needs the margin monotone in each overhang regime, and its math
    # and NumPy evaluations within half the band of each other
    @settings(derandomize=True, max_examples=200, database=None,
              deadline=None)
    @given(log_c=st.floats(math.log(1e-3), math.log(1e3)),
           u=st.floats(0.0, 1.0),
           at=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
           positive=st.booleans())
    def test_monotone_in_each_regime(self, log_c, u, at, positive):
        c = math.exp(log_c)
        if positive:  # non-increasing on [3pi/2 - gamma, pi]
            g = PI / 2 + u * (PI / 2)
            lo, hi = 3.0 * PI / 2.0 - g, PI
        else:  # non-decreasing on [0, pi/2 - gamma]
            g = u * (PI / 2)
            lo, hi = 0.0, PI / 2.0 - g
        x1, x2 = sorted(min(hi, lo + t * (hi - lo)) for t in at)
        assert all(_overhang(x, g)[positive] for x in (x1, x2))
        m1, m2 = (intersection_margin(x, c, g) for x in (x1, x2))
        band = _MARGIN_BAND * (4.0 + c)
        if positive:
            assert m2 <= m1 + band
        else:
            assert m2 >= m1 - band
        by_numpy = _margin(np.array([x1, x2]), c, g, np).tolist()
        assert abs(by_numpy[0] - m1) <= band / 2
        assert abs(by_numpy[1] - m2) <= band / 2


class TestValidity:
    def test_regime_membership(self):
        # raised-meniscus overhang: low contact angle, low wetting angle
        rep = validity(0.1, params(c=5.0, g=PI / 4))
        assert rep.regime is Regime.PSI_NEGATIVE
        assert rep.margin == pytest.approx(0.3651761480, abs=1e-9)
        assert not rep.intersecting
        # outside: wetting angle past the overhang window
        rep = validity(0.5, params(c=5.0, g=3 * PI / 4))
        assert rep.regime is Regime.NOT_APPLICABLE
        assert rep.margin is None
        assert not rep.intersecting
        # depressed-meniscus overhang
        rep = validity(3.0, params(c=1.0, g=3 * PI / 4))
        assert rep.regime is Regime.PSI_POSITIVE

    def test_intersecting_configuration(self):
        rep = validity(0.1, params(c=0.5, g=0.2))
        assert rep.regime is Regime.PSI_NEGATIVE
        assert rep.intersecting
        assert rep.margin < 0.0

    def test_boundary_tie_semantics(self):
        # phi0 = pi at neutral contact angle sits exactly on the margin zero;
        # at double precision the computed margin is a few ulp either side,
        # and the verdict must follow the (margin <= 0) rule exactly
        rep = validity(PI, params(a=2.0 + PI, c=1.0, g=PI / 2))
        assert rep.regime is Regime.PSI_POSITIVE
        assert abs(rep.margin) < 1e-12
        assert rep.intersecting == (rep.margin <= 0.0)

    def test_neutral_angle_interior_never_in_regime(self):
        # at contact angle pi/2 the overhang windows shrink to the endpoints,
        # so no interior wetting angle can ever be flagged
        for phi0 in np.linspace(1e-6, PI - 1e-6, 50):
            rep = validity(float(phi0), params(c=1.0, g=PI / 2))
            assert rep.regime is Regime.NOT_APPLICABLE
            assert not rep.intersecting

    def test_phi0_range_check(self):
        with pytest.raises(ValueError, match="phi0"):
            validity(-0.5, params())


class TestValiditySweeps:
    def test_low_contact_angles_never_intersect(self):
        rng = np.random.default_rng(31)
        checked = 0
        for _ in range(3000):
            p = params(rng.uniform(0.05, 15.0), rng.uniform(0.05, 6.0),
                       rng.uniform(0.0, PI / 2))
            for eq in find_equilibria(p):
                assert not validity(eq.phi0, p).intersecting
                checked += 1
        assert checked > 500

    def test_high_contact_angles_stable_never_intersects(self):
        rng = np.random.default_rng(32)
        witnesses = 0
        for _ in range(3000):
            p = params(rng.uniform(0.05, 15.0), rng.uniform(0.05, 6.0),
                       rng.uniform(PI / 2, PI))
            for eq in find_equilibria(p):
                rep = validity(eq.phi0, p)
                if eq.stability is Stability.STABLE:
                    assert not rep.intersecting
                elif rep.intersecting:
                    witnesses += 1
        # the deterministic witness: fully nonwetting at neutral buoyancy
        p = params(a=PI, c=1.0, g=PI)
        eqs = find_equilibria(p)
        assert len(eqs) == 2
        assert eqs[1].phi0 == pytest.approx(PI, abs=1e-9)
        assert eqs[1].stability is Stability.UNSTABLE
        assert validity(eqs[1].phi0, p).intersecting
        assert not validity(eqs[0].phi0, p).intersecting

    # the paper's headline claim: at most two equilibria, the smaller
    # stable, and only the larger can self-intersect
    @settings(derandomize=True, max_examples=400, database=None,
              deadline=None)
    @given(a=st.floats(0.05, 15.0),
           log_c=st.floats(math.log(1e-2), math.log(1e2)),
           g=st.one_of(st.sampled_from([0.0, PI / 2, PI]),
                       st.floats(0.0, PI)))
    @example(a=1.0, log_c=0.0, g=0.0)
    @example(a=3.8, log_c=math.log(2.0), g=PI / 2)
    @example(a=PI, log_c=0.0, g=PI)
    def test_headline_claim_property(self, a, log_c, g):
        p = params(a, math.exp(log_c), g)
        eqs = find_equilibria(p)
        assert len(eqs) <= 2
        if len(eqs) == 2:
            assert eqs[0].stability is not Stability.UNSTABLE
            assert eqs[1].stability is not Stability.STABLE
        for eq in eqs:
            if eq.stability is Stability.STABLE:
                assert not validity(eq.phi0, p).intersecting

    def test_margin_decreasing_in_wetting_angle(self):
        # within the depressed-overhang window the margin falls monotonically
        for g in np.linspace(PI / 2 + 1e-3, PI, 25):
            lo = 3 * PI / 2 - g
            grid = lo + (PI - 1e-9 - lo) * np.linspace(1e-6, 1.0, 400)
            for c in (0.3, 1.0, 3.0):
                vals = [intersection_margin(float(x), c, float(g)) for x in grid]
                assert np.all(np.diff(vals) < 0.0)


class TestMinimalMassQuadratics:
    """Reconstruction of the capillary ratio from the zero-mass force balance
    (low contact angles) and from the extremum condition (high), then the
    margin sign on the reconstructed states."""

    def test_low_contact_angle_reconstruction(self):
        worst = np.inf
        for g in np.linspace(0.0, PI / 2, 200, endpoint=False):
            hi = PI / 2 - g
            if hi <= 1e-6:
                continue
            for phi in np.linspace(1e-4, hi, 200):
                w = phi - 0.5 * math.sin(2 * phi)
                p = -4.0 * math.cos((phi + g) / 2) * math.sin(phi)
                q = -2.0 * math.sin(phi + g)
                assert w > 0.0 and q < 0.0
                c = (-p + math.sqrt(p * p - 4 * w * q)) / (2 * w)
                resid = abs(w * c * c + p * c + q)
                scale = max(1.0, w * c * c, abs(p) * c, abs(q))
                assert resid <= 1e-10 * scale
                worst = min(worst, intersection_margin(phi, c, g))
        assert worst > 0.0

    def test_high_contact_angle_reconstruction(self):
        worst = np.inf
        for g in np.linspace(PI / 2 + 1e-4, PI, 200):
            lo = 3 * PI / 2 - g
            for t in np.linspace(1e-3, 1 - 1e-3, 200):
                phi = lo + t * (PI - lo)
                w = 1.0 - math.cos(2 * phi)
                p = (2.0 * math.sin((phi + g) / 2) * math.sin(phi)
                     - 4.0 * math.cos((phi + g) / 2) * math.cos(phi))
                q = -2.0 * math.cos(phi + g)
                assert w > 0.0 and q < 0.0
                c = (-p + math.sqrt(p * p - 4 * w * q)) / (2 * w)
                resid = abs(w * c * c + p * c + q)
                scale = max(1.0, w * c * c, abs(p) * c, abs(q))
                assert resid <= 1e-10 * scale
                worst = min(worst, intersection_margin(phi, c, g))
        assert worst > 0.0
