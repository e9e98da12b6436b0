import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floatcyl.equilibria import _bounds
from floatcyl.model import (DimensionlessParams, EnergyBreakdown,
                            PhysicalParams, _force, _height, _slope,
                            _slope_curv, center_height, center_height_slope,
                            force_curvature, force_slope,
                            inclination_at_contact, interface_profile,
                            to_dimensionless, total_energy, total_force)

PI = math.pi


def params(a=1.0, c=1.0, g=PI / 2, exploratory=False):
    return DimensionlessParams(mass_ratio=a, capillary_ratio=c,
                               contact_angle=g, exploratory=exploratory)


class TestParams:
    def test_conversion_reference_case(self):
        # m = 1.2, rho = 1, sigma = 72, g = 980, a = 1/sqrt(pi)  (CGS)
        phys = PhysicalParams(mass_per_length=1.2, density_diff=1.0,
                              surface_tension=72.0, gravity=980.0,
                              radius=1.0 / math.sqrt(PI), contact_angle=PI / 2)
        dim = to_dimensionless(phys)
        assert dim.mass_ratio == pytest.approx(1.2 * PI, rel=1e-12)
        assert dim.capillary_ratio == pytest.approx(2.0814781355115666, rel=1e-10)
        assert dim.capillary_ratio == pytest.approx(math.sqrt(980.0 / (72.0 * PI)),
                                                    rel=1e-12)
        assert dim.contact_angle == PI / 2

    def test_conversion_unit_case(self):
        phys = PhysicalParams(mass_per_length=PI, density_diff=1.0,
                              surface_tension=1.0, gravity=1.0, radius=1.0,
                              contact_angle=0.3)
        dim = to_dimensionless(phys)
        assert dim.mass_ratio == pytest.approx(PI, rel=1e-14)
        assert dim.capillary_ratio == pytest.approx(1.0, rel=1e-14)
        assert dim.bond_number == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("field,value", [
        ("mass_per_length", 0.0),
        ("density_diff", -1.0),
        ("surface_tension", 0.0),
        ("gravity", 0.0),
        ("radius", -0.5),
        ("mass_per_length", math.inf),
        ("density_diff", math.nan),
        ("surface_tension", math.inf),
        ("gravity", math.nan),
        ("radius", math.inf),
        ("contact_angle", math.nan),
    ])
    def test_conversion_rejects_nonpositive(self, field, value):
        kwargs = dict(mass_per_length=1.0, density_diff=1.0,
                      surface_tension=1.0, gravity=1.0, radius=1.0,
                      contact_angle=1.0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            PhysicalParams(**kwargs)

    def test_dimensionless_validation(self):
        with pytest.raises(ValueError, match="capillary_ratio"):
            params(c=0.0)
        with pytest.raises(ValueError, match="contact_angle"):
            params(g=PI + 0.1)
        with pytest.raises(ValueError, match="mass_ratio"):
            params(a=-1.0)
        assert params(a=-1.0, exploratory=True).mass_ratio == -1.0
        # non-finite input, and force scales whose square overflows
        for c in (math.inf, math.nan, 1e300):
            with pytest.raises(ValueError, match="capillary_ratio"):
                params(c=c)
        with pytest.raises(ValueError, match="contact_angle"):
            params(g=math.nan)
        for a in (math.inf, -math.inf, math.nan, 1e300):
            with pytest.raises(ValueError, match="mass_ratio"):
                params(a=a, exploratory=True)
        assert params(a=1e100, c=1e-30).mass_ratio == 1e100

    def test_angles_constraint(self):
        assert inclination_at_contact(0.7, 1.1) == pytest.approx(
            0.7 + 1.1 - PI, abs=0.0)


class TestHeight:
    def test_fully_wetted_perfectly_nonwetting(self):
        for c in (0.5, 1.0, 3.0):
            assert center_height(PI, params(c=c, g=PI)) == pytest.approx(
                -1.0 - 2.0 / c, rel=1e-14)

    def test_symmetric_neutral_case(self):
        assert center_height(PI / 2, params(c=1.3)) == pytest.approx(0.0, abs=1e-15)

    def test_dual_formula(self):
        # same height through the contact-inclination route, built from
        # dimensional inputs
        rho, g, sigma = 1.0, 980.0, 72.0
        kappa = rho * g / sigma
        c = 2.0
        a = c / math.sqrt(kappa)
        phi0, gamma = 0.3, PI / 4
        phys = PhysicalParams(mass_per_length=1.0, density_diff=rho,
                              surface_tension=sigma, gravity=g, radius=a,
                              contact_angle=gamma)
        dim = to_dimensionless(phys)
        psi0 = phi0 + gamma - PI
        h_dim = a * math.cos(phi0) - (2.0 / math.sqrt(kappa)) * math.sin(psi0 / 2)
        assert center_height(phi0, dim) == pytest.approx(h_dim / a, rel=1e-12)

    def test_slope_degenerate_endpoint(self):
        assert center_height_slope(0.0, params(g=0.0)) == 0.0
        assert center_height_slope(PI, params(g=PI)) == pytest.approx(0.0, abs=1e-15)

    def test_slope_value(self):
        assert center_height_slope(PI / 2, params(c=1.0)) == pytest.approx(-2.0,
                                                                           rel=1e-14)

    def test_slope_matches_finite_difference(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = params(c=rng.uniform(0.2, 4.0), g=rng.uniform(0.0, PI))
            phi0 = rng.uniform(0.05, PI - 0.05)
            h = 1e-6 * max(1.0, phi0)
            fd = (center_height(phi0 + h, p) - center_height(phi0 - h, p)) / (2 * h)
            assert center_height_slope(phi0, p) == pytest.approx(fd, abs=1e-8)

    def test_slope_negative_on_interior(self):
        rng = np.random.default_rng(8)
        grid = np.linspace(1e-3, PI - 1e-3, 200)
        for _ in range(25):
            p = params(c=rng.uniform(0.1, 5.0), g=rng.uniform(0.0, PI))
            assert np.all(center_height_slope(grid, p) < 0.0)

    def test_range_check(self):
        with pytest.raises(ValueError, match="phi0"):
            center_height(-0.2, params())
        with pytest.raises(ValueError, match="phi0"):
            total_force(PI + 0.2, params())


class TestForce:
    def test_endpoint_values(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            a = rng.uniform(0.1, 12.0)
            c = rng.uniform(0.1, 5.0)
            g = rng.uniform(0.0, PI)
            p = params(a, c, g)
            assert total_force(0.0, p) == pytest.approx(
                -a * c * c - 2 * math.sin(g), rel=1e-12, abs=1e-12)
            assert total_force(PI, p) == pytest.approx(
                2 * math.sin(g) + c * c * (PI - a), rel=1e-12, abs=1e-12)

    def test_endpoint_ordering(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            p = params(rng.uniform(1e-3, 20.0), rng.uniform(1e-3, 8.0),
                       rng.uniform(0.0, PI))
            assert total_force(PI, p) > total_force(0.0, p)

    def test_central_symmetry_neutral_angle(self):
        grid = np.linspace(0.0, PI, 100)
        for c in (0.4, 1.0, 2.5):
            p = params(a=3.0, c=c, g=PI / 2)
            lhs = total_force(grid, p) + total_force(PI - grid, p)
            rhs = 2.0 * total_force(PI / 2, p)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_slope_reference_values(self):
        for c in (0.3, 1.0, 4.0):
            p = params(c=c, g=PI / 2)
            assert force_slope(0.0, p) == pytest.approx(-2 * math.sqrt(2) * c,
                                                        rel=1e-14)
            assert force_slope(PI / 2, p) == pytest.approx(2 * (1 + c + c * c),
                                                           rel=1e-14)

    def test_slope_matches_finite_difference(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            p = params(rng.uniform(0.1, 10.0), rng.uniform(0.2, 4.0),
                       rng.uniform(0.0, PI))
            phi0 = rng.uniform(0.05, PI - 0.05)
            h = 1e-6 * max(1.0, phi0)
            fd = (total_force(phi0 + h, p) - total_force(phi0 - h, p)) / (2 * h)
            assert force_slope(phi0, p) == pytest.approx(fd, abs=1e-7)

    def test_curvature_matches_finite_difference(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            p = params(1.0, rng.uniform(0.2, 4.0), rng.uniform(0.0, PI))
            phi0 = rng.uniform(0.05, PI - 0.05)
            h = 1e-6 * max(1.0, phi0)
            fd = (force_slope(phi0 + h, p) - force_slope(phi0 - h, p)) / (2 * h)
            assert force_curvature(phi0, p) == pytest.approx(fd, abs=1e-7)

    def test_curvature_bound(self):
        # the solver's proven margins bound |F'| and |F''| by their terms'
        # sizes, S and K of _bounds
        rng = np.random.default_rng(14)
        grid = np.linspace(0.0, PI, 2001)
        cases = [(c, g) for c in np.logspace(-3.0, 3.0, 61).tolist()
                 for g in (0.0, PI / 4, PI / 2, 3 * PI / 4, PI)]
        cases += zip(np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 200)
                            ).tolist(), rng.uniform(0.0, PI, 200).tolist())
        for c, g in cases:
            _, slope_bound, curvature_bound = _bounds(c)
            slope = force_slope(grid, params(1.0, c, g))
            curvature = force_curvature(grid, params(1.0, c, g))
            assert np.max(np.abs(slope)) <= slope_bound
            assert np.max(np.abs(curvature)) <= curvature_bound

    def test_float_kernels_match_numpy(self):
        # a float phi0 runs on math, an array on NumPy: the float solver
        # and curves rely on both giving the same bits, and so does
        # region_map, whose labels read array forces and equal
        # find_equilibria's
        rng = np.random.default_rng(13)
        for g in [0.0, PI / 2, PI] + rng.uniform(0.0, PI, 7).tolist():
            for phi0 in [0.0, PI / 2, PI] + rng.uniform(0.0, PI, 40).tolist():
                a = rng.uniform(0.05, 15.0)
                c = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
                one = np.array([phi0])
                p = params(a, c, g)
                energy = total_energy(phi0, p)
                energy_one = total_energy(one, p)
                for got, want in ((_force(phi0, a, c, g), _force(one, a, c, g)),
                                  (_slope(phi0, c, g), _slope(one, c, g)),
                                  (force_curvature(phi0, p),
                                   force_curvature(one, p)),
                                  (_height(phi0, c, g), _height(one, c, g)),
                                  (center_height(phi0, p),
                                   center_height(one, p)),
                                  (center_height_slope(phi0, p),
                                   center_height_slope(one, p)),
                                  *((getattr(energy, f.name),
                                     getattr(energy_one, f.name))
                                    for f in fields(EnergyBreakdown))):
                    assert type(got) is float
                    assert got == want[0], (phi0, a, c, g)

    def test_fused_kernel_equals_slope_and_curvature(self):
        # _slope_curv keeps _slope's expression, so its slope is _slope's
        # bit for bit, and its curvature is what force_curvature returns:
        # on arrays, on one float C over an array phi, and on floats, at
        # the edge angles, C log-uniform on [1e-6, 1e12] and phi at 0, pi
        # and random points
        rng = np.random.default_rng(39)
        for g in (0.0, 1e-12, PI / 2 - 1e-9, PI / 2, PI / 2 + 1e-9,
                  PI - 1e-9, PI):
            c = np.exp(rng.uniform(math.log(1e-6), math.log(1e12), 4000))
            phi = np.concatenate([[0.0, PI], rng.uniform(0.0, PI, 3998)])
            for cc in (c, float(c[0])):
                slope, curv = _slope_curv(phi, cc, g)
                assert slope.tobytes() == _slope(phi, cc, g).tobytes()
            assert curv.tobytes() == force_curvature(
                phi, params(1.0, cc, g)).tobytes()
            for x, y in zip(phi[:400].tolist(), c[:400].tolist()):
                slope, curv = _slope_curv(x, y, g)
                assert type(slope) is float and type(curv) is float
                assert (slope.hex(), curv.hex()) == (
                    _slope(x, y, g).hex(),
                    force_curvature(x, params(1.0, y, g)).hex()), (x, y, g)

    def test_slope_independent_of_mass_ratio(self):
        grid = np.linspace(0.0, PI, 50)
        for c, g in [(0.5, 0.7), (2.0, 2.6), (1.0, PI / 2)]:
            light = DimensionlessParams(0.0, c, g, exploratory=True)
            heavy = params(100.0, c, g)
            assert np.max(np.abs(force_slope(grid, light)
                                 - force_slope(grid, heavy))) < 1e-12


class TestEnergy:
    def test_wetting_term(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            g = rng.uniform(0.0, PI)
            phi0 = rng.uniform(0.0, PI)
            e = total_energy(phi0, params(g=g))
            assert e.wetting == pytest.approx(-2 * phi0 * math.cos(g), abs=1e-14)
        assert total_energy(0.0, params(g=0.4)).wetting == 0.0

    def test_flat_interface_surface_energy(self):
        # phi0 + gamma = pi: the meniscus vanishes, only the chord term is left
        e = total_energy(PI / 2, params(c=1.7, g=PI / 2))
        assert e.surface == pytest.approx(-2.0, rel=1e-14)
        assert e.fluid_outer == pytest.approx(0.0, abs=1e-14)

    def test_total_is_component_sum(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            p = params(rng.uniform(0.1, 10.0), rng.uniform(0.2, 4.0),
                       rng.uniform(0.0, PI))
            phi0 = rng.uniform(0.0, PI)
            e = total_energy(phi0, p)
            s = e.gravity + e.wetting + e.surface + e.fluid_inner + e.fluid_outer
            assert abs(e.total - s) < 1e-12

    def test_total_matches_combined_closed_form(self):
        # independent recombination: meniscus terms merged into the cubed-sine
        # form, inner fluid terms written against cos((phi0+gamma)/2)
        def combined(phi0, p):
            a, c, g = p.mass_ratio, p.capillary_ratio, p.contact_angle
            s = np.sin((phi0 + g) / 2)
            return (a * c * c * (np.cos(phi0) + (2 / c) * np.cos((phi0 + g) / 2))
                    - 2 * phi0 * np.cos(g)
                    + (8 / (3 * c)) * (1 - s ** 3)
                    + 2 * np.sin(phi0) * np.cos(phi0 + g)
                    + c * c / 12 * np.sin(3 * phi0)
                    - c * c * phi0 * np.cos(phi0)
                    + 0.75 * c * c * np.sin(phi0)
                    + c * np.cos((phi0 + g) / 2) * np.sin(2 * phi0)
                    - 2 * c * phi0 * np.cos((phi0 + g) / 2))

        rng = np.random.default_rng(15)
        for _ in range(30):
            p = params(rng.uniform(0.1, 10.0), rng.uniform(0.2, 4.0),
                       rng.uniform(0.0, PI))
            phi0 = rng.uniform(0.0, PI)
            e = total_energy(phi0, p)
            assert e.total == pytest.approx(combined(phi0, p), rel=1e-12,
                                            abs=1e-12)

    def test_energy_force_identity_spotcheck(self):
        # central difference of the energy against force times height slope
        rng = np.random.default_rng(16)
        grid = np.linspace(0.1, PI - 0.1, 200)
        for _ in range(5):
            p = params(rng.uniform(0.1, 8.0), rng.uniform(0.3, 4.0),
                       rng.uniform(0.0, PI))
            h = 1e-5 * np.maximum(1.0, grid)
            de = (total_energy(grid + h, p).total
                  - total_energy(grid - h, p).total) / (2 * h)
            resid = np.abs(-de / center_height_slope(grid, p)
                           - total_force(grid, p))
            assert resid.max() < 1e-6

    # F_T = -dE_T/dh (criterion 6) across the C range of the other
    # properties, with a tolerance that scales like the force
    @settings(derandomize=True, max_examples=400, database=None,
              deadline=None)
    @given(log_c=st.floats(math.log(1e-2), math.log(1e2)),
           g=st.one_of(st.sampled_from([0.0, PI / 2, PI]),
                       st.floats(0.0, PI)),
           a=st.floats(0.05, 15.0), phi0=st.floats(0.05, PI - 0.05))
    def test_energy_force_identity_property(self, log_c, g, a, phi0):
        c = math.exp(log_c)
        p = params(a, c, g)
        h = 1e-5 * max(1.0, phi0)
        de = (total_energy(phi0 + h, p).total
              - total_energy(phi0 - h, p).total) / (2 * h)
        assert -de / center_height_slope(phi0, p) == pytest.approx(
            total_force(phi0, p), rel=0.0, abs=1e-6 * max(1.0, c * c))


class TestInterfaceProfile:
    def test_contact_point_exact(self):
        for phi0, c, g in [(0.4, 2.0, PI / 4), (2.8, 0.5, 3 * PI / 4),
                           (1.0, 1.0, PI / 2), (0.2, 4.0, 0.3)]:
            prof = interface_profile(phi0, params(c=c, g=g), n=64)
            assert prof.x[0] == math.sin(phi0)
            psi0 = phi0 + g - PI
            assert prof.u[0] == pytest.approx(-(2 / c) * math.sin(psi0 / 2),
                                              rel=1e-14)
            assert prof.contact == (prof.x[0], prof.u[0])

    def test_psi_monotone_and_finite(self):
        prof = interface_profile(0.5, params(c=1.0, g=PI / 4), n=500)
        assert prof.psi0 < 0
        assert np.all(np.diff(prof.psi) > 0)  # rising toward 0 from below
        assert np.all(np.isfinite(prof.samples))
        prof = interface_profile(2.9, params(c=1.0, g=3 * PI / 4), n=500)
        assert prof.psi0 > 0
        assert np.all(np.diff(prof.psi) < 0)
        assert np.all(np.isfinite(prof.samples))

    def test_sign_convention(self):
        # raised fluid (u > 0) on the psi < 0 side and vice versa
        low = interface_profile(0.5, params(c=1.0, g=PI / 4), n=100)
        assert np.all(low.u > 0)
        high = interface_profile(2.9, params(c=1.0, g=3 * PI / 4), n=100)
        assert np.all(high.u < 0)

    def test_capillary_ode_residual(self):
        for phi0, c, g in [(0.4, 2.0, PI / 4), (2.8, 0.5, 3 * PI / 4),
                           (1.0, 1.0, PI / 2), (0.2, 4.0, 0.3)]:
            p = params(c=c, g=g)
            prof = interface_profile(phi0, p, n=4000)
            dpsi = np.diff(prof.psi)
            ds = np.hypot(np.diff(prof.x), np.diff(prof.u))
            umid = 0.5 * (prof.u[1:] + prof.u[:-1])
            resid = np.abs(dpsi / ds - c * c * umid)
            assert resid.max() < 1e-4

    def test_flat_interface_flagged(self):
        prof = interface_profile(PI / 2, params(g=PI / 2), n=100)
        assert prof.flat
        assert prof.psi0 == 0.0
        assert prof.samples.shape == (2, 3)
        assert np.all(prof.u == 0.0)
        assert prof.contact[0] == pytest.approx(1.0, rel=1e-15)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="psi_cutoff"):
            interface_profile(0.5, params(g=PI / 4), psi_cutoff=10.0)
        with pytest.raises(ValueError, match="psi_cutoff"):
            interface_profile(0.5, params(g=PI / 4), psi_cutoff=0.0)
        with pytest.raises(ValueError, match="samples"):
            interface_profile(0.5, params(g=PI / 4), n=1)
