import math

import numpy as np
import pytest

from floatcyl.model import (DimensionlessParams, center_height,
                            inclination_at_contact, total_energy, total_force)
from floatcyl.oracles import (buoyancy_closed, buoyancy_geometric,
                              buoyancy_quadrature,
                              energy_factored_identity_check,
                              energy_force_identity_check, energy_slope,
                              expected_fourier_coefficients,
                              fluid_energy_quadrature, force_series,
                              fourier_coefficients, fourier_projection_check,
                              run_all, submerged_segment_force,
                              surface_energy_quadrature)

PI = math.pi


def params(a=1.0, c=1.0, g=PI / 2):
    return DimensionlessParams(a, c, g)


def random_draws(seed, n):
    rng = np.random.default_rng(seed)
    return [(rng.uniform(0.05, PI - 0.05),
             params(rng.uniform(0.1, 10.0), rng.uniform(0.3, 4.0),
                    rng.uniform(0.0, PI)))
            for _ in range(n)]


class TestSurfaceEnergy:
    def test_flat_interface_limit(self):
        p = params(c=1.7, g=PI / 2)
        assert surface_energy_quadrature(PI / 2, p) == pytest.approx(
            -2.0, rel=1e-12)
        # approaching flat from either side converges to the chord term
        near = surface_energy_quadrature(PI / 2 - 1e-7, p)
        assert near == pytest.approx(-2.0 * math.sin(PI / 2 - 1e-7), abs=1e-7)

    def test_matches_closed_form(self):
        for phi0, p in random_draws(51, 100):
            closed = total_energy(phi0, p).surface
            quad = surface_energy_quadrature(phi0, p)
            assert abs(quad - closed) <= 1e-8 * max(1.0, abs(closed))


class TestFluidEnergy:
    def test_empty_interval(self):
        inner, _ = fluid_energy_quadrature(0.0, params(c=2.0, g=0.7))
        assert inner == pytest.approx(0.0, abs=1e-14)

    def test_outer_closed_form_identity(self):
        # the outer term rewritten through the triple-angle identity
        for phi0, p in random_draws(52, 40):
            psi0 = inclination_at_contact(phi0, p.contact_angle)
            c = p.capillary_ratio
            alt = -(2.0 / c) * (2.0 / 3.0 - math.cos(psi0 / 2)
                                + math.cos(3 * psi0 / 2) / 3.0)
            assert total_energy(phi0, p).fluid_outer == pytest.approx(
                alt, rel=1e-12, abs=1e-12)

    def test_matches_closed_forms(self):
        for phi0, p in random_draws(53, 100):
            e = total_energy(phi0, p)
            inner, outer = fluid_energy_quadrature(phi0, p)
            assert abs(inner - e.fluid_inner) <= 1e-8 * max(1.0, abs(e.fluid_inner))
            assert abs(outer - e.fluid_outer) <= 1e-8 * max(1.0, abs(e.fluid_outer))


class TestBuoyancy:
    def test_dry_limit(self):
        assert buoyancy_quadrature(0.0, params(c=2.0, g=0.3)) == pytest.approx(
            0.0, abs=1e-14)
        assert buoyancy_closed(0.0, params(c=2.0, g=0.3)) == 0.0

    def test_fully_submerged_nonwetting(self):
        # fully wetted, perfectly nonwetting: pressure resultant is the full
        # disk displacement even though the contact points sit below level
        for c in (0.5, 1.0, 3.0):
            p = params(c=c, g=PI)
            assert buoyancy_closed(PI, p) == pytest.approx(c * c * PI, rel=1e-12)
            assert buoyancy_quadrature(PI, p) == pytest.approx(c * c * PI,
                                                               rel=1e-10)
            assert buoyancy_geometric(PI, p) == pytest.approx(c * c * PI,
                                                              rel=1e-12)

    def test_quadrature_matches_closed(self):
        for phi0, p in random_draws(54, 100):
            fb = float(buoyancy_closed(phi0, p))
            assert abs(buoyancy_quadrature(phi0, p) - fb) <= 1e-8 * max(1.0, abs(fb))

    def test_geometric_matches_closed(self):
        for phi0, p in random_draws(55, 100):
            fb = float(buoyancy_closed(phi0, p))
            assert abs(buoyancy_geometric(phi0, p) - fb) <= 1e-8 * max(1.0, abs(fb))

    def test_naive_archimedes_equal_only_when_contact_on_level(self):
        # flat interface: contact points on the level, naive displacement holds
        for phi0 in (0.7, 1.6, 2.5):
            p = params(c=1.3, g=PI - phi0)
            fb = float(buoyancy_closed(phi0, p))
            assert submerged_segment_force(phi0, p) == pytest.approx(fb,
                                                                     rel=1e-12)
        # lifted or depressed contact line: naive displacement is wrong
        for phi0, p in random_draws(56, 100):
            u0 = float(center_height(phi0, p)) - math.cos(phi0)
            if abs(u0) > 0.05 and math.sin(phi0) > 0.1:
                fb = float(buoyancy_closed(phi0, p))
                naive = submerged_segment_force(phi0, p)
                assert abs(fb - naive) > 1e-8 * max(1.0, abs(fb))


class TestEnergyForceIdentity:
    def test_reference_parameters(self):
        rep = energy_force_identity_check(params(a=4.0, c=1.0, g=PI / 2))
        assert rep.passed and rep.max_abs_err < 1e-6

    def test_randomized(self):
        rng = np.random.default_rng(57)
        for _ in range(10):
            p = params(rng.uniform(0.1, 10.0), rng.uniform(0.3, 4.0),
                       rng.uniform(0.0, PI))
            assert energy_force_identity_check(p).passed

    def test_factored_form(self):
        rng = np.random.default_rng(58)
        for _ in range(10):
            p = params(rng.uniform(0.1, 10.0), rng.uniform(0.3, 4.0),
                       rng.uniform(0.0, PI))
            rep = energy_factored_identity_check(p)
            assert rep.passed and rep.max_rel_err < 1e-10

    def test_degenerate_corners_have_zero_slope(self):
        # the common factor vanishes at phi0 = gamma = 0 and phi0 = gamma = pi,
        # so the energy is stationary there regardless of the force value
        assert energy_slope(0.0, params(c=0.8, g=0.0)) == pytest.approx(
            0.0, abs=1e-12)
        assert energy_slope(PI, params(c=2.4, g=PI)) == pytest.approx(
            0.0, abs=1e-12)


class TestFourier:
    def test_fully_wetting_parity(self):
        a_n, _ = fourier_coefficients(params(c=1.4, g=0.0))
        assert np.max(np.abs(a_n)) < 1e-12

    def test_neutral_angle_value(self):
        _, b_n = fourier_coefficients(params(c=1.0, g=PI / 2))
        assert b_n[0] == pytest.approx(-math.sqrt(2.0), abs=1e-12)

    def test_full_vector_random(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            p = params(1.0, rng.uniform(0.2, 4.0), rng.uniform(0.0, PI))
            got_a, got_b = fourier_coefficients(p)
            exp_a, exp_b = expected_fourier_coefficients(p)
            assert np.max(np.abs(np.array(got_a) - exp_a)) < 1e-8
            assert np.max(np.abs(np.array(got_b) - exp_b)) < 1e-8
            assert fourier_projection_check(p).passed

    def test_series_equivalence(self):
        grid = np.linspace(0.0, PI, 257)
        rng = np.random.default_rng(60)
        for _ in range(20):
            p = params(rng.uniform(0.1, 10.0), rng.uniform(0.2, 4.0),
                       rng.uniform(0.0, PI))
            assert np.max(np.abs(force_series(grid, p)
                                 - total_force(grid, p))) < 1e-12


class TestSuite:
    def test_quadrature_failure_is_loud(self):
        import warnings

        from floatcyl.oracles import QuadratureError, _quad

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(QuadratureError):
                _quad(lambda x: 1.0 / x, 0.0, 1.0, 1e-10, "smoke")

    def test_quadrature_convergence(self):
        p = params(a=2.0, c=1.1, g=0.9)
        t = 1e-8
        for fn in (surface_energy_quadrature, buoyancy_quadrature):
            assert abs(fn(0.8, p, tol=t) - fn(0.8, p, tol=t / 10)) < 10 * t

    def test_run_all_counts_the_draws_it_used(self):
        # one parameter set: every check reports samples from that one set
        samples = {r.name: r.samples for r in run_all(n_sets=1, seed=7)}
        assert samples["energy_force_identity_fd"] == 200
        assert samples["energy_force_factored"] == 200
        assert samples["fourier_coefficients"] == 8
        assert samples["force_series_equivalence"] == 101
        assert samples["derivative_finite_difference"] == 3
        assert samples["quadrature_convergence"] == 2
        assert samples["surface_energy_quadrature"] == 1

    def test_run_all_passes(self):
        reports = run_all(n_sets=40, seed=7)
        assert reports, "empty oracle suite"
        for rep in reports:
            assert rep.passed, f"{rep.name}: {rep}"
        names = {r.name for r in reports}
        assert {"surface_energy_quadrature", "buoyancy_divergence_theorem",
                "archimedes_naive_differs", "energy_force_identity_fd",
                "fourier_coefficients", "profile_ode_residual"} <= names


class TestQuadpackPort:
    """The in-repo dqk21/dqagse equals scipy.integrate.quad bit for bit.

    This test is the gate for that claim on a new platform: a compiled
    QUADPACK that fuses multiply-adds rounds differently from the pure
    Python port, and the value or error estimate would then differ here
    first.
    """

    def test_equals_scipy_quad(self, monkeypatch):
        from scipy.integrate import quad

        from floatcyl import oracles

        calls = []
        real = oracles._quad

        def record(fn, lo, hi, tol, name):
            calls.append((fn, lo, hi, tol, name))
            return real(fn, lo, hi, tol, name)

        monkeypatch.setattr(oracles, "_quad", record)
        tols = (1e-10, 1e-8, 1e-9)
        for tol in tols:
            for phi0, p in random_draws(65, 100):
                surface_energy_quadrature(phi0, p, tol=tol)
                fluid_energy_quadrature(phi0, p, tol=tol)
                buoyancy_quadrature(phi0, p, tol=tol)
        seen, two = set(), 0
        for fn, lo, hi, tol, name in calls:
            val, err, info = quad(fn, lo, hi, epsabs=tol, epsrel=tol,
                                  limit=200, full_output=1)
            assert info["last"] <= 2
            assert oracles._qagse(fn, lo, hi, tol) == (val, err), (name, lo, hi)
            seen.add((name, tol))
            two += info["last"] == 2
        names = {"surface_energy_quadrature", "fluid_energy_quadrature[inner]",
                 "fluid_energy_quadrature[outer]", "buoyancy_quadrature"}
        assert seen == {(n, t) for n in names for t in tols}
        assert two >= 3  # the bisected branch is compared too

    def test_third_interval_raises(self):
        from scipy.integrate import quad

        from floatcyl.oracles import QuadratureError, _quad

        def kink(x):
            return math.sqrt(abs(x - 0.3))

        info = quad(kink, 0.0, 1.0, epsabs=1e-10, epsrel=1e-10, limit=200,
                    full_output=1)[2]
        assert info["last"] > 2
        with pytest.raises(QuadratureError, match="kink_integrand"):
            _quad(kink, 0.0, 1.0, 1e-10, "kink_integrand")
