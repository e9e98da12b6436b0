"""Independent numerical cross-checks of every closed form in the model.

Each check recomputes a closed-form quantity by a route that shares no
algebra with the model implementation: adaptive quadrature of the defining
integrals, finite differences of the energy, Fourier projection of the
force onto its harmonic basis, and a geometric (divergence-theorem) route
to the buoyant force.  ``run_all`` exercises everything over randomized
parameter sets and returns machine-checkable reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (DimensionlessParams, _force, center_height,
                    center_height_slope, force_curvature, force_slope,
                    inclination_at_contact, interface_profile, total_energy,
                    total_force)

PI = math.pi


class QuadratureError(Exception):
    """Adaptive quadrature failed to reach the requested accuracy."""


@dataclass(frozen=True)
class OracleReport:
    name: str
    samples: int
    max_abs_err: float
    max_rel_err: float
    tolerance: float
    passed: bool


def _quad(fn, lo, hi, tol, name):
    from scipy.integrate import quad  # on first use: only oracles need SciPy
    val, abserr = quad(fn, lo, hi, epsabs=tol, epsrel=tol, limit=200)
    if abserr > 50.0 * tol * max(1.0, abs(val)):
        raise QuadratureError(
            f"{name}: estimated error {abserr:.3e} exceeds target {tol:.3e} "
            f"on [{lo}, {hi}]")
    return val


def surface_energy_quadrature(phi0: float, params: DimensionlessParams,
                              tol: float = 1e-10) -> float:
    """Meniscus-area energy by parametric quadrature, in units of sigma*a.

    Integrates the arc-length element of the interface minus the flat
    reference in the inclination variable, then subtracts the wetted-chord
    reference.  Reduces to -2 sin(phi0) for the flat interface.
    """
    c = params.capillary_ratio
    psi0 = float(inclination_at_contact(phi0, params.contact_angle))
    if psi0 == 0.0:
        return -2.0 * math.sin(phi0)
    sgn = 1.0 if psi0 > 0.0 else -1.0

    def integrand(psi):
        du = -math.cos(psi / 2.0) / c
        dx = -math.cos(psi) / (2.0 * c * math.sin(psi / 2.0))
        arc = math.hypot(du, dx)
        ref = math.cos(psi) / (2.0 * c * math.sin(psi / 2.0))
        return -sgn * arc + ref

    val = _quad(integrand, psi0, 0.0, tol, "surface_energy_quadrature")
    return 2.0 * val - 2.0 * math.sin(phi0)


def fluid_energy_quadrature(phi0: float, params: DimensionlessParams,
                            tol: float = 1e-10) -> tuple[float, float]:
    """Displaced-fluid energies (inner column, outer meniscus) by quadrature.

    Inner part: columns between the undisturbed level and the wetted arc,
    integrated in the polar angle.  Outer part: u^2/2 columns under the
    meniscus, integrated parametrically in the inclination.
    """
    c = params.capillary_ratio
    psi0 = float(inclination_at_contact(phi0, params.contact_angle))
    h = float(center_height(phi0, params))

    inner = c * c * _quad(
        lambda ph: (math.cos(ph) - h) ** 2 * math.cos(ph),
        0.0, phi0, tol, "fluid_energy_quadrature[inner]")

    if psi0 == 0.0:
        return inner, 0.0

    def outer_integrand(psi):
        u = -(2.0 / c) * math.sin(psi / 2.0)
        dx = -math.cos(psi) / (2.0 * c * math.sin(psi / 2.0))
        return u * u * dx

    outer = c * c * _quad(outer_integrand, psi0, 0.0, tol,
                          "fluid_energy_quadrature[outer]")
    return inner, outer


def buoyancy_closed(phi0, params: DimensionlessParams):
    """Closed-form pressure resultant over the wetted arc (units of sigma)."""
    c = params.capillary_ratio
    g = params.contact_angle
    return (-4.0 * c * np.cos((phi0 + g) / 2.0) * np.sin(phi0)
            - 0.5 * c * c * np.sin(2.0 * phi0) + c * c * phi0)


def buoyancy_quadrature(phi0: float, params: DimensionlessParams,
                        tol: float = 1e-10) -> float:
    """Vertical pressure resultant by direct integration over the wetted arc."""
    c = params.capillary_ratio
    h = float(center_height(phi0, params))
    val = _quad(lambda ph: (h - math.cos(ph)) * (-math.cos(ph)),
                -phi0, phi0, tol, "buoyancy_quadrature")
    return c * c * val


def buoyancy_geometric(phi0: float, params: DimensionlessParams) -> float:
    """Buoyant force from the divergence theorem, computed geometrically.

    The pressure resultant equals rho*g times the signed area of the region
    bounded by the wetted arc, the verticals through the contact points and
    the undisturbed level: a circular segment plus a rectangle of height
    -u0.  No force integral is evaluated.
    """
    u0 = float(center_height(phi0, params)) - math.cos(phi0)
    segment = phi0 - math.sin(phi0) * math.cos(phi0)
    area = segment - 2.0 * math.sin(phi0) * u0
    return params.capillary_ratio ** 2 * area


def submerged_segment_force(phi0: float, params: DimensionlessParams) -> float:
    """Naive Archimedes force: rho*g times the disk area below the level.

    This ignores where the contact line actually sits; it equals the true
    pressure resultant only when the contact points lie exactly on the
    undisturbed level (u0 = 0).
    """
    h = float(center_height(phi0, params))
    if h >= 1.0:
        area = 0.0
    elif h <= -1.0:
        area = PI
    else:
        half = math.acos(h)
        area = half - math.sin(half) * math.cos(half)
    return params.capillary_ratio ** 2 * area


def force_series(phi0, params: DimensionlessParams):
    """The force rewritten on its harmonic basis in phi0/2.

    Identical function of phi0 as ``total_force``, assembled from the
    projected coefficients instead of the product form.
    """
    a = params.mass_ratio
    c = params.capillary_ratio
    g = params.contact_angle
    return (-a * c * c
            - 2.0 * c * np.cos(g / 2.0) * np.sin(phi0 / 2.0)
            + 2.0 * c * np.sin(g / 2.0) * np.cos(phi0 / 2.0)
            - 2.0 * np.cos(g) * np.sin(phi0)
            - 2.0 * np.sin(g) * np.cos(phi0)
            - 2.0 * c * np.cos(g / 2.0) * np.sin(3.0 * phi0 / 2.0)
            - 2.0 * c * np.sin(g / 2.0) * np.cos(3.0 * phi0 / 2.0)
            - 0.5 * c * c * np.sin(2.0 * phi0) + c * c * phi0)


def fourier_coefficients(params: DimensionlessParams, nodes: int = 4096):
    """Projected harmonic coefficients (a_n, b_n), n = 1..4, of the force.

    Projects F + A C^2 - C^2 phi0 (periodic part, period 4 pi) onto
    cos(n phi0 / 2) and sin(n phi0 / 2) with a composite rectangle rule,
    which is exact for trigonometric polynomials at this node count.
    """
    a = params.mass_ratio
    c = params.capillary_ratio
    ph = np.arange(nodes) * (4.0 * PI / nodes)
    periodic = _force(ph, a, c, params.contact_angle) + a * c * c - c * c * ph
    dph = 4.0 * PI / nodes
    a_n = [float(np.sum(periodic * np.cos(n * ph / 2.0)) * dph / (2.0 * PI))
           for n in range(1, 5)]
    b_n = [float(np.sum(periodic * np.sin(n * ph / 2.0)) * dph / (2.0 * PI))
           for n in range(1, 5)]
    return a_n, b_n


def expected_fourier_coefficients(params: DimensionlessParams):
    """Coefficients read off the closed-form harmonic expansion."""
    c = params.capillary_ratio
    g = params.contact_angle
    a_n = [2.0 * c * math.sin(g / 2.0), -2.0 * math.sin(g),
           -2.0 * c * math.sin(g / 2.0), 0.0]
    b_n = [-2.0 * c * math.cos(g / 2.0), -2.0 * math.cos(g),
           -2.0 * c * math.cos(g / 2.0), -0.5 * c * c]
    return a_n, b_n


def energy_slope(phi0, params: DimensionlessParams):
    """Analytic d(total energy)/d(phi0), differentiated term by term.

    Independent of the force formula; used to verify that the slope factors
    as F(phi0) times (sin(phi0) + sin((phi0+gamma)/2)/C), i.e. minus the
    height slope.
    """
    a = params.mass_ratio
    c = params.capillary_ratio
    g = params.contact_angle
    s = (phi0 + g) / 2.0

    d_gravity = a * c * c * (-np.sin(phi0) - np.sin(s) / c)
    d_wetting = -2.0 * np.cos(g) + 0.0 * np.asarray(phi0)
    d_surface = -(2.0 / c) * np.cos(s) - 2.0 * np.cos(phi0)
    d_outer = (2.0 / c) * np.cos(s) * np.cos(phi0 + g)
    d_inner = (0.25 * c * c * np.cos(3.0 * phi0)
               - 0.25 * c * c * np.cos(phi0)
               + c * c * phi0 * np.sin(phi0)
               - 0.5 * c * np.sin(s) * np.sin(2.0 * phi0)
               + 2.0 * c * np.cos(s) * np.cos(2.0 * phi0)
               - 2.0 * c * np.cos(s)
               + c * phi0 * np.sin(s)
               - 4.0 * np.sin(s) * np.cos(s) * np.sin(phi0)
               + 4.0 * np.cos(s) ** 2 * np.cos(phi0))
    return d_gravity + d_wetting + d_surface + d_outer + d_inner


def _compare(name, pairs, tolerance):
    """Report comparing (reference, candidate) pairs at a relative tolerance.

    Relative error uses max(1, |reference|) in the denominator so that
    near-zero crossings of the reference do not blow up the ratio; the
    absolute error is reported alongside.
    """
    ref = np.array([p[0] for p in pairs], dtype=float)
    cand = np.array([p[1] for p in pairs], dtype=float)
    abs_err = np.abs(ref - cand)
    rel_err = abs_err / np.maximum(1.0, np.abs(ref))
    max_abs = float(abs_err.max()) if len(pairs) else 0.0
    max_rel = float(rel_err.max()) if len(pairs) else 0.0
    return OracleReport(name=name, samples=len(pairs), max_abs_err=max_abs,
                        max_rel_err=max_rel, tolerance=tolerance,
                        passed=bool(max_rel <= tolerance))


def energy_force_identity_check(params: DimensionlessParams, grid=None,
                                fd_step: float = 1e-5) -> OracleReport:
    """Check -dE/dphi0 / (dh/dphi0) = F with finite-difference dE/dphi0.

    The energy is differenced centrally with step fd_step * max(1, phi0);
    the quotient against the analytic height slope must reproduce the force
    to 1e-6 on an interior grid.
    """
    if grid is None:
        grid = np.linspace(0.1, PI - 0.1, 200)
    grid = np.asarray(grid, dtype=float)
    h = fd_step * np.maximum(1.0, np.abs(grid))
    e_plus = total_energy(grid + h, params).total
    e_minus = total_energy(grid - h, params).total
    de = (e_plus - e_minus) / (2.0 * h)
    ratio = -de / center_height_slope(grid, params)
    resid = np.abs(ratio - total_force(grid, params))
    return OracleReport(name="energy_force_identity_fd", samples=grid.size,
                        max_abs_err=float(resid.max()),
                        max_rel_err=float(resid.max()),
                        tolerance=1e-6, passed=bool(resid.max() <= 1e-6))


def energy_factored_identity_check(params: DimensionlessParams,
                                   grid=None) -> OracleReport:
    """Check dE/dphi0 = F * (sin(phi0) + sin((phi0+gamma)/2)/C) analytically.

    Left side from the term-by-term energy derivative, right side from the
    force formula times the common factor (minus the height slope); they
    must agree to 1e-10 in scaled terms.
    """
    if grid is None:
        grid = np.linspace(0.05, PI - 0.05, 200)
    grid = np.asarray(grid, dtype=float)
    lhs = energy_slope(grid, params)
    common = -center_height_slope(grid, params)
    rhs = total_force(grid, params) * common
    resid = np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))
    return OracleReport(name="energy_force_factored", samples=grid.size,
                        max_abs_err=float(np.abs(lhs - rhs).max()),
                        max_rel_err=float(resid.max()),
                        tolerance=1e-10, passed=bool(resid.max() <= 1e-10))


def fourier_projection_check(params: DimensionlessParams,
                             nodes: int = 4096) -> OracleReport:
    """Projected force coefficients against the closed-form expansion."""
    got_a, got_b = fourier_coefficients(params, nodes)
    exp_a, exp_b = expected_fourier_coefficients(params)
    errs = np.abs(np.array(got_a + got_b) - np.array(exp_a + exp_b))
    return OracleReport(name="fourier_coefficients", samples=8,
                        max_abs_err=float(errs.max()),
                        max_rel_err=float(errs.max()),
                        tolerance=1e-8, passed=bool(errs.max() <= 1e-8))


def _draw_params(rng, n):
    out = []
    for _ in range(n):
        out.append((
            float(rng.uniform(0.05, PI - 0.05)),        # phi0
            DimensionlessParams(
                mass_ratio=float(rng.uniform(0.1, 10.0)),
                capillary_ratio=float(rng.uniform(0.3, 4.0)),
                contact_angle=float(rng.uniform(0.0, PI)),
            )))
    return out


def run_all(n_sets: int = 100, seed: int = 20240801) -> list[OracleReport]:
    """Run the full oracle suite over randomized parameter sets."""
    rng = np.random.default_rng(seed)
    draws = _draw_params(rng, n_sets)
    reports = []

    # closed-form energies against quadrature
    pairs_sigma, pairs_f1, pairs_f2 = [], [], []
    for phi0, p in draws:
        e = total_energy(phi0, p)
        pairs_sigma.append((e.surface, surface_energy_quadrature(phi0, p)))
        f1, f2 = fluid_energy_quadrature(phi0, p)
        pairs_f1.append((e.fluid_inner, f1))
        pairs_f2.append((e.fluid_outer, f2))
    reports.append(_compare("surface_energy_quadrature", pairs_sigma, 1e-8))
    reports.append(_compare("fluid_energy_quadrature_inner", pairs_f1, 1e-8))
    reports.append(_compare("fluid_energy_quadrature_outer", pairs_f2, 1e-8))

    # buoyancy: quadrature and divergence-theorem geometric area
    pairs_q, pairs_g = [], []
    archimedes_gap_ok = True
    n_gap = 0
    for phi0, p in draws:
        fb = float(buoyancy_closed(phi0, p))
        pairs_q.append((fb, buoyancy_quadrature(phi0, p)))
        pairs_g.append((fb, buoyancy_geometric(phi0, p)))
        u0 = float(center_height(phi0, p)) - math.cos(phi0)
        if abs(u0) > 0.05 and math.sin(phi0) > 0.1:
            n_gap += 1
            naive = submerged_segment_force(phi0, p)
            if abs(fb - naive) <= 1e-8 * max(1.0, abs(fb)):
                archimedes_gap_ok = False
    reports.append(_compare("buoyancy_quadrature", pairs_q, 1e-8))
    reports.append(_compare("buoyancy_divergence_theorem", pairs_g, 1e-8))
    reports.append(OracleReport(
        name="archimedes_naive_differs", samples=n_gap,
        max_abs_err=0.0, max_rel_err=0.0, tolerance=0.0,
        passed=bool(archimedes_gap_ok and n_gap > 0)))

    # energy-force identity (finite differences and analytic factorization)
    fd_worst = 0.0
    fact_worst = 0.0
    # at least ten draws where there are that many
    identity = draws[:max(10, n_sets // 10)]
    for phi0, p in identity:
        fd_worst = max(fd_worst, energy_force_identity_check(p).max_abs_err)
        fact_worst = max(fact_worst,
                         energy_factored_identity_check(p).max_rel_err)
    reports.append(OracleReport(
        name="energy_force_identity_fd", samples=len(identity) * 200,
        max_abs_err=fd_worst, max_rel_err=fd_worst, tolerance=1e-6,
        passed=bool(fd_worst <= 1e-6)))
    reports.append(OracleReport(
        name="energy_force_factored", samples=len(identity) * 200,
        max_abs_err=fact_worst, max_rel_err=fact_worst, tolerance=1e-10,
        passed=bool(fact_worst <= 1e-10)))

    # harmonic basis: projection and pointwise series equivalence
    four_worst = 0.0
    series_worst = 0.0
    grid = np.linspace(0.0, PI, 101)
    for phi0, p in identity:
        four_worst = max(four_worst, fourier_projection_check(p).max_abs_err)
        series_worst = max(series_worst, float(np.max(np.abs(
            force_series(grid, p) - total_force(grid, p)))))
    reports.append(OracleReport(
        name="fourier_coefficients", samples=len(identity) * 8,
        max_abs_err=four_worst, max_rel_err=four_worst, tolerance=1e-8,
        passed=bool(four_worst <= 1e-8)))
    reports.append(OracleReport(
        name="force_series_equivalence", samples=len(identity) * grid.size,
        max_abs_err=series_worst, max_rel_err=series_worst, tolerance=1e-12,
        passed=bool(series_worst <= 1e-12)))

    # height via the contact-inclination route
    pairs_h = []
    for phi0, p in draws:
        psi0 = float(inclination_at_contact(phi0, p.contact_angle))
        dual = math.cos(phi0) - (2.0 / p.capillary_ratio) * math.sin(psi0 / 2.0)
        pairs_h.append((float(center_height(phi0, p)), dual))
    reports.append(_compare("height_dual_formula", pairs_h, 1e-12))

    # derivative closed forms against central differences
    d_worst = 0.0
    for phi0, p in identity:
        h = 1e-6 * max(1.0, phi0)
        fd1 = (float(total_force(phi0 + h, p))
               - float(total_force(phi0 - h, p))) / (2.0 * h)
        fd2 = (float(force_slope(phi0 + h, p))
               - float(force_slope(phi0 - h, p))) / (2.0 * h)
        fdh = (float(center_height(phi0 + h, p))
               - float(center_height(phi0 - h, p))) / (2.0 * h)
        d_worst = max(d_worst,
                      abs(fd1 - float(force_slope(phi0, p))),
                      abs(fd2 - float(force_curvature(phi0, p))),
                      abs(fdh - float(center_height_slope(phi0, p))))
    reports.append(OracleReport(
        name="derivative_finite_difference", samples=len(identity) * 3,
        max_abs_err=d_worst, max_rel_err=d_worst, tolerance=1e-7,
        passed=bool(d_worst <= 1e-7)))

    # sampled interface satisfies the capillary relation d(psi)/ds = kappa u
    ode_worst = 0.0
    n_profiles = 0
    for phi0, p in identity:
        psi0 = float(inclination_at_contact(phi0, p.contact_angle))
        if abs(psi0) < 1e-3:
            continue
        prof = interface_profile(phi0, p, n=4000)
        dpsi = np.diff(prof.psi)
        ds = np.hypot(np.diff(prof.x), np.diff(prof.u))
        umid = 0.5 * (prof.u[1:] + prof.u[:-1])
        resid = np.abs(dpsi / ds - p.capillary_ratio ** 2 * umid)
        ode_worst = max(ode_worst, float(resid.max()))
        n_profiles += 1
    reports.append(OracleReport(
        name="profile_ode_residual", samples=n_profiles,
        max_abs_err=ode_worst, max_rel_err=ode_worst, tolerance=1e-4,
        passed=bool(ode_worst <= 1e-4 and n_profiles > 0)))

    # quadrature self-consistency between tolerance targets t and t/10
    conv_worst = 0.0
    n_conv = 0
    t = 1e-8
    for phi0, p in draws[:10]:
        psi0 = float(inclination_at_contact(phi0, p.contact_angle))
        if psi0 == 0.0:
            continue
        n_conv += 2
        conv_worst = max(conv_worst, abs(
            surface_energy_quadrature(phi0, p, tol=t)
            - surface_energy_quadrature(phi0, p, tol=t / 10.0)))
        conv_worst = max(conv_worst, abs(
            buoyancy_quadrature(phi0, p, tol=t)
            - buoyancy_quadrature(phi0, p, tol=t / 10.0)))
    reports.append(OracleReport(
        name="quadrature_convergence", samples=n_conv,
        max_abs_err=conv_worst, max_rel_err=conv_worst, tolerance=10.0 * t,
        passed=bool(conv_worst <= 10.0 * t)))

    return reports
