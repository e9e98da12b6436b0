"""Independent numerical cross-checks of every closed form in the model.

Each check recomputes a closed-form quantity by a route that shares no
algebra with the model implementation: adaptive quadrature of the defining
integrals, finite differences of the energy, Fourier projection of the
force onto its harmonic basis, and a geometric (divergence-theorem) route
to the buoyant force.  ``run_all`` exercises everything over randomized
parameter sets and returns machine-checkable reports.

The quadrature is QUADPACK's (Piessens, de Doncker-Kapenga, Ueberhuber and
Kahaner, *QUADPACK*, Springer 1983): the 21-point Gauss-Kronrod rule
dqk21 and the adaptive routine dqagse up to its first bisection, in
QUADPACK's order of operations, so that value and error estimate equal
``scipy.integrate.quad``'s bit for bit.  An integrand that needs a third
interval raises ``QuadratureError``; none of the suite's draws needs one.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .model import (DimensionlessParams, _check_integer, _force,
                    center_height, center_height_slope, force_curvature,
                    force_slope, inclination_at_contact, interface_profile,
                    total_energy, total_force)

PI = math.pi


class QuadratureError(ValueError):
    """The in-repo QUADPACK rule missed its accuracy target.

    Raised where dqagse would bisect a second time (this port stops at
    two intervals), and where the error estimate exceeds 50 times the
    target.
    """


@dataclass(frozen=True)
class OracleReport:
    name: str
    samples: int
    max_abs_err: float
    max_rel_err: float
    tolerance: float
    passed: bool


# dqk21's constants: the 21 Kronrod nodes on [0, 1], largest first, with
# the centre last; the odd entries are the 10-point Gauss nodes
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
        0.0)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077208067125548, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
# Gauss weights of _XGK[1], _XGK[3], ..., _XGK[9]
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min


def _qk21(fn, a, b):
    """dqk21 on [a, b]: (result, abserr, resabs, resasc)."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fc = fn(centr)
    resg = 0.0
    resk = _WGK[10] * fc
    resabs = abs(resk)
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    # the Gauss nodes first, then the Kronrod extension, as dqk21 sums them
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):
        absc = hlgth * _XGK[j]
        fval1 = fv1[j] = fn(centr - absc)
        fval2 = fv2[j] = fn(centr + absc)
        fsum = fval1 + fval2
        if j % 2:
            resg = resg + _WG[j // 2] * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    resabs = resabs * abs(hlgth)
    resasc = resasc * abs(hlgth)
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max(_EPMACH * 50.0 * resabs, abserr)
    return resk * hlgth, abserr, resabs, resasc


def _qagse(fn, lo, hi, tol):
    """``quad(fn, lo, hi, epsabs=tol, epsrel=tol)`` as (value, abserr).

    dqagse on the ascending interval, negated where hi < lo as SciPy does;
    None where dqagse would go on past its first bisection.
    """
    if lo == hi:
        return 0.0, 0.0
    a, b = min(lo, hi), max(lo, hi)
    result, abserr, defabs, resasc = _qk21(fn, a, b)
    errbnd = max(tol, tol * abs(result))
    # dqagse stops after one interval when done or when it flags roundoff
    if not ((abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd)
            or (abserr <= errbnd and abserr != resasc) or abserr == 0.0):
        mid = 0.5 * (a + b)
        area1, error1, _, _ = _qk21(fn, a, mid)
        area2, error2, _, _ = _qk21(fn, mid, b)
        # its running totals, updated (and so rounded) as dqagse updates them
        errsum = abserr + (error1 + error2) - abserr
        area = result + (area1 + area2) - result
        if not errsum <= max(tol, tol * abs(area)):
            return None
        result, abserr = area1 + area2, errsum
    return (-result if hi < lo else result), abserr


def _quad(fn, lo, hi, tol, name):
    out = _qagse(fn, lo, hi, tol)
    if out is None:
        raise QuadratureError(
            f"{name}: needs more than two intervals to reach target "
            f"{tol:.3e} on [{lo}, {hi}]")
    val, abserr = out
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


def fourier_coefficients(params: DimensionlessParams):
    """Projected harmonic coefficients (a_n, b_n), n = 1..4, of the force.

    Projects F + A C^2 - C^2 phi0 (periodic part, period 4 pi) onto
    cos(n phi0 / 2) and sin(n phi0 / 2) with a composite rectangle rule on
    4096 nodes, which is exact for trigonometric polynomials of low degree.
    """
    a = params.mass_ratio
    c = params.capillary_ratio
    dph = 4.0 * PI / 4096
    ph = np.arange(4096) * dph
    periodic = _force(ph, a, c, params.contact_angle) + a * c * c - c * c * ph
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


def _worst(name, samples, worst, tolerance, ok=True):
    """Report whose absolute and relative errors are both ``worst``."""
    return OracleReport(name=name, samples=samples, max_abs_err=worst,
                        max_rel_err=worst, tolerance=tolerance,
                        passed=bool(ok and worst <= tolerance))


def energy_force_identity_check(params: DimensionlessParams) -> OracleReport:
    """Check -dE/dphi0 / (dh/dphi0) = F with finite-difference dE/dphi0.

    On 200 evenly spaced points of [0.1, pi - 0.1] the energy is differenced
    centrally with step 1e-5 * max(1, phi0); the quotient against the
    analytic height slope must reproduce the force to 1e-6.
    """
    grid = np.linspace(0.1, PI - 0.1, 200)
    h = 1e-5 * np.maximum(1.0, np.abs(grid))
    e_plus = total_energy(grid + h, params).total
    e_minus = total_energy(grid - h, params).total
    de = (e_plus - e_minus) / (2.0 * h)
    ratio = -de / center_height_slope(grid, params)
    resid = np.abs(ratio - total_force(grid, params))
    return _worst("energy_force_identity_fd", grid.size, float(resid.max()),
                  1e-6)


def energy_factored_identity_check(params: DimensionlessParams
                                   ) -> OracleReport:
    """Check dE/dphi0 = F * (sin(phi0) + sin((phi0+gamma)/2)/C) analytically.

    Left side from the term-by-term energy derivative, right side from the
    force formula times the common factor (minus the height slope); on 200
    evenly spaced points of [0.05, pi - 0.05] they must agree to 1e-10 in
    scaled terms.
    """
    grid = np.linspace(0.05, PI - 0.05, 200)
    lhs = energy_slope(grid, params)
    common = -center_height_slope(grid, params)
    rhs = total_force(grid, params) * common
    return _compare("energy_force_factored", list(zip(rhs, lhs)), 1e-10)


def fourier_projection_check(params: DimensionlessParams) -> OracleReport:
    """Projected force coefficients against the closed-form expansion.

    The projection uses ``fourier_coefficients``' 4096 nodes; the eight
    coefficients must match to 1e-8.
    """
    got_a, got_b = fourier_coefficients(params)
    exp_a, exp_b = expected_fourier_coefficients(params)
    errs = np.abs(np.array(got_a + got_b) - np.array(exp_a + exp_b))
    return _worst("fourier_coefficients", 8, float(errs.max()), 1e-8)


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
    if n_sets < 1:
        raise ValueError(f"n_sets must be at least 1, got {n_sets!r}")
    _check_integer("n_sets", n_sets)
    rng = np.random.default_rng(seed)
    draws = _draw_params(rng, n_sets)

    # closed-form energies against quadrature
    pairs_sigma, pairs_f1, pairs_f2 = [], [], []
    for phi0, p in draws:
        e = total_energy(phi0, p)
        pairs_sigma.append((e.surface, surface_energy_quadrature(phi0, p)))
        f1, f2 = fluid_energy_quadrature(phi0, p)
        pairs_f1.append((e.fluid_inner, f1))
        pairs_f2.append((e.fluid_outer, f2))

    # buoyancy: quadrature and divergence-theorem geometric area; the
    # height via the contact-inclination route
    pairs_q, pairs_g, pairs_h = [], [], []
    archimedes_gap_ok = True
    n_gap = 0
    for phi0, p in draws:
        h = float(center_height(phi0, p))
        fb = float(buoyancy_closed(phi0, p))
        pairs_q.append((fb, buoyancy_quadrature(phi0, p)))
        pairs_g.append((fb, buoyancy_geometric(phi0, p)))
        psi0 = float(inclination_at_contact(phi0, p.contact_angle))
        pairs_h.append((h, math.cos(phi0)
                        - (2.0 / p.capillary_ratio) * math.sin(psi0 / 2.0)))
        if abs(h - math.cos(phi0)) > 0.05 and math.sin(phi0) > 0.1:
            n_gap += 1
            naive = submerged_segment_force(phi0, p)
            if abs(fb - naive) <= 1e-8 * max(1.0, abs(fb)):
                archimedes_gap_ok = False

    # at least ten draws where there are that many: the energy-force
    # identity, the harmonic basis, the derivative closed forms against
    # central differences, and the sampled interface against the capillary
    # relation d(psi)/ds = kappa u
    identity = draws[:max(10, n_sets // 10)]
    grid = np.linspace(0.0, PI, 101)
    fd_worst = fact_worst = four_worst = series_worst = 0.0
    d_worst = ode_worst = 0.0
    n_profiles = 0
    for phi0, p in identity:
        fd_worst = max(fd_worst, energy_force_identity_check(p).max_abs_err)
        fact_worst = max(fact_worst,
                         energy_factored_identity_check(p).max_rel_err)
        four_worst = max(four_worst, fourier_projection_check(p).max_abs_err)
        series_worst = max(series_worst, float(np.max(np.abs(
            force_series(grid, p) - total_force(grid, p)))))
        step = 1e-6 * max(1.0, phi0)
        for fn, slope in ((total_force, force_slope),
                          (force_slope, force_curvature),
                          (center_height, center_height_slope)):
            fd = (float(fn(phi0 + step, p))
                  - float(fn(phi0 - step, p))) / (2.0 * step)
            d_worst = max(d_worst, abs(fd - float(slope(phi0, p))))
        if abs(float(inclination_at_contact(phi0, p.contact_angle))) >= 1e-3:
            prof = interface_profile(phi0, p, n=4000)
            dpsi = np.diff(prof.psi)
            ds = np.hypot(np.diff(prof.x), np.diff(prof.u))
            umid = 0.5 * (prof.u[1:] + prof.u[:-1])
            resid = np.abs(dpsi / ds - p.capillary_ratio ** 2 * umid)
            ode_worst = max(ode_worst, float(resid.max()))
            n_profiles += 1

    # quadrature self-consistency between tolerance targets t and t/10
    conv_worst = 0.0
    n_conv = 0
    t = 1e-8
    for phi0, p in draws[:10]:
        if float(inclination_at_contact(phi0, p.contact_angle)) == 0.0:
            continue
        n_conv += 2
        for quad in (surface_energy_quadrature, buoyancy_quadrature):
            conv_worst = max(conv_worst, abs(
                quad(phi0, p, tol=t) - quad(phi0, p, tol=t / 10.0)))

    n_id = len(identity)
    return [
        _compare("surface_energy_quadrature", pairs_sigma, 1e-8),
        _compare("fluid_energy_quadrature_inner", pairs_f1, 1e-8),
        _compare("fluid_energy_quadrature_outer", pairs_f2, 1e-8),
        _compare("buoyancy_quadrature", pairs_q, 1e-8),
        _compare("buoyancy_divergence_theorem", pairs_g, 1e-8),
        _worst("archimedes_naive_differs", n_gap, 0.0, 0.0,
               ok=archimedes_gap_ok and n_gap > 0),
        _worst("energy_force_identity_fd", n_id * 200, fd_worst, 1e-6),
        _worst("energy_force_factored", n_id * 200, fact_worst, 1e-10),
        _worst("fourier_coefficients", n_id * 8, four_worst, 1e-8),
        _worst("force_series_equivalence", n_id * grid.size, series_worst,
               1e-12),
        _compare("height_dual_formula", pairs_h, 1e-12),
        _worst("derivative_finite_difference", n_id * 3, d_worst, 1e-7),
        _worst("profile_ode_residual", n_profiles, ode_worst, 1e-4,
               ok=n_profiles > 0),
        _worst("quadrature_convergence", n_conv, conv_worst, 10.0 * t),
    ]
