"""Closed-form statics of an infinite horizontal cylinder floating on an unbounded bath.

All quantities are reduced to dimensionless form: lengths in units of the
cylinder radius ``a``, forces in units of the surface tension ``sigma``
(per unit cylinder length), energies in units of ``sigma * a``.  Three
numbers then control everything:

* ``mass_ratio``       A = m / (a^2 rho),
* ``capillary_ratio``  C = a * sqrt(rho g / sigma), the square root of the
  Bond number (cylinder radius over capillary length),
* ``contact_angle``    gamma in [0, pi].

The wetting angle ``phi0`` in [0, pi] is the half-angle of the wetted arc,
measured from the downward vertical.  The meniscus inclination at the
contact point is pinned by geometry: ``psi0 = phi0 + gamma - pi``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_np = None  # NumPy, once _numpy has imported it


def _numpy():
    """NumPy, imported by the first call that needs it: float inputs run on
    math, so a process passing no array (astar, curves) never loads it."""
    global _np
    if _np is None:
        import numpy as _np
    return _np


def _check_contact_angle(contact_angle) -> None:
    """ValueError unless 0 <= contact_angle <= pi; NaN fails."""
    if not 0.0 <= contact_angle <= math.pi:
        raise ValueError(
            f"contact_angle must lie in [0, pi], got {contact_angle!r}")


def _check_positive(name, value) -> None:
    """ValueError naming ``name`` unless 0 < value < inf; NaN fails."""
    if not 0.0 < value < math.inf:
        raise ValueError(
            f"{name} must be strictly positive and finite, got {value!r}")


def _check_integer(name, value) -> None:
    """ValueError naming ``name`` unless ``value``, or each entry of a tuple
    or list ``value``, is an int or a NumPy integer; 2.5 and NaN fail.
    Callers test a count's range first, which keeps their messages, and
    call this before the count sizes any work."""
    values = value if isinstance(value, (tuple, list)) else (value,)
    if not all(isinstance(v, (int, _numpy().integer)) for v in values):
        what = "integers" if values is value else "an integer"
        raise ValueError(f"{name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class PhysicalParams:
    """Dimensional inputs (any coherent unit system, e.g. CGS).

    mass_per_length: cylinder mass per unit axial length.
    density_diff: liquid minus gas density.
    surface_tension: liquid/gas surface tension.
    gravity: gravitational acceleration.
    radius: cylinder radius.
    contact_angle: prescribed contact angle, radians, in [0, pi].
    """

    mass_per_length: float
    density_diff: float
    surface_tension: float
    gravity: float
    radius: float
    contact_angle: float

    def __post_init__(self):
        for name in ("mass_per_length", "density_diff", "surface_tension",
                     "gravity", "radius"):
            _check_positive(name, getattr(self, name))
        _check_contact_angle(self.contact_angle)

    @property
    def capillary_constant(self) -> float:
        """kappa = rho g / sigma, inverse square of the capillary length."""
        return self.density_diff * self.gravity / self.surface_tension


@dataclass(frozen=True)
class DimensionlessParams:
    """The reduced parameter triple (mass ratio, sqrt Bond number, contact angle).

    ``exploratory=True`` lifts the ``mass_ratio > 0`` requirement so that
    buoyant-lighter-than-gas configurations (negative effective mass) can be
    explored; everything downstream treats them consistently.
    """

    mass_ratio: float
    capillary_ratio: float
    contact_angle: float
    exploratory: bool = False

    def __post_init__(self):
        a, c = self.mass_ratio, self.capillary_ratio
        _check_positive("capillary_ratio", c)
        _check_contact_angle(self.contact_angle)
        if not self.exploratory and not a > 0.0:
            raise ValueError(
                f"mass_ratio must be strictly positive, got {a!r} "
                "(pass exploratory=True to allow it)")
        # also rejects a non-finite A; sign tests multiply two forces
        scale = (abs(a) + math.pi) * c * c
        if not math.isfinite(scale * scale):
            raise ValueError(
                f"mass_ratio={a!r} with capillary_ratio={c!r} gives a force "
                f"scale (|A| + pi) C^2 = {scale:.3g} too large to square")
        # the largest multiple of 1/C printed is a profile's x/a - sin(phi0),
        # below 743/C: its 2 cos(psi/2) + ln|tan(psi/4)| lies between
        # 2 + ln(5e-324) > -742.45 and sqrt 2 + ln tan(pi/8) < 0.533
        # (interface_profile); heights reach 2/C and energies 8/(3C)
        if not math.isfinite(1e3 / c):
            raise ValueError(
                f"capillary_ratio={c!r} is too small: lengths of order 1/C, "
                "up to 743/C in a meniscus profile, would overflow")

    @property
    def bond_number(self) -> float:
        return self.capillary_ratio ** 2


def to_dimensionless(p: PhysicalParams) -> DimensionlessParams:
    """Reduce dimensional parameters to the governing triple."""
    a = p.radius
    return DimensionlessParams(
        mass_ratio=p.mass_per_length / (a * a * p.density_diff),
        capillary_ratio=a * math.sqrt(p.capillary_constant),
        contact_angle=p.contact_angle,
    )


def inclination_at_contact(phi0, contact_angle):
    """Meniscus inclination at the contact point: psi0 = phi0 + gamma - pi."""
    return phi0 + contact_angle - math.pi


def _check_phi0(phi0):
    if isinstance(phi0, (float, int)):
        lo = hi = phi0
    else:
        np = _numpy()
        lo = np.min(phi0)
        hi = np.max(phi0)
    # written so that NaN fails
    if not (lo >= -1e-12 and hi <= math.pi + 1e-12):
        raise ValueError(f"phi0 must lie in [0, pi], got range [{lo}, {hi}]")


def center_height(phi0, params: DimensionlessParams):
    """Cylinder center height over the undisturbed level, h/a.

    h/a = cos(phi0) + (2/C) cos((phi0 + gamma)/2); the meniscus term is the
    contact-point fluid height u0/a.
    """
    _check_phi0(phi0)
    return _height(phi0, params.capillary_ratio, params.contact_angle)


def _height(phi0, c, g):
    """center_height without the domain check; see _force for the float case."""
    xp = math if isinstance(phi0, float) else _numpy()
    return xp.cos(phi0) + (2.0 / c) * xp.cos((phi0 + g) / 2.0)


def center_height_slope(phi0, params: DimensionlessParams):
    """d(h/a)/d(phi0); strictly negative on (0, pi) except phi0 = gamma = 0 or pi.

    A float phi0 runs on ``math``, as in ``_force``.
    """
    _check_phi0(phi0)
    c = params.capillary_ratio
    g = params.contact_angle
    xp = math if isinstance(phi0, float) else _numpy()
    return -xp.sin(phi0) - (1.0 / c) * xp.sin((phi0 + g) / 2.0)


def total_force(phi0, params: DimensionlessParams):
    """Net vertical force on the cylinder, in units of sigma.

    Sum of weight, the vertical pull of the two menisci, and the pressure
    integral over the wetted arc:

        F = -A C^2 - 2 sin(phi0+gamma)
            - 4 C cos((phi0+gamma)/2) sin(phi0)
            - (1/2) C^2 sin(2 phi0) + C^2 phi0.

    A float phi0 with float params gives a Python float, an array an array.
    """
    _check_phi0(phi0)
    return _force(phi0, params.mass_ratio, params.capillary_ratio,
                  params.contact_angle)


def _force(phi0, a, c, g):
    """total_force without the domain check; any phi0 (periodic extension).

    A float phi0 runs on ``math``, so a lone lane stays on Python floats:
    with float a, c and g the result is a float.  An array phi0 runs on
    NumPy.  The two agree bit for bit only where math's sin and cos give
    NumPy's bits, a property of the platform that
    ``test_float_kernels_match_numpy`` checks.
    """
    xp = math if isinstance(phi0, float) else _numpy()
    return (-a * c * c - 2.0 * xp.sin(phi0 + g)
            - 4.0 * c * xp.cos((phi0 + g) / 2.0) * xp.sin(phi0)
            - 0.5 * c * c * xp.sin(2.0 * phi0) + c * c * phi0)


def force_slope(phi0, params: DimensionlessParams):
    """dF/d(phi0).  Independent of the mass ratio (it only shifts F)."""
    _check_phi0(phi0)
    return _slope(phi0, params.capillary_ratio, params.contact_angle)


def _slope(phi0, c, g):
    """force_slope without the domain check; see _force for the float case."""
    xp = math if isinstance(phi0, float) else _numpy()
    return (-2.0 * xp.cos(phi0 + g)
            + 2.0 * c * xp.sin((phi0 + g) / 2.0) * xp.sin(phi0)
            - 4.0 * c * xp.cos((phi0 + g) / 2.0) * xp.cos(phi0)
            - c * c * xp.cos(2.0 * phi0) + c * c)


def force_curvature(phi0, params: DimensionlessParams):
    """d2F/d(phi0)^2, also independent of the mass ratio."""
    _check_phi0(phi0)
    return _slope_curv(phi0, params.capillary_ratio, params.contact_angle)[1]


def _slope_curv(phi0, c, g):
    """(_slope, force_curvature) at phi0 without the domain check, from
    one set of sines and cosines: 8 transcendental calls where two
    separate kernels make 12.  The slope keeps _slope's expression, so it
    equals _slope bit for bit, on floats and on arrays; see _force for the
    float case."""
    xp = math if isinstance(phi0, float) else _numpy()
    t = phi0 + g
    sin_h, cos_h = xp.sin(t / 2.0), xp.cos(t / 2.0)
    sin_p, cos_p = xp.sin(phi0), xp.cos(phi0)
    return ((-2.0 * xp.cos(t) + 2.0 * c * sin_h * sin_p
             - 4.0 * c * cos_h * cos_p - c * c * xp.cos(2.0 * phi0) + c * c),
            (2.0 * xp.sin(t) + 5.0 * c * cos_h * sin_p
             + 4.0 * c * sin_h * cos_p + 2.0 * c * c * xp.sin(2.0 * phi0)))


@dataclass(frozen=True)
class EnergyBreakdown:
    """Potential energies relative to the undisturbed bath, in units of sigma*a.

    gravity: body potential, A C^2 * h/a.
    wetting: wetted-arc adhesion, -2 phi0 cos(gamma).
    surface: stretched meniscus area minus the flat reference.
    fluid_inner: displaced-fluid column under the cylinder (between the
        vertical axis and the contact verticals).
    fluid_outer: lifted/depressed fluid under the outer menisci.
    """

    gravity: float
    wetting: float
    surface: float
    fluid_inner: float
    fluid_outer: float

    @property
    def total(self):
        return (self.gravity + self.wetting + self.surface
                + self.fluid_inner + self.fluid_outer)


def total_energy(phi0, params: DimensionlessParams) -> EnergyBreakdown:
    """Component-wise total potential energy at wetting angle phi0.

    Accepts scalars or arrays; components are then arrays of the same shape,
    and a float phi0 runs on ``math``, as in ``_force``.  Every component is
    continuous through the flat-interface configuration phi0 + gamma = pi.
    """
    _check_phi0(phi0)
    a = params.mass_ratio
    c = params.capillary_ratio
    g = params.contact_angle
    xp = math if isinstance(phi0, float) else _numpy()
    psi0 = inclination_at_contact(phi0, g)
    half = (phi0 + g) / 2.0
    cos_half, sin_half = xp.cos(psi0 / 2.0), xp.sin(psi0 / 2.0)

    e_gravity = a * c * c * (xp.cos(phi0) + (2.0 / c) * xp.cos(half))
    e_wetting = -2.0 * phi0 * xp.cos(g)
    e_surface = (4.0 / c) * (1.0 - cos_half) - 2.0 * xp.sin(phi0)
    e_outer = -(4.0 / (3.0 * c)) * (1.0 - 2.0 * cos_half
                                    + cos_half * xp.cos(psi0))
    e_inner = (c * c / 12.0 * xp.sin(3.0 * phi0)
               - c * c * phi0 * xp.cos(phi0)
               + 0.75 * c * c * xp.sin(phi0)
               - c * sin_half * xp.sin(2.0 * phi0)
               + 2.0 * c * phi0 * sin_half
               + 4.0 * (sin_half * sin_half) * xp.sin(phi0))
    return EnergyBreakdown(gravity=e_gravity, wetting=e_wetting,
                           surface=e_surface, fluid_inner=e_inner,
                           fluid_outer=e_outer)


@dataclass(frozen=True)
class InterfaceProfile:
    """Sampled meniscus on the right side of the cylinder (x > 0).

    samples: (n, 3) array with columns (psi, x/a, u/a), ordered from the
        contact point toward the far field (psi -> 0, never reached: the
        horizontal coordinate diverges logarithmically there).
    psi0: inclination at the contact point.
    contact: (x0/a, u0/a) at the contact point.
    flat: True for the degenerate flat interface (phi0 + gamma = pi), where
        samples hold a two-point stub on the undisturbed level.
    """

    samples: np.ndarray
    psi0: float
    contact: tuple
    flat: bool = False

    @property
    def psi(self):
        return self.samples[:, 0]

    @property
    def x(self):
        return self.samples[:, 1]

    @property
    def u(self):
        return self.samples[:, 2]


def interface_profile(phi0, params: DimensionlessParams, n: int = 1000,
                      psi_cutoff: float = 1e-6) -> InterfaceProfile:
    """Sample the right meniscus between the contact point and the far field.

    The curve is the classical solution of the planar capillary equation
    d(psi)/ds = kappa u with u -> 0 as psi -> 0:

        u/a = -(2/C) sin(psi/2)
        x/a = -(1/C) (2 cos(psi/2) + ln|tan(psi/4)|) + const,

    the constant fixed by x(psi0) = sin(phi0).  Samples are spaced uniformly
    in arc length (ln|tan(psi/4)| is arc length up to scale), which keeps
    adjacent-sample differencing well conditioned all the way to the cutoff.
    psi stops at sign(psi0) * psi_cutoff, excluded endpoint psi = 0.
    """
    _check_phi0(phi0)
    if n < 2:
        raise ValueError(f"need at least two samples, got n={n}")
    _check_integer("n", n)
    np = _numpy()
    c = params.capillary_ratio
    g = params.contact_angle
    psi0 = float(inclination_at_contact(phi0, g))

    if psi0 == 0.0:
        x0 = math.sin(phi0)
        samples = np.array([[0.0, x0, 0.0], [0.0, x0 + 1.0, 0.0]])
        return InterfaceProfile(samples=samples, psi0=0.0, contact=(x0, 0.0),
                                flat=True)

    if not 0.0 < psi_cutoff < abs(psi0):
        raise ValueError(
            f"psi_cutoff must lie in (0, |psi0|) = (0, {abs(psi0)}), got {psi_cutoff!r}")

    sgn = math.copysign(1.0, psi0)
    tau0 = math.log(math.tan(abs(psi0) / 4.0))
    tau_end = math.log(math.tan(psi_cutoff / 4.0))
    tau = np.linspace(tau0, tau_end, n)
    psi = sgn * 4.0 * np.arctan(np.exp(tau))
    psi[0] = psi0  # exact contact endpoint

    u = -(2.0 / c) * np.sin(psi / 2.0)
    xterm = 2.0 * np.cos(psi / 2.0) + np.log(np.abs(np.tan(psi / 4.0)))
    x = -(xterm - xterm[0]) / c + math.sin(phi0)  # x(psi0) = sin(phi0) exactly
    samples = np.column_stack([psi, x, u])
    return InterfaceProfile(samples=samples, psi0=psi0,
                            contact=(float(x[0]), float(u[0])))
