"""Maps of the (mass ratio, capillary ratio) plane by equilibrium count and validity.

At fixed contact angle, three curves organize the plane:

* endpoint curve: the force vanishes at phi0 = pi, so a root enters or
  leaves through the fully wetted configuration; analytic,
  C = sqrt(2 sin(gamma) / (A - pi)) (degenerating to the vertical line
  A = pi for gamma in {0, pi}).
* tangency curve: the force maximum touches zero, so the equilibrium pair
  is born or annihilated; the graph of the critical mass ratio.
* intersection curve: the larger equilibrium sits exactly on the meniscus
  self-intersection boundary (contact angles above pi/2 only).

Each grid cell gets the label find_equilibria plus the validity test would
give it, so labels are self-consistent with the library.  A label needs
only the root count and, for a root in an overhang regime, the sign of
the intersection margin there, so most cells need no root at all.  In a
column of fixed C the curves are levels A C^2 of the mass-free force:
its values at pi, at its maximum, and, above pi/2 only, at the ends of
the part of the overhang regime where the margin is negative: no
equilibrium self-intersects at or below pi/2 (``intersection`` has the
proof).  No root lies before the force minimum, where the force is at
most -2 sin(gamma) <= A C^2, so a cell's label follows from where its
level falls among the breakpoints of its column, those values and the
force at 0: three at or below pi/2, five above (``_count_block`` has the
proof).  The cells within a proven band of a breakpoint, none of the
40,000 of a default 200 x 200 map at the contact angles tested, go
through find_equilibria's cell solver one by one, with the map's maxima
and their columns' minima; find_equilibria still bisects every root.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .equilibria import (PHI0_TOL, ROOT_VALUE_TOL, _RTOL, _bounds,
                         _cell_roots, _check_mass_free, _extrema,
                         _extremum_brackets, _halve, bisect, find_equilibria,
                         second_extremum_threshold)
from .intersection import _margin, _overhang, intersection_margin, validity
from .model import (DimensionlessParams, _check_contact_angle, _check_integer,
                    _force, _slope, total_force)

PI = math.pi
# The margin's rounding band, per unit of C + 4 (see _count_block).
_MARGIN_BAND = 2.0 ** -40
# bisect's last bracket on [0, pi], LB in _count_block
_LB = PHI0_TOL + _RTOL * PI


class RegionLabel(str, Enum):
    ZERO = "zero"
    ONE = "one"
    TWO = "two"
    ONE_VALID_ONE_INVALID = "one_valid_one_invalid"


class CurveKind(str, Enum):
    ENDPOINT = "endpoint"
    TANGENCY = "tangency"
    INTERSECTION = "intersection"


@dataclass(frozen=True)
class BoundaryCurve:
    """Ordered (mass_ratio, capillary_ratio) polyline of one boundary."""

    kind: CurveKind
    points: np.ndarray  # (n, 2) columns: mass ratio, capillary ratio

    @property
    def analytic(self) -> bool:
        """True for the endpoint curve, the one sampled from a closed form."""
        return self.kind is CurveKind.ENDPOINT


@dataclass(frozen=True)
class RegionMap:
    contact_angle: float
    a_axis: np.ndarray
    c_axis: np.ndarray
    labels: np.ndarray  # (len(a_axis), len(c_axis)) of RegionLabel
    curves: list[BoundaryCurve] = field(default_factory=list)


def endpoint_boundary_is_vertical(contact_angle: float) -> bool:
    """True when the endpoint curve degenerates to the line A = pi."""
    _check_contact_angle(contact_angle)
    return contact_angle in (0.0, PI)


def endpoint_boundary_c(contact_angle: float, mass_ratio: float) -> float | None:
    """Capillary ratio with a zero force at phi0 = pi, or None.

    For contact angles away from 0 and pi: C = sqrt(2 sin(gamma)/(A - pi)),
    defined for A > pi only.  At gamma in {0, pi} the condition is the
    vertical line A = pi, which has no single-valued C(A) form; this
    returns None there (use endpoint_boundary_is_vertical).  A contact
    angle outside [0, pi] or a non-finite mass ratio raises ValueError.
    """
    _check_contact_angle(contact_angle)
    _check_finite_mass(mass_ratio)
    if endpoint_boundary_is_vertical(contact_angle):
        return None
    if mass_ratio <= PI:
        return None
    return math.sqrt(2.0 * math.sin(contact_angle) / (mass_ratio - PI))


def two_equilibrium_corner(contact_angle: float) -> tuple[float, float]:
    """Corner (A0, C0) where the endpoint and tangency curves meet.

    Defined for contact angles in (0, pi/2): C0 is the capillary ratio at
    which the second force extremum first appears, and A0 puts the endpoint
    zero exactly there: A0 = pi + 2 sin(gamma) / C0^2 (pi once C0^2 overflows).
    """
    if not 0.0 < contact_angle < PI / 2.0:
        raise ValueError(
            "corner exists for contact angles in (0, pi/2) only, got "
            f"{contact_angle!r}")
    c0 = second_extremum_threshold(contact_angle)
    a0 = PI + 2.0 * math.sin(contact_angle) / c0 ** 2 if c0 < 1e154 else PI
    return a0, c0


def _check_samples(name, n):
    if n < 0:
        raise ValueError(f"{name} must be non-negative, got {n!r}")
    _check_integer(name, n)


def _check_windows(a_window, c_window):
    """Whether the windows hold a point: none where lo >= hi on either
    axis, reversed or of zero width, as ``region_map`` requires lo < hi.
    ValueError for a NaN or infinite bound in either window or a C bound
    below 0; an A bound may be negative."""
    (a_lo, a_hi), (c_lo, c_hi) = a_window, c_window
    if not (math.isfinite(a_lo) and math.isfinite(a_hi)):
        raise ValueError(f"mass_ratio window {a_window!r} has a NaN or "
                         "infinite bound")
    # written so that a NaN bound fails
    if not (0.0 <= c_lo < math.inf and 0.0 <= c_hi < math.inf):
        raise ValueError(f"capillary_ratio window {c_window!r} needs finite "
                         "bounds at or above 0, not NaN")
    return a_lo < a_hi and c_lo < c_hi


def _check_finite_mass(mass_ratio):
    if not math.isfinite(mass_ratio):
        raise ValueError(f"mass_ratio must be finite, got {mass_ratio!r}")


def tangency_boundary_c(contact_angle: float,
                        mass_ratio: float) -> float | None:
    """Capillary ratio C* whose critical mass ratio is ``mass_ratio``, or None.

    None for A <= pi, and at gamma < pi/2 for gamma = 0 or A >= A0; a contact
    angle outside [0, pi] or a non-finite A raises ValueError.  At fixed
    phi0 = x, F = p C^2 + q C + r with p = x - sin x cos x - A < 0,
    q = -4 cos((x+gamma)/2) sin x and r = -2 sin(x+gamma), so F < 0 where
    x + gamma < pi, as q, r < 0 there.  On [lo, pi], lo = max(the maximum's
    bracket start, pi - gamma), q, r >= 0: the larger root C+ =
    (q + sqrt(q^2 - 4pr)) / (-2p) >= 0 does not cancel (over w = sqrt(-p), so
    nothing overflows; disc clamped at 0).  F >= 0 exactly for C <= C+(x), and
    A* falls strictly in C, so C* = max C+.  C+' has the sign of
    f(x) = F'(x; C+(x)), as dF/dC = -sqrt(disc) < 0, and a zero of f is an
    interior maximum of F(.; C+(x)) touching zero: f has at most one, and
    f(lo) > 0 (f = 2 at pi - gamma; at pi/2 and 3pi/4, -2 cos(x + gamma), the C
    terms together and C^2 are positive).  F'(pi; C) = 2 cos gamma -
    4 C sin(gamma/2) < 0 exactly when C > C0 (the threshold), or A < A0:
    ``_halve`` from f(lo), reading signs only, finds the zero; else C+ peaks
    at pi, on the endpoint curve, and C* does not exist.  C+ is flat there,
    so C* is exact to rounding, also near pi, near A0 and at large A.
    """
    _check_contact_angle(contact_angle)
    _check_finite_mass(mass_ratio)
    if mass_ratio <= PI:
        return None

    def c_plus(x):
        w = math.sqrt(mass_ratio - x + 0.5 * math.sin(2.0 * x))
        u = -4.0 * math.cos((x + contact_angle) / 2.0) * math.sin(x) / w
        r = -2.0 * math.sin(x + contact_angle)
        return (u + math.sqrt(max(u * u + 4.0 * r, 0.0))) / (2.0 * w)

    def f(x):
        return _slope(x, c_plus(x), contact_angle) if x < PI else -1.0

    if not c_plus(PI) > second_extremum_threshold(contact_angle):
        return None
    lo = max(_extremum_brackets(contact_angle)[1][0], PI - contact_angle)
    return c_plus(_halve(f, lo, PI, f(lo)))


def trace_endpoint_curve(contact_angle, a_window, c_window,
                         n: int = 200) -> BoundaryCurve:
    """Endpoint curve clipped to a plotting window, sampled in mass ratio.

    A window with a NaN or infinite bound, or with a C bound below 0,
    raises ValueError; one with lo >= hi on either axis gives an empty
    curve (``_check_windows``).
    """
    _check_contact_angle(contact_angle)
    _check_samples("n", n)
    if not _check_windows(a_window, c_window):
        return BoundaryCurve(CurveKind.ENDPOINT, np.empty((0, 2)))
    a_lo, a_hi = a_window
    c_lo, c_hi = c_window
    if endpoint_boundary_is_vertical(contact_angle):
        c_lo = max(c_lo, 1e-12)
        if not (a_lo <= PI <= a_hi and c_lo < c_hi):
            pts = np.empty((0, 2))
        else:
            pts = np.column_stack([np.full(n, PI),
                                   np.linspace(c_lo, c_hi, n)])
        return BoundaryCurve(CurveKind.ENDPOINT, pts)
    s = 2.0 * math.sin(contact_angle)
    # C(A) <= c_hi needs A >= pi + s/c_hi^2; C(A) >= c_lo needs A <= pi + s/c_lo^2.
    # A square that underflows to 0 stands for its limit, A = inf, and one
    # that overflows for its own, A = pi: from C = 1e154 on, where Python's
    # C ** 2 may raise, pi + s/C^2 rounds to pi anyway.  Where it does, the
    # float above pi is the first A with a finite C(A), and that C is still
    # below c_hi.
    sq_lo, sq_hi = (c ** 2 if c < 1e154 else math.inf for c in c_window)
    lo = (max(a_lo, math.nextafter(PI, math.inf), PI + s / sq_hi)
          if sq_hi else math.inf)
    hi = min(a_hi, PI + s / sq_lo) if sq_lo else a_hi
    if lo >= hi:
        return BoundaryCurve(CurveKind.ENDPOINT, np.empty((0, 2)))
    a = np.linspace(lo, hi, n)
    c = np.sqrt(s / (a - PI))
    return BoundaryCurve(CurveKind.ENDPOINT, np.column_stack([a, c]))


def trace_tangency_curve(contact_angle, a_window, c_window,
                         n: int = 200) -> BoundaryCurve:
    """Tangency curve clipped to a window, sampled in capillary ratio.

    The critical mass ratio is single-valued in C, so sampling in C and
    reading off A is the robust parameterization.  A window with a NaN or
    infinite bound, or with a C bound below 0, raises ValueError; one with
    lo >= hi on either axis gives an empty curve (``_check_windows``).
    """
    _check_contact_angle(contact_angle)
    _check_samples("n", n)
    if not _check_windows(a_window, c_window):
        return BoundaryCurve(CurveKind.TANGENCY, np.empty((0, 2)))
    cs = _tangency_samples(contact_angle, c_window, n)
    # critical_mass_ratio over every sample at once, the same bits
    phi = _extrema(contact_angle, cs, _extremum_brackets(contact_angle)[1])
    return _curve(CurveKind.TANGENCY, contact_angle, phi, cs, a_window,
                  c_window)


def _tangency_samples(contact_angle, c_window, n):
    """The capillary ratios ``trace_tangency_curve`` samples, an array."""
    c_lo, c_hi = c_window
    thr = second_extremum_threshold(contact_angle)
    lo = max(c_lo, thr * (1.0 + 1e-9), 1e-6)
    # no sample in the window, as when the maximum never appears (thr = inf)
    if lo >= c_hi:
        return np.empty(0)
    # the largest sample has the largest force scale: check it as
    # critical_mass_ratio does
    _check_mass_free(c_hi, contact_angle)
    return np.linspace(lo, c_hi, n)


def _curve(kind, g, phi, cs, a_window, c_window):
    """The points (F(phi; A=0) / C^2, C) of the samples (phi, C) in the
    windows, in sample order, which is C's; a NaN phi or C gives a NaN A,
    so no point.

    The tangency curve's phi are its samples' force maxima, NaN where
    there is none, which makes A ``critical_mass_ratio``'s bit for bit;
    its C are ascending (``_tangency_samples``).  The intersection curve's
    C rise with its ascending phi: C = -O / sin(phi), with O the margin's
    C-free offset, and on the psi-positive regime, with
    w = -cos((phi+gamma)/2) in [1/sqrt 2, 1], O' = (1 - 2w^2) / 2w <= 0
    and cos(phi) <= 0, so C' = (O cos(phi) - O' sin(phi)) / sin(phi)^2
    >= 0 wherever O < 0, the only samples with a C.
    """
    (a_lo, a_hi), (c_lo, c_hi) = a_window, c_window
    # Python's c ** 2 is not always c * c, which NumPy squares by
    sq = np.array([c ** 2 for c in cs.tolist()], dtype=float)
    a = _force(phi, 0.0, cs, g) / sq
    keep = (a_lo <= a) & (a <= a_hi) & (c_lo <= cs) & (cs <= c_hi)
    return BoundaryCurve(kind, np.column_stack([a[keep], cs[keep]]))


def _crossing_c(phi0, margin):
    """The C whose margin is zero at phi0 in (0, pi), given sin(phi0) > 0
    and the margin at C = 1: C sin(phi0) plus a C-free offset
    O = -k + 2 sin(t/2) + ln|tan((t - pi)/4)|, with t = phi0 + gamma and
    k = sqrt 2 + ln tan(pi/8).  NaN unless the offset is below -2^-48.

    O' = cos(t) / (2 cos(t/2)), so on (0, 2pi) O <= 0, zero only on the
    lines t = pi/2 and 3pi/2, and O < -0.29 where |t - pi| < pi/4 (O is
    symmetric about pi, and O(3pi/4) = -0.2999).  Where |t - pi| >= pi/4
    the offset, margin - sin(phi0), rounds within 13.3 eps of O, with
    eps = 2^-52: the two sin(phi0) are one float and cancel; k's float is
    0.34 eps off; t < 8 rounds by 2 eps, so 2 sin(t/2) by 2 (eps + eps/2);
    with pi's float 0.55 eps off and the subtraction's eps, (t - pi)/4 by
    0.89 eps, so the logarithm, whose slope 2/|sin((t - pi)/2)| is below
    5.3 there, by 4.7 eps, plus an ulp each of tan and log, 2 eps; and
    the four sums, each below 4 in size, by 3.25 eps
    (``test_crossing_band_bounds_the_offset``).  Where |t - pi| < pi/4
    the computed logarithm is below -1.61, so the offset is below -0.14.
    So an offset below -2^-48 = -16 eps has O < 0, and a C > 0.  A sample
    on a line, t within rounding of pi/2 or 3pi/2, has |O| of order
    eps^2, so its offset lies within 2^-48 of 0: NaN, as at
    (pi/2 - gamma, gamma), and at (pi, pi/2), where -1.1e-17 over
    sin(pi) once gave C = 0.09."""
    s = math.sin(phi0)
    offset = margin - s
    return -offset / s if offset < -2.0 ** -48 else math.nan


def intersection_curve_point(phi02: float, contact_angle: float
                             ) -> tuple[float, float] | None:
    """(A, C) putting the larger equilibrium exactly on the margin zero.

    The margin is linear in C, so C follows directly from the zero
    condition; the force balance is then linear in A.  None when the
    resulting capillary ratio is not positive past rounding.  ValueError
    for a contact angle outside [0, pi], a non-finite phi02 or one outside
    [0, pi], as ``validity`` raises.
    """
    _check_contact_angle(contact_angle)
    if not math.isfinite(phi02):
        raise ValueError(f"phi0 must be finite, got {phi02!r}")
    if not 0.0 <= phi02 <= PI:
        raise ValueError(f"phi0 must lie in [0, pi], got {phi02!r}")
    if math.sin(phi02) <= 0.0:
        return None
    c = _crossing_c(phi02, intersection_margin(phi02, 1.0, contact_angle))
    if c != c:
        return None
    params = DimensionlessParams(0.0, c, contact_angle, exploratory=True)
    return total_force(phi02, params) / c ** 2, c


def trace_intersection_curve(contact_angle, a_window, c_window,
                             n: int = 200) -> BoundaryCurve:
    """Intersection-validity boundary, sampled in the larger root's angle.

    Empty for contact angles at or below pi/2, even in a window of
    negative A: no equilibrium with A > 0 self-intersects there, and the
    margin's zeros in the psi-negative regime all have A < 0
    (``intersection`` has the proof).  Its points are
    ``intersection_curve_point``'s, bit for bit.  A window with a NaN or
    infinite bound, or with a C bound below 0, raises ValueError; one with
    lo >= hi on either axis gives an empty curve (``_check_windows``).
    """
    _check_contact_angle(contact_angle)
    _check_samples("n", n)
    if not _check_windows(a_window, c_window) or contact_angle <= PI / 2.0:
        return BoundaryCurve(CurveKind.INTERSECTION, np.empty((0, 2)))
    lo = 3.0 * PI / 2.0 - contact_angle
    phi = lo + np.linspace(1e-6, 1.0 - 1e-6, n) * (PI - lo)
    cs = np.array([_crossing_c(x, _margin(x, 1.0, contact_angle, math))
                   for x in phi.tolist()])
    return _curve(CurveKind.INTERSECTION, contact_angle, phi, cs, a_window,
                  c_window)


_LABEL_TABLE = {
    (0, 0): RegionLabel.ZERO,
    (1, 1): RegionLabel.ONE,
    (2, 2): RegionLabel.TWO,
    (2, 1): RegionLabel.ONE_VALID_ONE_INVALID,
}
# region_map's label codes: the count pair (n, n_valid), 0 <= n_valid <= n,
# has the key 3 n + n_valid, and _LABEL_CODES[key] is its position in
# _LABEL_TABLE; every other key, and any past the last, takes the code
# len(_LABEL_TABLE), whose entry in _LABELS is None.
_LABEL_CODES = np.full(10, len(_LABEL_TABLE))
_LABEL_CODES[[3 * k + k_valid for k, k_valid in _LABEL_TABLE]] = range(
    len(_LABEL_TABLE))
_LABELS = np.array([*_LABEL_TABLE.values(), None], dtype=object)


def _label(n: int, n_valid: int, params) -> RegionLabel:
    try:
        return _LABEL_TABLE[(n, n_valid)]
    except KeyError:
        raise ValueError(
            f"unclassifiable equilibrium structure at {params}: "
            f"{n} equilibria, {n_valid} valid") from None


def classify_point(params: DimensionlessParams):
    """Region label plus per-equilibrium validity at one parameter point.

    Returns (label, details) where details is a list of
    (Equilibrium, ValidityReport) pairs ascending in phi0.
    """
    eqs = find_equilibria(params)
    details = [(eq, validity(eq.phi0, params)) for eq in eqs]
    n_valid = sum(1 for _, rep in details if not rep.intersecting)
    return _label(len(eqs), n_valid, params), details


def region_map(contact_angle: float,
               a_range: tuple[float, float] = (0.0, 12.0),
               c_range: tuple[float, float] = (0.0, 5.0),
               resolution: tuple[int, int] = (200, 200),
               curve_samples: int = 200) -> RegionMap:
    """Label a grid over the (A, C) window and attach the boundary curves.

    Axes exclude the lower edge of each range (A and C must stay positive)
    and include the upper.  labels[i, j] corresponds to
    (a_axis[i], c_axis[j]).  Every label equals what find_equilibria plus
    validity produce at that point.  One lane replay of the slope's
    bisection (``equilibria._extrema`` over the columns' C and the
    samples' C on the maximum's bracket) finds the force maxima of every
    column and of the tangency curve's samples, the points of
    ``trace_tangency_curve``.  ``_count_block``
    reads each cell's label from its column's breakpoints: the mass-free
    force at 0, at the maximum, at pi, and, at contact angles above
    pi/2, at the ends of the self-intersecting part of the overhang
    regime, found by Newton's method on the margin over all columns and
    certified by one margin call (``_intersecting_parts``).  The
    cells, if any, within a proven band of a breakpoint go through
    ``_cell_roots``, one cell at a time on floats (``_count_cells``),
    with the map's maxima and their columns' minima, which one more
    bisection finds.  The counts, int8 grids, become
    labels through one table lookup (``_LABEL_CODES``).  find_equilibria
    runs the kernels on ``math`` and the blocks on NumPy, so the equality
    also needs their sin and cos to agree bit for bit, as
    ``test_float_kernels_match_numpy`` checks on the platform at hand.
    """
    n_a, n_c = resolution
    if n_a < 2 or n_c < 2:
        raise ValueError(f"resolution must be >= 2 per axis, got {resolution!r}")
    _check_integer("resolution", resolution)
    _check_samples("curve_samples", curve_samples)
    # written so that a NaN bound fails
    bad = [f"{name}={(lo, hi)!r}"
           for name, (lo, hi) in (("a_range", a_range), ("c_range", c_range))
           if not 0.0 <= lo < hi]
    if bad:
        raise ValueError(
            f"ranges must be nonnegative and increasing, got {', '.join(bad)}")
    a_lo, a_hi = a_range
    c_lo, c_hi = c_range
    # the corner cell has the largest force scale, the first the smallest
    DimensionlessParams(a_hi, c_hi, contact_angle)
    a_axis = np.linspace(a_lo, a_hi, n_a + 1)[1:]
    c_axis = np.linspace(c_lo, c_hi, n_c + 1)[1:]
    DimensionlessParams(float(a_axis[0]), float(c_axis[0]), contact_angle)

    # the columns' maxima and the tangency samples' maxima: one call
    cs = _tangency_samples(contact_angle, c_range, curve_samples)
    low, high = _extremum_brackets(contact_angle)
    maximum, phi = np.split(
        _extrema(contact_angle, np.concatenate([c_axis, cs]), high), [n_c])
    n, n_valid = _count_block(a_axis, c_axis, contact_angle, maximum)
    # the cells the breakpoints leave open, with their columns' minima
    i, j = divmod(np.flatnonzero(n < 0), n_c)
    if i.size:
        columns, column = np.unique(j, return_inverse=True)
        minimum = _extrema(contact_angle, c_axis[columns], low)
        n[i, j], n_valid[i, j] = _count_cells(
            a_axis[i], c_axis[j], contact_angle,
            (minimum[column], maximum[j]))
    code = _LABEL_CODES.take(3 * n + n_valid, mode="clip")
    unknown = np.flatnonzero(code.T == len(_LABEL_TABLE))
    if unknown.size:
        # the first unclassifiable cell in column order raises
        j, i = divmod(int(unknown[0]), n_a)
        _label(int(n[i, j]), int(n_valid[i, j]), DimensionlessParams(
            float(a_axis[i]), float(c_axis[j]), contact_angle))
    labels = _LABELS.take(code)

    curves = [trace_endpoint_curve(contact_angle, (a_lo, a_hi), (c_lo, c_hi),
                                   curve_samples),
              _curve(CurveKind.TANGENCY, contact_angle, phi, cs,
                     (a_lo, a_hi), (c_lo, c_hi)),
              trace_intersection_curve(contact_angle, (a_lo, a_hi),
                                       (c_lo, c_hi), curve_samples)]
    curves = [c for c in curves if len(c.points)]
    return RegionMap(contact_angle=contact_angle, a_axis=a_axis, c_axis=c_axis,
                     labels=labels, curves=curves)


def _count_block(a_axis, cs, g, maximum):
    """Equilibria and valid equilibria of each cell of a_axis x cs, or -1.

    Both (len(a_axis), len(cs)) int8 arrays; ``maximum`` holds the
    columns' force maxima, NaN where there is none.  In a column
    F = F0 - L, with F0 = F(.; A=0) and the level L = A C^2 >= 0.  F0
    falls from 0 to the minimum, rises to the maximum and falls to pi
    (``equilibria.force_extrema`` has the proof), so F0 <= F0(0) =
    -2 sin(gamma) <= L on [0, minimum]; where F0(0) < L, the sign of
    F0(x) - L tells on which side of its segment's root x lies, for the
    segments between the nodes 0, maximum (pi where there is none) and
    pi.  So a cell's count is the number of segments whose node values
    straddle L, and a segment's root lies in [p, q] (clipped to the
    segment) exactly when F0(p) - L and F0(q) - L differ in sign.  At
    gamma <= pi/2 every settled root is valid (Low angles, below), and
    the breakpoints are F0 at the three nodes.  At gamma > pi/2 the
    margin falls through the psi-positive regime [3pi/2 - gamma, pi]
    (``intersection``), so the part of it where the margin is at most -b,
    b = _MARGIN_BAND (C + 4), is one interval [z-, pi], and so is the part
    where it is at most +b, [z+, pi] (``_intersecting_parts``): a root in
    the first part is invalid, one outside the second valid, and F0 at z-
    and at z+ adds two breakpoints.  With the slack s, S >= |F'| and
    K >= |F''| from ``_bounds`` and LB = PHI0_TOL + 4 eps pi bisect's last
    bracket, a cell whose level lies within
    B = ROOT_VALUE_TOL + 4s + 3 PHI0_TOL S of a breakpoint, or whose root
    falls between the two parts, reads -1, for ``_count_cells``.  The
    rest get ``_cell_roots``' counts:

    * Rounding.  _force at a point, with A = 0 or with a level in the
      node values' range, lies within s of the exact F: its terms add to
      a few (1+C)^2, and each rounds by an ulp or two.  _cell_roots'
      root r of a segment lies within LB of a sign change of _force, so
      the exact F0(r) lies within E = s + S LB of L.
    * Nodes.  B > ROOT_VALUE_TOL + 2s, so no node is a root of
      _cell_roots', whose nodes add the minimum: L >= F0(0), so
      L > F0(0) + B, and its minimum lies within LB of the exact one, so
      F0 there is at most F0(0) + K LB^2.  So [0, minimum] brackets in
      neither, and each segment brackets exactly when its node values
      straddle L.  B's first term follows ROOT_VALUE_TOL: should that
      become force-scaled, so must it.
    * Parts.  Where F0(x) lies more than B >= E + s + S LB from L, at a
      node or at z, the exact F0(r) and F0(x) differ by more than S LB,
      so r lies more than LB from x, on the side their signs say.  So a
      root in the -b part lies more than LB inside it, and between the
      root and z- lies a point where NumPy's margin is at most -b, within
      LB of z- (``_intersecting_parts``' certificate, or its fallback's
      bisection): by monotony the exact margin at the root
      is below -b plus a few ulps of C + 4, and ``intersection_margin``'s,
      a few ulps more, is negative.  A root outside the +b part has such
      a point where the margin is at least +b, or lies outside the
      regime: it is valid either way.
    * Low angles.  At gamma <= pi/2 the psi-positive regime is at most
      the node pi, which a root lies more than LB from (Parts), so a
      root r that may cross lies in the psi-negative regime
      [0, pi/2 - gamma], more than LB from 0.  With w = r - sin r cos r
      and u = (r + gamma)/2 <= pi/4,
      F0(r) = C sin(r) (C w / sin(r) - 4 cos u) - 2 sin(r + gamma).
      Were C sin(r) < 1.6, then C w / sin(r) <= 1.6 pi/2 < 2 sqrt 2
      <= 4 cos u, as w <= (pi/2) sin(r)^2 (``intersection``'s lemma), so
      F0(r) <= -2 sin(r + gamma) <= F0(0) <= L, as r + gamma <= pi/2;
      and F0(r) >= L - E would put L within E < B of F0(0), a
      breakpoint.  So C sin(r) >= 1.6, and the margin, C sin(r) plus an
      offset of at least -k = -0.533 (``intersection``), is at least 1.06
      and at least C sin(r) / 1.5: far outside the few ulps of
      C sin(r) + 4 that ``intersection_margin`` rounds by.  So
      n_valid = n.
    * Extrema.  _cell_roots merges roots closer than _DEDUP_TOL.  No
      node is a root and none lies on [0, minimum], so between any two
      roots lies the maximum m, the bisected zero of _slope.  The exact
      F0(m) lies more than B - s from L, so more than
      B' = B - s - E = ROOT_VALUE_TOL + 2s + S (2 PHI0_TOL - 4 eps pi)
      from the exact F0(r) of a root r.  _slope changes sign within LB
      of m and rounds by a few ulps of S <= K, so |F0'(m)| <= K mu with
      mu = LB + 8 eps < 2 LB, and with d = |r - m|, Taylor's theorem
      gives B' < K mu d + K d^2 / 2: d > sqrt(2B'/K + mu^2) - mu.  The
      least S/K, (2 + 6C + 2C^2) / (2 + 9C + 2C^2), is 10/13, at C = 1,
      so 2B'/K > 3e-12, d > 1.7e-6, and any two roots lie more than
      3.4e-6 > _DEDUP_TOL apart: none merges.
    """
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
        z = _intersecting_parts(cs, g)
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


def _intersecting_parts(cs, g):
    """Each column's parts [z, pi] of the psi-positive regime [lo, pi],
    lo = 3pi/2 - gamma, where the margin is at most -b and at most +b,
    b = _MARGIN_BAND (C + 4), as their ends z- and z+: shaped
    (2, len(cs)), z- first.

    The margin falls through the regime (``intersection``), so each part
    runs from pi to the point z where m = margin -+ b changes sign.  Where
    m(lo) > 0 > m(pi), Newton's method finds z, on every such column of
    both parts at once, with the slope m' = C cos(x) + cos(t) / (2 cos(t/2)),
    t = x + gamma (``intersection``), each lane kept in the bracket of the
    signs it has seen, with a midpoint step where Newton's leaves it or
    the slope is not negative.  With u = t/2 in [3pi/4, pi],
    m'' = -C sin(x) - (sin(u)/2) (1 + 1/(2 cos(u)^2)), and each term falls
    in size along the regime: m is concave, and |m''| <= |m''(lo)| =
    C sin(lo) + 1/sqrt 2, with m'(lo) = C cos(lo), as cos(t) = 0 at lo.
    So the chord's zero and that of the quadratic q(x) = m(lo) +
    m'(lo) (x - lo) + m''(lo) (x - lo)^2 / 2 <= m both lie at or below z,
    and Newton starts from the larger.  And m'(z)^2 = m'(lo)^2 +
    2 int_lo^z m' m'', with m' m'' >= 0, is at most
    E^2 = m'(lo)^2 + 2 |m''(lo)| m(lo).  Where E LB is at most
    eps (C + 4) / 2, about half an ulp of the size the margin's terms add
    to, m moves over LB by less than its own rounding, so no certificate
    can be expected: the lane goes straight to the fallback, as at tiny C.
    A lane settles once (C + 2) dx^2 <= |m'| LB/4, a step that leaves it
    within about LB/8 of z, as |m''| <= C + 2; settled lanes are frozen
    and the loop stops after 12 steps.  One _margin call then certifies
    every lane: m at x - LB/2 is >= 0 and at x + LB/2 is <= 0, with
    LB = PHI0_TOL + 4 eps pi (``_LB``).  That leaves within LB of z a
    point at or below it with m >= 0 and one at or above it with m <= 0,
    all that ``_count_block``'s Parts bullet needs: z reaches the labels
    only through F0(z), which has the band B, and the clip-and-compare
    tests, so it need not be a bisection's bits.  A lane that the screen
    sends on, does not settle or fails the certificate takes z from one
    ``bisect`` over every such lane from its m(lo), which leaves the same
    two points.
    Elsewhere z = lo where m(lo) <= 0, itself the point above, with none
    needed below it; else z = pi, where m(pi) >= 0, the point below, with
    none needed above.
    """
    lo = 3.0 * PI / 2.0 - g
    c = np.concatenate([cs, cs])
    shift = _MARGIN_BAND * (4.0 + c) * np.repeat([-1.0, 1.0], cs.size)
    m_lo, m_pi = (_margin(x, c, g, np) - shift for x in (lo, PI))
    z = np.where(m_lo <= 0.0, lo, PI)
    lanes = np.flatnonzero((m_lo > 0.0) & (m_pi < 0.0))
    c, shift, m_lo = c[lanes], shift[lanes], m_lo[lanes]
    # m'(lo) = C cos(lo) <= 0, and |m''| <= |m''(lo)| = C sin(lo) + 1/sqrt 2
    slope = c * math.cos(lo)
    e = np.sqrt(slope * slope
                + 2.0 * (c * math.sin(lo) + math.sqrt(0.5)) * m_lo)
    x = np.maximum(lo + (PI - lo) * (m_lo / (m_lo - m_pi[lanes])),
                   lo + 2.0 * m_lo / (e - slope))
    a, b = np.full(lanes.size, lo), np.full(lanes.size, PI)
    todo = e * _LB > 0.5 * sys.float_info.epsilon * (4.0 + c)
    screened = ~todo
    k_lb = (c + 2.0) * (4.0 / _LB)
    for _ in range(12):
        if not todo.any():
            break
        m = _margin(x, c, g, np) - shift
        t = x + g
        d = c * np.cos(x) + np.cos(t) / (2.0 * np.cos(0.5 * t))
        a, b = np.where(m > 0.0, x, a), np.where(m < 0.0, x, b)
        falls = d < 0.0
        step = x - m / np.where(falls, d, -1.0)
        step = np.where(falls & (a <= step) & (step <= b), step,
                        0.5 * (a + b))
        settled = k_lb * (step - x) ** 2 <= -d
        x = np.where(todo, step, x)
        todo &= ~settled
    m = _margin(np.stack([x - _LB / 2.0, x + _LB / 2.0]), c, g, np) - shift
    bad = np.flatnonzero(todo | screened | (m[0] < 0.0) | (m[1] > 0.0))
    if bad.size:
        c, shift = c[bad], shift[bad]
        x[bad] = bisect(lambda x, k: _margin(x, c[k], g, np) - shift[k],
                        lo, PI, m_lo[bad])
    z[lanes] = x
    return z.reshape(2, -1)


def _count_cells(a, c, g, extrema):
    """Equilibria and valid equilibria of the cells (a[k], c[k]), two lists.

    ``extrema`` holds each cell's ``force_extrema``, the map's maxima and
    its columns' minima, so each cell runs ``find_equilibria``'s solver
    on its floats (``_cell_roots``) and finds no extremum; a root in an
    overhang regime is invalid where ``intersection_margin`` is <= 0.
    """
    n, n_valid = [], []
    for a_k, c_k, minimum, maximum in zip(
            a.tolist(), c.tolist(), *(x.tolist() for x in extrema)):
        roots = _cell_roots(a_k, c_k, g, (minimum, maximum))
        n.append(len(roots))
        # only a root in an overhang regime can cross
        n_valid.append(len(roots) - sum(
            intersection_margin(r, c_k, g) <= 0.0
            for r in roots if any(_overhang(r, g))))
    return n, n_valid


def region_map_csv(rm: RegionMap) -> str:
    """One row per grid cell: mass ratio, capillary ratio, label."""
    lines = ["mass_ratio,capillary_ratio,label"]
    for i, a in enumerate(rm.a_axis):
        for j, c in enumerate(rm.c_axis):
            lines.append(f"{a:.12g},{c:.12g},{rm.labels[i, j].value}")
    return "\n".join(lines) + "\n"


def region_map_json(rm: RegionMap) -> dict:
    """JSON-ready dict: schema, axes, labels and boundary curves."""
    return {
        "schema": 1,
        "contact_angle": rm.contact_angle,
        "a_axis": [float(v) for v in rm.a_axis],
        "c_axis": [float(v) for v in rm.c_axis],
        "labels": [[rm.labels[i, j].value for j in range(len(rm.c_axis))]
                   for i in range(len(rm.a_axis))],
        "curves": [
            {
                "kind": c.kind.value,
                "analytic": c.analytic,
                "points": [[float(a), float(cc)] for a, cc in c.points],
                "gaps": [],
            }
            for c in rm.curves
        ],
    }
