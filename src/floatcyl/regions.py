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
its values at pi, at its maximum, and at the ends of the part of the
overhang regime where the margin is negative.  The force is monotone
between its extrema and the margin within each regime, so a cell's label
follows from where its level falls among at most six such breakpoints
per column (``_count_block`` has the proof).  The cells within a proven
band of a breakpoint, none of the 40,000 of a default 200 x 200 map at
the contact angles tested, go through solve together, once per map, as
find_equilibria does; find_equilibria still bisects every root it
prints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .equilibria import (PHI0_TOL, ROOT_VALUE_TOL, _bounds, _extrema,
                         _extremum_brackets, _force_maximum, _nodes, bisect,
                         find_equilibria, second_extremum_threshold, solve)
from .intersection import _margin, _overhang, intersection_margin, validity
from .model import (DimensionlessParams, _check_contact_angle, _check_integer,
                    _force, _slope, total_force)

PI = math.pi
# The margin's rounding band, per unit of C + 4 (see _count_block).
_MARGIN_BAND = 2.0 ** -40
# Fallback cells per solve call, each with its own 8 kB row (_scan_rows).
_FALLBACK_CELLS = 1024


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
    4 C sin(gamma/2) < 0 exactly when C > C0 (the threshold), or A < A0: one
    ``bisect``, reading signs only, finds the zero; else C+ peaks at pi, on the
    endpoint curve, and C* does not exist.  C+ is flat there, so C* is exact to
    rounding, also near pi, near A0 and at large A.
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

    if not c_plus(PI) > second_extremum_threshold(contact_angle):
        return None
    lo = max(_extremum_brackets(contact_angle)[1][0], PI - contact_angle)
    return c_plus(bisect(lambda x: _slope(x, c_plus(x), contact_angle)
                         if x < PI else -1.0, lo, PI))


def trace_endpoint_curve(contact_angle, a_window, c_window,
                         n: int = 200) -> BoundaryCurve:
    """Endpoint curve clipped to a plotting window, sampled in mass ratio."""
    _check_contact_angle(contact_angle)
    _check_samples("n", n)
    a_lo, a_hi = a_window
    c_lo, c_hi = c_window
    if endpoint_boundary_is_vertical(contact_angle):
        if not a_lo <= PI <= a_hi:
            pts = np.empty((0, 2))
        else:
            cs = np.linspace(max(c_lo, 1e-12), c_hi, n)
            pts = np.column_stack([np.full(n, PI), cs])
        return BoundaryCurve(CurveKind.ENDPOINT, pts)
    s = 2.0 * math.sin(contact_angle)
    # C(A) <= c_hi needs A >= pi + s/c_hi^2; C(A) >= c_lo needs A <= pi + s/c_lo^2.
    # A square that underflows to 0 stands for its limit, A = inf.  Where
    # pi + s/c_hi^2 rounds to pi, the float above pi is the first A with a
    # finite C(A), and that C is still below c_hi.
    lo = (max(a_lo, math.nextafter(PI, math.inf), PI + s / c_hi ** 2)
          if c_hi ** 2 else math.inf)
    hi = min(a_hi, PI + s / c_lo ** 2) if c_lo > 0.0 and c_lo ** 2 else a_hi
    if lo >= hi:
        return BoundaryCurve(CurveKind.ENDPOINT, np.empty((0, 2)))
    a = np.linspace(lo, hi, n)
    c = np.sqrt(s / (a - PI))
    return BoundaryCurve(CurveKind.ENDPOINT, np.column_stack([a, c]))


def trace_tangency_curve(contact_angle, a_window, c_window,
                         n: int = 200) -> BoundaryCurve:
    """Tangency curve clipped to a window, sampled in capillary ratio.

    The critical mass ratio is single-valued in C, so sampling in C and
    reading off A is the robust parameterization.
    """
    cs = _tangency_samples(contact_angle, c_window, n)
    # critical_mass_ratio over every sample at once, the same bits
    return _tangency_curve(contact_angle, a_window, cs,
                           _force_maximum(cs, contact_angle))


def _tangency_samples(contact_angle, c_window, n):
    """The capillary ratios ``trace_tangency_curve`` samples, an array."""
    _check_samples("n", n)
    c_lo, c_hi = c_window
    thr = second_extremum_threshold(contact_angle)
    lo = max(c_lo, thr * (1.0 + 1e-9), 1e-6)
    # no sample in the window, as when the maximum never appears (thr = inf)
    if lo >= c_hi:
        return np.empty(0)
    # the samples span [lo, c_hi]: check them as critical_mass_ratio would
    for c in (lo, c_hi):
        DimensionlessParams(0.0, c, contact_angle, exploratory=True)
    return np.linspace(lo, c_hi, n)


def _tangency_curve(contact_angle, a_window, cs, phi):
    """The tangency curve's points from the samples ``cs`` and their force
    maxima ``phi`` (``_force_maximum``), clipped to ``a_window``."""
    a_lo, a_hi = a_window
    has = phi > PI / 2.0
    cs = cs[has]
    forces = _force(phi[has], 0.0, cs, contact_angle)
    pts = []
    for f, c in zip(forces.tolist(), cs.tolist()):
        a = f / c ** 2  # Python's c ** 2 is not always c * c
        if a_lo <= a <= a_hi:
            pts.append((a, c))
    return BoundaryCurve(CurveKind.TANGENCY,
                         np.array(pts, dtype=float).reshape(-1, 2))


def intersection_curve_point(phi02: float, contact_angle: float
                             ) -> tuple[float, float] | None:
    """(A, C) putting the larger equilibrium exactly on the margin zero.

    The margin is linear in C, so C follows directly from the zero
    condition; the force balance is then linear in A.  None when the
    resulting capillary ratio is not positive.
    """
    _check_contact_angle(contact_angle)
    s = math.sin(phi02)
    if s <= 0.0:
        return None
    # the margin is C sin(phi0) plus a C-free offset
    offset = intersection_margin(phi02, 1.0, contact_angle) - s
    if offset >= 0.0:
        return None
    c = -offset / s
    params = DimensionlessParams(0.0, c, contact_angle, exploratory=True)
    a = total_force(phi02, params) / c ** 2
    return a, c


def trace_intersection_curve(contact_angle, a_window, c_window,
                             n: int = 200) -> BoundaryCurve:
    """Intersection-validity boundary, sampled in the larger root's angle.

    Empty for contact angles at or below pi/2 (no invalid equilibria
    there).
    """
    _check_contact_angle(contact_angle)
    _check_samples("n", n)
    if contact_angle <= PI / 2.0:
        return BoundaryCurve(CurveKind.INTERSECTION, np.empty((0, 2)))
    a_lo, a_hi = a_window
    c_lo, c_hi = c_window
    lo = 3.0 * PI / 2.0 - contact_angle
    pts = []
    for t in np.linspace(1e-6, 1.0 - 1e-6, n):
        phi02 = lo + t * (PI - lo)
        pc = intersection_curve_point(phi02, contact_angle)
        if pc is None:
            continue
        a, c = pc
        if a_lo <= a <= a_hi and c_lo <= c <= c_hi:
            pts.append((a, c))
    pts.sort(key=lambda p: p[1])
    return BoundaryCurve(CurveKind.INTERSECTION,
                         np.array(pts, dtype=float).reshape(-1, 2))


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
    validity produce at that point.  One bisection (``equilibria._extrema``)
    finds the force extrema of every column and the force maxima of the
    tangency curve's samples, the points of ``trace_tangency_curve``.
    ``_count_block`` reads each cell's label from its column's
    breakpoints: the mass-free force at the extrema, at 0 and pi, and at
    the ends of the self-intersecting part of the overhang regime, found
    by one bisection of the margin over all columns.  The cells, if any,
    within a proven band of a breakpoint go through ``solve`` together,
    with the map's extrema (``_count_cells``), so the map finds its
    extrema once.  The counts become labels through one table lookup
    (``_LABEL_CODES``).  find_equilibria runs the
    kernels on ``math`` and the blocks on NumPy, so the equality also
    needs their sin and cos to agree bit for bit, as
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

    # the columns' extrema and the tangency samples' maxima: one bisection
    cs = _tangency_samples(contact_angle, c_range, curve_samples)
    low, high = _extremum_brackets(contact_angle)
    minimum, maximum, phi = _extrema(
        contact_angle, [(c_axis, low), (c_axis, high), (cs, high)])
    n, n_valid = _count_block(a_axis, c_axis, contact_angle,
                              (minimum, maximum))
    # the cells the breakpoints leave open
    i, j = divmod(np.flatnonzero(n < 0), n_c)
    if i.size:
        n[i, j], n_valid[i, j] = _count_cells(
            a_axis[i], c_axis[j], contact_angle, (minimum[j], maximum[j]))
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
              _tangency_curve(contact_angle, (a_lo, a_hi), cs, phi),
              trace_intersection_curve(contact_angle, (a_lo, a_hi),
                                       (c_lo, c_hi), curve_samples)]
    curves = [c for c in curves if len(c.points)]
    return RegionMap(contact_angle=contact_angle, a_axis=a_axis, c_axis=c_axis,
                     labels=labels, curves=curves)


def _count_block(a_axis, cs, g, extrema):
    """Equilibria and valid equilibria of each cell of a_axis x cs, or -1.

    Both (len(a_axis), len(cs)) int arrays; ``extrema`` is the columns'
    ``force_extrema``.  In a column F = F0 - L, with F0 = F(.; A=0) and
    the level L = A C^2, and F0 is monotone on the segments between the
    nodes (``_nodes``) 0, minimum, maximum and pi, solve's brackets
    (``equilibria.force_extrema`` has the proof).  So a cell's count is
    the number of segments whose node values straddle L, and a segment's
    root lies in [p, q] (clipped to the segment) exactly when F0(p) - L
    and F0(q) - L differ in sign.  The margin is
    monotone in each overhang regime (``intersection``), so the part of
    the regime where it is at most -b, b = _MARGIN_BAND (C + 4), is one
    interval [p, q] with one end at 0 or pi and the other at z-, and so
    is the part where it is at most +b, with z+ (``_intersecting_parts``):
    a root in the first part is invalid, one outside the second valid.
    The breakpoints are F0 at the nodes, at z- and at z+.  With the slack
    s, S >= |F'| and K >= |F''| from ``_bounds`` and LB = PHI0_TOL
    + 4 eps pi bisect's last bracket, a cell whose level lies within
    B = ROOT_VALUE_TOL + 4s + 3 PHI0_TOL S of a breakpoint, or whose root
    falls between the two parts, reads -1, for ``_count_cells``.  The rest
    get solve's counts:

    * Rounding.  _force at a point, with A = 0 or with a level in the
      node values' range, lies within s of the exact F: its terms add to
      a few (1+C)^2, and each rounds by an ulp or two.  Solve's root r of
      a segment lies within LB of a sign change of _force, so the exact
      F0(r) lies within E = s + S LB of L.
    * Nodes.  B > ROOT_VALUE_TOL + 2s, so no node is a root, and each
      segment brackets exactly when its node values straddle L.  B's
      first term follows ROOT_VALUE_TOL: should that become force-scaled,
      so must it.
    * Parts.  Where F0(x) lies more than B >= E + s + S LB from L, at a
      node or at z, the exact F0(r) and F0(x) differ by more than S LB,
      so r lies more than LB from x, on the side their signs say.  So a
      root in the -b part lies more than LB inside it, and between the
      root and z- lies a point where NumPy's margin is at most -b
      (``_intersecting_parts``): by monotony the exact margin at the root
      is below -b plus a few ulps of C + 4, and ``intersection_margin``'s,
      a few ulps more, is negative.  A root outside the +b part has such
      a point where the margin is at least +b, or lies outside the
      regime: it is valid either way.
    * Extrema.  Solve merges roots closer than _DEDUP_TOL.  No node is a
      root, and the segments meet at the extremum nodes, so between any
      two roots lies an extremum node m, the bisected zero of _slope.
      The exact F0(m) lies more than B - s from L, so more than
      B' = B - s - E = ROOT_VALUE_TOL + 2s + S (2 PHI0_TOL - 4 eps pi)
      from the exact F0(r) of a root r.  _slope changes sign within LB
      of m and rounds by a few ulps of S <= K, so |F0'(m)| <= K mu with
      mu = LB + 8 eps < 2 LB, and with d = |r - m|, Taylor's theorem
      gives B' < K mu d + K d^2 / 2: d > sqrt(2B'/K + mu^2) - mu.  The
      least S/K, (2 + 6C + 2C^2) / (2 + 9C + 2C^2), is 10/13, at C = 1,
      so 2B'/K > 3e-12, d > 1.7e-6, and any two roots lie more than
      3.4e-6 > _DEDUP_TOL apart: none merges.
    """
    nodes = _nodes(*extrema, cs.size)
    parts = _intersecting_parts(cs, g)
    f_nodes = _force(nodes, 0.0, cs, g)
    # F0 at the ends of each segment's share of each part
    f_ends = _force(np.stack([np.clip(parts, nodes[k], nodes[k + 1])
                              for k in range(3)]), 0.0, cs, g)
    # the parts' other ends, 0 or pi, repeat two node values
    breakpoints = np.concatenate(
        [f_nodes, _force(parts, 0.0, cs, g).reshape(4, -1)])
    s, S, _ = _bounds(cs)
    B = ROOT_VALUE_TOL + 4.0 * s + 3.0 * PHI0_TOL * S
    lo, hi = breakpoints - B, breakpoints + B

    level = a_axis[:, None] * cs * cs
    unsettled = np.zeros(level.shape, dtype=bool)
    for lo_k, hi_k in zip(lo, hi):
        unsettled |= (lo_k <= level) & (level <= hi_k)
    above = [f > level for f in f_nodes]
    n = np.zeros(level.shape, dtype=np.int64)
    cross = np.zeros_like(n)
    for k in range(3):
        bracket = above[k] != above[k + 1]
        inner, outer = ((start > level) != (end > level)
                        for start, end in f_ends[k])
        n += bracket
        cross += bracket & inner
        unsettled |= bracket & outer & ~inner
    return np.where(unsettled, -1, n), np.where(unsettled, -1, n - cross)


def _intersecting_parts(cs, g):
    """Each column's parts of its overhang regime where the margin is at
    most -b and at most +b, b = _MARGIN_BAND (C + 4), as [start, end]:
    shaped (2, 2, len(cs)), the -b part first.

    The margin rises through the psi-negative regime [lo, hi] =
    [0, pi/2 - gamma] (taken for gamma <= pi/2, where the other regime is
    at most the point pi) and falls through the psi-positive one
    [3pi/2 - gamma, pi], so each part runs from the regime end where the
    margin is lowest to a point z, where f = +-(margin -+ b), signed so
    that it rises with the margin's rise, changes sign.  Where f(lo) < 0
    < f(hi), z comes from one bisection over every such column of both
    parts, the regime a bracket shared by all of them, which leaves
    within PHI0_TOL + 4 eps pi of z a point at or below it with f <= 0
    and one at or above it with f >= 0.  Elsewhere z = lo where
    f(lo) >= 0, itself the point above, with none needed below it; else
    z = hi, where f(hi) <= 0, the point below, with none needed above.
    """
    rising = g <= PI / 2.0
    lo, hi = (0.0, PI / 2.0 - g) if rising else (3.0 * PI / 2.0 - g, PI)
    c = np.concatenate([cs, cs])
    shift = _MARGIN_BAND * (4.0 + c) * np.repeat([-1.0, 1.0], cs.size)
    way = 1.0 if rising else -1.0
    f_lo, f_hi = (way * (_margin(x, c, g, np) - shift) for x in (lo, hi))
    z = np.where(f_lo >= 0.0, lo, hi)
    lanes = np.flatnonzero((f_lo < 0.0) & (f_hi > 0.0))
    if lanes.size:
        c, shift = c[lanes], shift[lanes]
        z[lanes] = bisect(lambda x: _margin(x, c, g, np) - shift, lo, hi)
    z = z.reshape(2, -1)
    end = np.full(z.shape, lo if rising else hi)
    return np.stack([end, z] if rising else [z, end], axis=1)


def _count_cells(a, c, g, extrema):
    """Equilibria and valid equilibria of the cells (a[k], c[k]).

    ``extrema`` holds each cell's ``force_extrema``, taken from the map's,
    so the cells, each a column of its own, go through ``solve`` calls
    that find no extremum, and each root in an overhang regime through
    ``intersection_margin``.  A call takes at most _FALLBACK_CELLS cells,
    which bounds the rows held at once whatever the cell count.
    """
    n = np.empty(a.size, dtype=np.int64)
    cross = np.empty_like(n)
    for k in range(0, a.size, _FALLBACK_CELLS):
        cells = slice(k, k + _FALLBACK_CELLS)
        c_k = c[cells]
        roots = solve(a[cells], c_k, g, tuple(x[cells] for x in extrema))
        n[cells] = (roots == roots).sum(axis=1)
        # only a root in an overhang regime can cross; NaN is in none
        i, j = np.nonzero(np.logical_or(*_overhang(roots, g)))
        cross[cells] = np.bincount(i, [
            intersection_margin(r, c_i, g) <= 0.0
            for r, c_i in zip(roots[i, j].tolist(), c_k[i].tolist())],
            minlength=c_k.size)
    return n, n - cross


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
