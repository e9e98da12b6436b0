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
band of a breakpoint, none or one of the 40,000 of a default 200 x 200
map at the contact angles tested, go through solve's stages together,
once per map, as find_equilibria does; find_equilibria still bisects
every root it prints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .equilibria import (_SCAN_GRID, _SCAN_SAG, _SCAN_SLACK, PHI0_TOL,
                         ROOT_VALUE_TOL, NoSecondCriticalPointError, _bracket,
                         _force_maximum, _roots, _scan_rows, bisect,
                         critical_mass_ratio, find_equilibria, force_extrema,
                         second_extremum_threshold)
from .intersection import _margin, _overhang, intersection_margin, validity
from .model import DimensionlessParams, _force, total_force

PI = math.pi
# Guard-row points per block of _widen_flat (whole columns, at least one).
_BLOCK_SIZE = 30000
# With S = 2 + 6C + 2C^2 >= |F'| and K = 2 + 9C + 2C^2 >= |F''|
# (``force_slope``'s and ``force_curvature``'s terms) and
# s = _SCAN_SLACK (1+C)^2, by powers of C (see _count_block): the band
# B = ROOT_VALUE_TOL + 4s + 3 PHI0_TOL S around each breakpoint,
_BAND = (ROOT_VALUE_TOL + 4.0 * _SCAN_SLACK + 6.0 * PHI0_TOL,
         8.0 * _SCAN_SLACK + 18.0 * PHI0_TOL,
         4.0 * _SCAN_SLACK + 6.0 * PHI0_TOL)
# the rise T = 8 K _SCAN_SAG + 10s + 2 PHI0_TOL S of a flat grid interval,
_FLAT = (16.0 * _SCAN_SAG + 10.0 * _SCAN_SLACK + 4.0 * PHI0_TOL,
         72.0 * _SCAN_SAG + 20.0 * _SCAN_SLACK + 12.0 * PHI0_TOL,
         16.0 * _SCAN_SAG + 10.0 * _SCAN_SLACK + 4.0 * PHI0_TOL)
# and the widening D = B + K _SCAN_SAG + 4s of a flat interval's rows.
_WIDEN = (_BAND[0] + 2.0 * _SCAN_SAG + 4.0 * _SCAN_SLACK,
          _BAND[1] + 9.0 * _SCAN_SAG + 8.0 * _SCAN_SLACK,
          _BAND[2] + 2.0 * _SCAN_SAG + 4.0 * _SCAN_SLACK)
# The margin's rounding band, per unit of C + 4 (see _count_block).
_MARGIN_BAND = 2.0 ** -40


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
    analytic: bool
    gaps: tuple = ()    # requested samples with no solution


@dataclass(frozen=True)
class RegionMap:
    contact_angle: float
    a_axis: np.ndarray
    c_axis: np.ndarray
    labels: np.ndarray  # (len(a_axis), len(c_axis)) of RegionLabel
    curves: list[BoundaryCurve] = field(default_factory=list)


def endpoint_boundary_is_vertical(contact_angle: float) -> bool:
    """True when the endpoint curve degenerates to the line A = pi."""
    return contact_angle in (0.0, PI)


def endpoint_boundary_c(contact_angle: float, mass_ratio: float) -> float | None:
    """Capillary ratio with a zero force at phi0 = pi, or None.

    For contact angles away from 0 and pi: C = sqrt(2 sin(gamma)/(A - pi)),
    defined for A > pi only.  At gamma in {0, pi} the condition is the
    vertical line A = pi, which has no single-valued C(A) form; this
    returns None there (use endpoint_boundary_is_vertical).
    """
    if endpoint_boundary_is_vertical(contact_angle):
        return None
    if mass_ratio <= PI:
        return None
    return math.sqrt(2.0 * math.sin(contact_angle) / (mass_ratio - PI))


def two_equilibrium_corner(contact_angle: float) -> tuple[float, float]:
    """Corner (A0, C0) where the endpoint and tangency curves meet.

    Defined for contact angles in (0, pi/2): C0 is the capillary ratio at
    which the second force extremum first appears, and A0 puts the endpoint
    zero exactly there: A0 = pi + 2 sin(gamma) / C0^2.
    """
    if not 0.0 < contact_angle < PI / 2.0:
        raise ValueError(
            "corner exists for contact angles in (0, pi/2) only, got "
            f"{contact_angle!r}")
    c0 = second_extremum_threshold(contact_angle)
    a0 = PI + 2.0 * math.sin(contact_angle) / c0 ** 2
    return a0, c0


def _critical_mass_or_none(capillary_ratio, contact_angle):
    try:
        return critical_mass_ratio(capillary_ratio, contact_angle)[0]
    except (NoSecondCriticalPointError, ValueError):
        return None  # no maximum, or a C too large to bracket it


def tangency_boundary_c(contact_angle: float,
                        mass_ratio: float) -> float | None:
    """Capillary ratio whose critical mass ratio equals ``mass_ratio``.

    The critical mass ratio decreases strictly in C (from large values at
    small C down to pi), so the inverse is found by bracketing and
    bisection, doubling C up to 1e6.  None when no solution exists: mass
    ratio at or below pi, no bracket below C = 1e6 (nor where the
    threshold C of a contact angle below about 1e-8 is too large for
    ``critical_mass_ratio``), or, for contact angles below pi/2, at or
    above the corner value A0.
    """
    if mass_ratio <= PI:
        return None
    thr = second_extremum_threshold(contact_angle)
    if math.isinf(thr):
        return None
    lo = max(thr * (1.0 + 1e-9), 1e-9)
    a_lo = _critical_mass_or_none(lo, contact_angle)
    if a_lo is None or a_lo <= mass_ratio:
        return None  # above the attainable range (corner) already at lo
    hi = max(2.0 * lo, 1.0)
    while hi < 1e6:
        a_hi = _critical_mass_or_none(hi, contact_angle)
        if a_hi is not None and a_hi < mass_ratio:
            break
        hi *= 2.0
    else:
        return None
    return bisect(lambda c: critical_mass_ratio(c, contact_angle)[0]
                  - mass_ratio, lo, hi)


def trace_endpoint_curve(contact_angle, a_window, c_window,
                         n: int = 200) -> BoundaryCurve:
    """Endpoint curve clipped to a plotting window, sampled in mass ratio."""
    a_lo, a_hi = a_window
    c_lo, c_hi = c_window
    if endpoint_boundary_is_vertical(contact_angle):
        if not a_lo <= PI <= a_hi:
            pts = np.empty((0, 2))
        else:
            cs = np.linspace(max(c_lo, 1e-12), c_hi, n)
            pts = np.column_stack([np.full(n, PI), cs])
        return BoundaryCurve(CurveKind.ENDPOINT, pts, analytic=True)
    s = 2.0 * math.sin(contact_angle)
    # C(A) <= c_hi needs A >= pi + s/c_hi^2; C(A) >= c_lo needs A <= pi + s/c_lo^2.
    # A square that underflows to 0 stands for its limit, A = inf.  Where
    # pi + s/c_hi^2 rounds to pi, the float above pi is the first A with a
    # finite C(A), and that C is still below c_hi.
    lo = (max(a_lo, math.nextafter(PI, math.inf), PI + s / c_hi ** 2)
          if c_hi ** 2 else math.inf)
    hi = min(a_hi, PI + s / c_lo ** 2) if c_lo > 0.0 and c_lo ** 2 else a_hi
    if lo >= hi:
        return BoundaryCurve(CurveKind.ENDPOINT, np.empty((0, 2)), analytic=True)
    a = np.linspace(lo, hi, n)
    c = np.sqrt(s / (a - PI))
    return BoundaryCurve(CurveKind.ENDPOINT, np.column_stack([a, c]),
                         analytic=True)


def trace_tangency_curve(contact_angle, a_window, c_window,
                         n: int = 200) -> BoundaryCurve:
    """Tangency curve clipped to a window, sampled in capillary ratio.

    The critical mass ratio is single-valued in C, so sampling in C and
    reading off A is the robust parameterization.
    """
    a_lo, a_hi = a_window
    c_lo, c_hi = c_window
    thr = second_extremum_threshold(contact_angle)
    lo = max(c_lo, thr * (1.0 + 1e-9), 1e-6)
    # no sample in the window, as when the maximum never appears (thr = inf)
    if lo >= c_hi:
        return BoundaryCurve(CurveKind.TANGENCY, np.empty((0, 2)), analytic=False)
    # the samples span [lo, c_hi]: check them as critical_mass_ratio would
    for c in (lo, c_hi):
        DimensionlessParams(0.0, c, contact_angle, exploratory=True)
    cs = np.linspace(lo, c_hi, n)
    # critical_mass_ratio over every sample at once, the same bits
    phi = _force_maximum(cs, contact_angle)
    has = phi > PI / 2.0
    cs = cs[has]
    forces = _force(phi[has], 0.0, cs, contact_angle)
    pts = []
    for f, c in zip(forces.tolist(), cs.tolist()):
        a = f / c ** 2  # Python's c ** 2 is not always c * c
        if a_lo <= a <= a_hi:
            pts.append((a, c))
    return BoundaryCurve(CurveKind.TANGENCY,
                         np.array(pts, dtype=float).reshape(-1, 2),
                         analytic=False)


def intersection_curve_point(phi02: float, contact_angle: float
                             ) -> tuple[float, float] | None:
    """(A, C) putting the larger equilibrium exactly on the margin zero.

    The margin is linear in C, so C follows directly from the zero
    condition; the force balance is then linear in A.  None when the
    resulting capillary ratio is not positive.
    """
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
    if contact_angle <= PI / 2.0:
        return BoundaryCurve(CurveKind.INTERSECTION, np.empty((0, 2)),
                             analytic=False)
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
                         np.array(pts, dtype=float).reshape(-1, 2),
                         analytic=False)


_LABEL_TABLE = {
    (0, 0): RegionLabel.ZERO,
    (1, 1): RegionLabel.ONE,
    (2, 2): RegionLabel.TWO,
    (2, 1): RegionLabel.ONE_VALID_ONE_INVALID,
}


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
    validity produce at that point.  The force extrema are found once for
    every column, each bracket one bisection over all columns, and
    ``_count_block`` reads each cell's label from its column's
    breakpoints: the mass-free force at the extrema, at 0 and pi, and at
    the ends of the self-intersecting part of the overhang regime, found
    by one bisection of the margin over all columns.  The few cells
    within a proven band of a breakpoint go through solve's stages
    together (``_count_cells``).  The tangency curve bisects only the
    force maximum (``_force_maximum``).  find_equilibria runs the
    kernels on ``math`` and the blocks on NumPy, so the equality also
    needs their sin and cos to agree bit for bit, as
    ``test_float_kernels_match_numpy`` checks on the platform at hand.
    """
    n_a, n_c = resolution
    if n_a < 2 or n_c < 2:
        raise ValueError(f"resolution must be >= 2 per axis, got {resolution!r}")
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

    minimum, maximum = force_extrema(c_axis, contact_angle)
    n, n_valid = _count_block(a_axis, c_axis, contact_angle,
                              (minimum, maximum))
    # the cells the breakpoints leave open
    i, j = np.nonzero(n < 0)
    if i.size:
        n[i, j], n_valid[i, j] = _count_cells(
            a_axis[i], c_axis[j], contact_angle, (minimum[j], maximum[j]))
    labels = np.empty((n_a, n_c), dtype=object)
    known = np.zeros(n.shape, dtype=bool)
    for (k, k_valid), label in _LABEL_TABLE.items():
        cells = (n == k) & (n_valid == k_valid)
        labels[cells] = label
        known |= cells
    if not known.all():
        # the first unclassifiable cell in column order raises
        j, i = np.argwhere(~known.T)[0].tolist()
        _label(int(n[i, j]), int(n_valid[i, j]), DimensionlessParams(
            float(a_axis[i]), float(c_axis[j]), contact_angle))

    curves = [trace_endpoint_curve(contact_angle, (a_lo, a_hi), (c_lo, c_hi),
                                   curve_samples),
              trace_tangency_curve(contact_angle, (a_lo, a_hi), (c_lo, c_hi),
                                   curve_samples),
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
    nodes 0, minimum, maximum and pi, which solve's brackets rest on.  So
    a cell's count is the number of segments whose node values straddle
    L, and a segment's root lies in [p, q] (clipped to the segment)
    exactly when F0(p) - L and F0(q) - L differ in sign.  The margin is
    monotone in each overhang regime (``intersection``), so the part of
    the regime where it is at most -b, b = _MARGIN_BAND (C + 4), is one
    interval [p, q] with one end at 0 or pi and the other at z-, and so
    is the part where it is at most +b, with z+ (``_intersecting_parts``):
    a root in the first part is invalid, one outside the second valid.
    The breakpoints are F0 at the nodes, at z- and at z+.  A cell whose
    level lies within the band B of a breakpoint, or within D of the rows
    of a flat grid interval, or whose root falls between the two parts,
    reads -1, for ``_count_cells``.  The rest get solve's counts.  With
    s = _SCAN_SLACK (1+C)^2, S and K the bounds on |F'| and |F''| (see
    _BAND), h the grid step and LB = PHI0_TOL + 4 eps pi bisect's last
    bracket:

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
    * Guard.  An interval that the dense-scan guard counts holds a point
      where F0 lies within 3s of L, as the rows lie within 2s of F0, so
      L lies within 5s of the range of these rows too.  A grid interval
      is flat when its rows rise by at most T, and L lies more than
      D >= E + 5s outside a flat interval's rows, so a counted interval
      is steep: |F'| > (T - 4s) / h - K h >= (3s + E) / _SCAN_PAD on it,
      it holds no extremum, and its segment brackets.  F0 moves by at
      most 3s + E between that point and r, so r lies in the interval or
      less than _SCAN_PAD past it: within _SCAN_PAD of a steep neighbour
      F0 moves further, and a flat neighbour's rows would lie within
      E + 5s of L.  Every counted interval is in r's window, and the
      guard adds no root.
    * Extrema.  The interval holding an extremum rises by at most
      K h^2 / 2 + 4s < T, so it is flat, and L lies beyond the extremum
      value by more than B, or on the other side of F0 on the whole
      interval by more than E: the two roots beside the extremum lie in
      distinct grid intervals, h > _DEDUP_TOL apart, and none merges.
      So L stays clear of an extremum value by the range of the rows of
      the flat intervals around it, widened by D: by the rows' slack and
      sag, about K _SCAN_SAG where F'' is not small.
    """
    minimum, maximum = extrema
    zero = np.zeros(cs.size)
    nodes = np.stack([zero, np.where(minimum == minimum, minimum, zero),
                      np.where(maximum == maximum, maximum, zero + PI),
                      zero + PI])
    parts = _intersecting_parts(cs, g)
    f_nodes = _force(nodes, 0.0, cs, g)
    # F0 at the ends of each segment's share of each part
    f_ends = _force(np.stack([np.clip(parts, nodes[k], nodes[k + 1])
                              for k in range(3)]), 0.0, cs, g)
    # the parts' other ends, 0 or pi, repeat two node values
    breakpoints = np.concatenate(
        [f_nodes, _force(parts, 0.0, cs, g).reshape(4, -1)])
    band = _by_powers(_BAND, cs)
    lo, hi = breakpoints - band, breakpoints + band
    _widen_flat(lo, hi, nodes, cs, g)

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


def _widen_flat(lo, hi, nodes, cs, g):
    """Widen the nodes' bands, the first four rows of ``lo`` and ``hi``,
    over the rows of each flat grid interval, widened by D and given to
    the nearest node (see _count_block).  The rows go a block of columns
    at a time, which keeps them small."""
    rise, widen = _by_powers(_FLAT, cs), _by_powers(_WIDEN, cs)
    width = max(1, _BLOCK_SIZE // len(_SCAN_GRID))
    for j0 in range(0, cs.size, width):
        rows = _scan_rows(cs[j0:j0 + width], g)
        step = rows[:, 1:] - rows[:, :-1]
        col, t = np.nonzero(np.abs(step, out=step)
                            <= rise[j0:j0 + width, None])
        f0, f1 = rows[col, t], rows[col, t + 1]
        col += j0
        mid = (_SCAN_GRID[t] + _SCAN_GRID[t + 1]) / 2.0
        k = np.abs(nodes[:, col] - mid).argmin(axis=0)
        np.minimum.at(lo, (k, col), np.minimum(f0, f1) - widen[col])
        np.maximum.at(hi, (k, col), np.maximum(f0, f1) + widen[col])


def _by_powers(coef, c):
    """coef[0] + coef[1] C + coef[2] C^2, evaluated by powers of C."""
    return coef[0] + c * (coef[1] + c * coef[2])


def _count_cells(a, c, g, extrema):
    """Equilibria and valid equilibria of the cells (a[k], c[k]).

    ``extrema`` holds each cell's ``force_extrema``.  The cells run through
    solve's stages together, each one a column of its own: ``_bracket``,
    then ``_roots`` (bisection, dense-scan guard, dedup), and each root in
    an overhang regime through ``intersection_margin``.
    """
    n = np.zeros(a.size, dtype=np.int64)
    n_valid = n.copy()
    block = _bracket(a, c, g, extrema)
    if block.a is None:
        return n, n_valid
    roots = _roots(block, g)
    count = (roots == roots).sum(axis=1)
    # only a root in an overhang regime can cross; NaN is in none
    i, k = np.nonzero(np.logical_or(*_overhang(roots, g)))
    cross = np.bincount(i, [
        intersection_margin(r, c_i, g) <= 0.0
        for r, c_i in zip(roots[i, k].tolist(), block.c[i].tolist())],
        minlength=count.size)
    n[block.live] = count
    n_valid[block.live] = count - cross.astype(np.int64)
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
                "gaps": list(c.gaps),
            }
            for c in rm.curves
        ],
    }
