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
give it, from the same solver stages, so labels are self-consistent with
the library by construction.  A label needs only the root count and, for
a root in an overhang regime, the sign of the intersection margin there,
so most cells need no root at all: the dense-scan guard's rows bound the
force tightly enough to place each root in one grid interval, and that
interval settles its regime and its margin's sign (``_count_block`` has
the proof).  On the default 200 x 200 grid this leaves 0.08-0.24 % of
the cells open; they go through solve's remaining stages together, once
per map, as find_equilibria does, and find_equilibria still bisects
every root it prints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .equilibria import (_SCAN_GRID, _SCAN_SAG, _SCAN_SLACK, PHI0_TOL,
                         NoSecondCriticalPointError, _bracket, _force_maximum,
                         _roots, bisect, critical_mass_ratio, find_equilibria,
                         force_extrema, second_extremum_threshold)
from .intersection import _margin, _overhang, intersection_margin, validity
from .model import DimensionlessParams, _force, total_force

PI = math.pi
# Cells plus row points per region_map block (whole columns, at least
# one): a column brings its cells and its guard row, and the temporaries
# grow with both.
_BLOCK_SIZE = 30000
# bisect's root lies within its last bracket, PHI0_TOL + 4 eps pi wide, of
# a sign change of _force; the rest of _LAST_BRACKET, over 100 slacks (see
# _count_block), covers _force's rounding there and the rows test's own.
_LAST_BRACKET = 2.0 * PHI0_TOL
# The rows test's margin M(C) = 2 _SCAN_SLACK (1+C)^2
# + (2 + 9C + 2C^2) _SCAN_SAG + (2 + 6C + 2C^2) _LAST_BRACKET, by powers of
# C (see _count_block)
_ROWS_MARGIN = (2.0 * _SCAN_SLACK + 2.0 * _SCAN_SAG + 2.0 * _LAST_BRACKET,
                4.0 * _SCAN_SLACK + 9.0 * _SCAN_SAG + 6.0 * _LAST_BRACKET,
                2.0 * _SCAN_SLACK + 2.0 * _SCAN_SAG + 2.0 * _LAST_BRACKET)
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


def tangency_curve_from_mass_ratios(contact_angle: float,
                                    mass_ratios) -> BoundaryCurve:
    """Tangency boundary traced at prescribed mass-ratio samples.

    Samples with no solution are omitted and recorded in ``gaps``.
    """
    pts, gaps = [], []
    for a in mass_ratios:
        c = tangency_boundary_c(contact_angle, float(a))
        if c is None:
            gaps.append(float(a))
        else:
            pts.append((float(a), c))
    pts.sort()
    return BoundaryCurve(kind=CurveKind.TANGENCY,
                         points=np.array(pts, dtype=float).reshape(-1, 2),
                         analytic=False, gaps=tuple(gaps))


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
    every column, each bracket one bisection over all columns, and the
    grid is counted a block of columns at a time by ``_count_block``,
    from solve's brackets and the dense-scan guard's rows; the node
    forces' trig runs once per column, and only the (column, interval)
    pairs that a proven screen keeps are searched for cells.  The few
    cells those leave open go through solve's remaining stages together
    (``_count_cells``).  The tangency curve bisects only the force
    maximum (``_force_maximum``).  find_equilibria runs the
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

    n = np.empty((n_a, n_c), dtype=np.int64)
    n_valid = np.empty_like(n)
    width = max(1, _BLOCK_SIZE // (n_a + len(_SCAN_GRID)))
    minimum, maximum = force_extrema(c_axis, contact_angle)
    for j0 in range(0, n_c, width):
        cols = slice(j0, j0 + width)
        n[:, cols], n_valid[:, cols] = _count_block(
            a_axis, c_axis[cols], contact_angle,
            (minimum[cols], maximum[cols]))
    # the cells the rows leave open, from every block at once
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

    Both (len(a_axis), len(cs)) int arrays; ``a_axis`` ascends, and
    ``extrema`` is the columns' ``force_extrema``.  After solve's bracket
    stage (``_bracket``, its node forces from per-column terms) each live
    cell is counted from the guard's rows, with no bisection.  Its W is
    the set of grid intervals whose row range [lo, hi], widened by M(C)
    (_ROWS_MARGIN), holds its level A C^2; ``_rows_search`` finds, per
    (column, interval) pair, the run of cells whose W holds it, searching
    only the pairs a conservative screen on the fractional level index
    keeps (the proof is its docstring).  The cell is settled when it has
    no node root, W has one interval per bracketed segment, no interval
    of W holds a force extremum, and each interval of W lies in one
    overhang regime, or in none, with one margin sign at both ends clear
    of _MARGIN_BAND (C + 4).  Its count is then its number of bracketed
    segments, and its crossings are the intervals of W with a negative
    margin; every other cell reads -1, for ``_count_cells``.  These are
    the counts of solve's roots:

    * Outside W, the exact F lies more than (2 + 6C + 2C^2) _LAST_BRACKET
      from zero on the whole interval: the rows lie within two slacks of
      the exact F(.; A=0) at the grid points, and inside an interval
      F(.; A=0) stays within (2 + 9C + 2C^2) _SCAN_SAG of its range at the
      ends, as in ``_rootless``.  A root r of solve lies within
      PHI0_TOL + 4 eps pi of a sign change of _force (bisect's last
      bracket), and |F'| <= 2 + 6C + 2C^2 (``force_slope``'s terms), so
      |F(r)| is below that bound: every interval holding r is in W.  The
      bound's surplus, about PHI0_TOL (2 + 6C + 2C^2), over 100 slacks as
      2 + 6C + 2C^2 >= 2 (1+C)^2, covers _force's rounding at r, the
      rounding of the level and of lo - M and hi + M (each a few ulps of
      (1+C)^2), and the slacks between these rows and solve's own.
    * A node, an extremum, separates the roots of two bracketed segments,
      and no interval of W holds one, so they lie in distinct intervals of
      W, at least one grid step (more than _DEDUP_TOL) apart: none merges,
      and each interval of W holds exactly one root.
    * Every crossing the dense-scan guard counts lies within a slack of
      the level on solve's rows, so in W, and the window (``_window``) of
      the root that interval holds covers it: the guard adds no root.
    * With no node root, solve's count is then the number of bracketed
      segments.  The regimes are intervals within [0, pi] that reach 0 and
      pi, so an interval with both ends in one regime (or in none) lies in
      it; the margin is monotone in phi0 there, and its terms add to at
      most C + 4 in size (see ``intersection``), so ``intersection_margin``
      and ``_margin`` on NumPy round it by a few ulps of C + 4, far inside
      the band: the root's margin has the ends' sign.
    """
    n = np.zeros((a_axis.size, cs.size), dtype=np.int64)
    n_valid = n.copy()
    block = _bracket(a_axis[:, None], cs[None, :], g, extrema)
    if block.a is None:
        return n, n_valid
    # what the count needs of the per-cell arrays, freed before the search
    live, rows = block.live, block.rows
    bracketed = block.bracket.sum(axis=1)
    node_roots = block.found[:, :block.nodes.shape[1]]
    no_node_root = (node_roots != node_roots).all(axis=1)
    del block, node_roots
    m0, m1, m2 = _ROWS_MARGIN
    pair, first, span = _rows_search(a_axis, cs, rows,
                                     m0 + cs * (m1 + cs * m2))
    del rows
    col, t = np.divmod(pair, len(_SCAN_GRID) - 1)
    x0, x1 = _SCAN_GRID[t], _SCAN_GRID[t + 1]
    ok = np.ones(pair.size, dtype=bool)
    for node in extrema:
        ok &= ~((x0 <= node[col]) & (node[col] <= x1))
    negative, positive = _overhang(x0, g)
    negative_1, positive_1 = _overhang(x1, g)
    ok &= (negative == negative_1) & (positive == positive_1)
    over = np.flatnonzero(negative | positive)
    c_over = cs[col[over]]
    m_0, m_1 = (_margin(x[over], c_over, g, np) for x in (x0, x1))
    band = _MARGIN_BAND * (4.0 + c_over)
    crossing = np.zeros(pair.size, dtype=bool)
    crossing[over] = np.maximum(m_0, m_1) < -band
    ok[over] &= crossing[over] | (np.minimum(m_0, m_1) > band)

    # the same per cell: each pair's run of cells, by live position
    owner = np.repeat(np.arange(pair.size), span)
    i = (first[owner] + np.arange(owner.size)
         - np.repeat(np.cumsum(span) - span, span))
    position = np.full(n.size, -1)
    position[live] = np.arange(live.size)
    cell = position[i * cs.size + col[owner]]
    owner, cell = owner[cell >= 0], cell[cell >= 0]
    size = live.size
    settled = ((np.bincount(cell, minlength=size) == bracketed)
               & (np.bincount(cell, ~ok[owner], minlength=size) == 0)
               & no_node_root)
    cross = np.bincount(cell, crossing[owner], minlength=size).astype(np.int64)
    n.flat[live] = np.where(settled, bracketed, -1)
    n_valid.flat[live] = np.where(settled, bracketed - cross, -1)
    return n, n_valid


def _rows_search(a_axis, cs, rows, margin):
    """The (column, interval) pairs whose widened row range holds a level.

    ``rows`` holds the columns' ``_scan_rows`` and ``margin`` each column's
    M.  A pair's range is lo = min(row ends) - M, hi = max(row ends) + M,
    and column j's levels a_axis * cs[j] * cs[j] ascend.  Returns (pair,
    first, span): the flat indices into (len(cs), len(_SCAN_GRID) - 1) of
    the pairs with span > 0, ascending, where first and first + span are
    ``np.searchsorted(level, lo, "right")`` and ``(level, hi, "left")``,
    the run of cells whose level lies in (lo, hi).

    a_axis is a linspace, so a level y of column C sits near the
    fractional index y s - o, s = 1 / (C^2 da) and o = a0 / da, with da
    the axis' step and a0 its first point; dev >= |a_i - a0 - i da| / da
    is measured on the axis itself.  A pair's x_lo = min(row ends) s -
    (M s + o + delta), clipped below at 0, and x_hi = max(row ends) s +
    (M s - o + delta), clipped above at n - 1, and only the pairs with an
    integer in [x_lo, x_hi] are searched.  The screen is conservative:
    in index units the axis is off by dev, and a level's two roundings,
    lo's and hi's one, and the screen's own, fewer than ten, are each at
    most an ulp of |r s| + M s + |o| + n + dev, where |r s| <= 4 (1+C)^2 s
    and M s <= (1+C)^2 s; delta = dev + 2^-46 (5 (1+C)^2 s + |o| + n +
    dev) is dev plus 64 ulps of that bound.  So level_i > lo gives
    i >= x_lo and level_i < hi gives i <= x_hi: every cell in (lo, hi)
    lies in [x_lo, x_hi].  The same bounds give level_i <= lo =>
    i <= x_lo + 2 delta and level_i >= hi => i >= x_hi - 2 delta, so, with
    delta < 1/4, first is ceil(x_lo) or one more and first + span is
    floor(x_hi) or one more: one comparison with the level settles each.  A column where C^2 da, a0 C^2 or a product
    on the way can leave the normal floats (C = 1e-170 on the default
    window), or whose delta is not below 1/4, keeps the exact search.
    """
    n = a_axis.size
    a0 = a_axis[0]
    da = (a_axis[-1] - a0) / (n - 1)
    unit = min(a0, da, 1.0)
    dev = o = 0.0
    if unit > 0.0:
        dev = np.abs(a_axis - (a0 + np.arange(n) * da)).max() / da
        o = a0 / da
    screened = np.minimum(cs, 1.0) ** 2 * unit >= 2.0 ** -1000
    s = np.where(screened, 1.0 / np.where(screened, cs * cs * da, 1.0), 0.0)
    delta = dev + 2.0 ** -46 * (5.0 * s * (1.0 + cs) ** 2 + abs(o) + n + dev)
    screened &= delta < 0.25
    # r s rounds monotonically in r, so the ends' min and max come first
    x0 = np.minimum(rows[:, :-1], rows[:, 1:])
    x0 *= s[:, None]
    x0 -= (margin * s + o + delta)[:, None]
    np.maximum(x0, 0.0, out=x0)
    k1 = np.maximum(rows[:, :-1], rows[:, 1:])
    k1 *= s[:, None]
    k1 += (margin * s - o + delta)[:, None]
    np.minimum(k1, n - 1.0, out=k1)
    np.floor(k1, out=k1)
    # an unscreened column: every interval, settled by the full search
    x0[~screened] = 0.0
    k1[~screened] = 0.0
    pair = np.flatnonzero(x0 <= k1)
    col = pair // (rows.shape[1] - 1)
    ends = rows.take(pair + col), rows.take(pair + col + 1)
    lo = np.minimum(*ends)
    hi = np.maximum(*ends)
    lo -= margin[col]
    hi += margin[col]
    i0 = np.ceil(x0.take(pair)).astype(np.int64)
    i1 = k1.take(pair).astype(np.int64)
    c = cs[col]
    first = i0 + (a_axis[i0] * c * c <= lo)
    end = i1 + (a_axis[i1] * c * c < hi)
    for j in np.flatnonzero(~screened).tolist():
        level = a_axis * cs[j] * cs[j]
        cut = slice(*np.searchsorted(col, [j, j + 1]).tolist())
        first[cut] = np.searchsorted(level, lo[cut], "right")
        end[cut] = np.searchsorted(level, hi[cut], "left")
    end -= first
    kept = end > 0
    return pair[kept], first[kept], end[kept]


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
