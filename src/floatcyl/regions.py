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
so a root's bisection stops once its bracket settles both: the bracket
lies in one regime, the margin (monotone in phi0 there) has one sign at
both ends clear of its rounding, and the bracket decides the dense-scan
guard and the dedup as the root would.  The final root always lies in the
bracket, so these labels are the fully bisected ones; a cell where any of
this fails bisects to the end, as find_equilibria does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .equilibria import (_DEDUP_TOL, _MAX_HALVINGS,
                         NoSecondCriticalPointError, _Bisection, _bracket,
                         _pack, _scan_guard, _window, bisect,
                         critical_mass_ratio, find_equilibria, force_extrema,
                         second_extremum_threshold)
from .intersection import _margin, _overhang, intersection_margin, validity
from .model import DimensionlessParams, _force, total_force

PI = math.pi
# Cells per region_map block (whole columns, at least one): bounds the
# solver's temporaries.
_BLOCK_CELLS = 5000
# Halvings a segment lane runs before _count_block tests its bracket.
_SETTLE_HALVINGS = 16
# A stopped lane's root lies at most (halvings left) 2^-52 above xa + dm
# (see _Bisection); the pad covers every halving and the two roundings of
# xa + dm + pad.
_SETTLE_PAD = (_MAX_HALVINGS + 2) * 2.0 ** -52
# The margin's rounding band, per unit of C + 4 (see _settle).
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
    # A square that underflows to 0 stands for its limit, A = inf.
    lo = max(a_lo, PI + s / c_hi ** 2) if c_hi ** 2 else math.inf
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
    phi = force_extrema(cs, contact_angle)[1]
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
    every column, and the grid is counted a block of columns at a time by
    ``_count_block``: the solver's stages with each root's bisection
    stopped once its label can no longer change.  find_equilibria runs the
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

    labels = np.empty((n_a, n_c), dtype=object)
    width = max(1, _BLOCK_CELLS // n_a)
    minimum, maximum = force_extrema(c_axis, contact_angle)
    for j0 in range(0, n_c, width):
        cols = slice(j0, j0 + width)
        n, n_valid = _count_block(a_axis, c_axis[cols], contact_angle,
                                  (minimum[cols], maximum[cols]))
        block = labels[:, cols]
        known = np.zeros(n.shape, dtype=bool)
        for (k, k_valid), label in _LABEL_TABLE.items():
            cells = (n == k) & (n_valid == k_valid)
            block[cells] = label
            known |= cells
        if not known.all():
            # the first unclassifiable cell in column order raises
            j, i = np.argwhere(~known.T)[0].tolist()
            _label(int(n[i, j]), int(n_valid[i, j]), DimensionlessParams(
                float(a_axis[i]), float(c_axis[j0 + j]), contact_angle))

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
    """Equilibria and valid equilibria of each cell of a_axis x cs.

    Both (len(a_axis), len(cs)) int arrays; ``extrema`` is the columns'
    ``force_extrema``.  The cells go through solve's bracket stage
    (``_bracket``), and each segment lane through _SETTLE_HALVINGS of
    bisect's halvings (``_Bisection``); its root then lies in
    [xa, xa + dm + _SETTLE_PAD].  A cell whose brackets settle its count
    (``_settle``), and in which the dense-scan guard (``_scan_guard``),
    run once over every cell's windows, finds nothing to rescan, is
    counted from its brackets.  Every other cell resumes its lanes to
    solve's bits and goes through solve's dedup and rescan (``_pack``)
    and ``intersection_margin`` as before, so every count is exact.
    """
    n = np.zeros((a_axis.size, cs.size), dtype=np.int64)
    n_valid = n.copy()
    block = _bracket(a_axis[:, None], cs[None, :], g, extrema)
    if block.a is None:
        return n, n_valid
    a, c, found = block.a, block.c, block.found
    n_nodes = block.nodes.shape[1]
    # each cell's roots as brackets [lo, hi], in node, segment, node, ...
    # order, which ascends
    lo = np.full((a.size, 2 * n_nodes - 1), np.nan)
    lo[:, ::2] = found[:, :n_nodes]
    # every segment's lanes side by side; a segment's lone lane bisects on
    # floats, as in solve
    lane, k = np.nonzero(block.bracket)
    alone = np.bincount(k)[k] == 1
    for i, j in zip(lane[alone].tolist(), k[alone].tolist()):
        a_i, c_i = float(a[i]), float(c[i])
        found[i, n_nodes + j] = lo[i, 2 * j + 1] = bisect(
            lambda x: _force(x, a_i, c_i, g),
            float(block.nodes[i, j]), float(block.nodes[i, j + 1]))
    hi = lo.copy()
    lane, k = lane[~alone], k[~alone]
    sa, sc = a[lane], c[lane]
    x0, x1 = block.nodes[lane, k], block.nodes[lane, k + 1]
    run = _Bisection(x0, x1, _force(x0, sa, sc, g), _force(x1, sa, sc, g)
                     ).run(lambda x: _force(x, sa, sc, g), _SETTLE_HALVINGS)
    lo[lane, 2 * k + 1] = np.where(run.todo, run.xa, run.root)
    hi[lane, 2 * k + 1] = np.where(run.todo, run.xa + run.dm + _SETTLE_PAD,
                                   run.root)

    cell, crossing, settled = _settle(lo, hi, c, g)
    del hi, x0, x1  # not needed by the guard, which peaks next

    def resume(cells):
        # the lanes of these cells run on to solve's roots
        sub = np.flatnonzero(cells[lane])
        if sub.size:
            la, lc = sa[sub], sc[sub]
            found[lane[sub], n_nodes + k[sub]] = run.take(sub).run(
                lambda x: _force(x, la, lc, g)).result()

    # one guard for every cell: a settled root's window is its bracket's,
    # the others' their roots'
    resume(~settled)
    lo[~settled] = np.sort(found[~settled], axis=1, kind="stable")
    i, j = np.nonzero(lo == lo)
    windows = (i, *_window(lo[i, j]))
    if a.size == 1:
        windows = list(zip(windows[1].tolist(), windows[2].tolist()))
    rescan = np.zeros(a.size, dtype=bool)
    rescan[_scan_guard(windows, a, c, block.col, block.rows)] = True
    resume(settled & rescan)
    settled &= ~rescan

    count = np.bincount(cell, minlength=a.size)
    cross = np.bincount(cell, crossing, minlength=a.size).astype(np.int64)
    u = np.flatnonzero(~settled)
    if u.size:
        roots = _pack(found[u], np.sort(found[u], axis=1, kind="stable"),
                      np.flatnonzero(rescan[u]).tolist(), a[u], c[u], g)
        count[u] = (roots == roots).sum(axis=1)
        # only a root in an overhang regime can cross; NaN is in none
        ii, kk = np.nonzero(np.logical_or(*_overhang(roots, g)))
        cross[u] = np.bincount(ii, [
            intersection_margin(r, c_i, g) <= 0.0
            for r, c_i in zip(roots[ii, kk].tolist(), c[u[ii]].tolist())],
            minlength=u.size)
    n.flat[block.live] = count
    n_valid.flat[block.live] = count - cross
    return n, n_valid


def _settle(lo, hi, c, g):
    """The cells whose root count and crossings their brackets settle.

    ``lo`` and ``hi`` hold each cell's roots as brackets [lo, hi] that
    hold them, ascending, NaN where none (a node root's bracket being the
    root itself), and ``c`` each cell's capillary ratio.  Returns each
    root's cell and whether it crosses, in row order, and the settled
    cells: those where for each root

    * the bracket lies in one overhang regime, or in none, over all of it
      (``_overhang`` at both ends, and the upper end <= pi: the regimes
      are intervals within [0, pi] that reach 0 and pi respectively);
    * in a regime, the margin has one sign at both ends, clear of
      _MARGIN_BAND (C + 4): the margin is monotone in phi0 there, and its
      terms add to at most C + 4 in size there (see ``intersection``), so
      ``intersection_margin`` and ``_margin`` on NumPy each round it by a
      few ulps of C + 4, far inside the band, and the root's margin has
      that sign in ``intersection_margin`` too;
    * its guard window [first, last] (``_window``) is the same at both
      ends, so it is the root's window;
    * its bracket starts more than _DEDUP_TOL above the end of the one
      before it, so solve's roots are in this order and none merges.

    Each root of a settled cell is then one of solve's roots, and crosses
    exactly when ``intersection_margin`` says so there.
    """
    cell, slot = np.nonzero(lo == lo)
    x0, x1 = lo[cell, slot], hi[cell, slot]
    negative, positive = _overhang(x0, g)
    negative_1, positive_1 = _overhang(x1, g)
    first, last = _window(x0)
    first_1, last_1 = _window(x1)
    ok = ((negative == negative_1) & (positive == positive_1) & (x1 <= PI)
          & (first == first_1) & (last == last_1))
    over = np.flatnonzero(negative | positive)
    m0, m1 = (_margin(x[over], c[cell[over]], g, np) for x in (x0, x1))
    band = _MARGIN_BAND * (4.0 + c[cell[over]])
    crossing = np.zeros(cell.size, dtype=bool)
    crossing[over] = np.maximum(m0, m1) < -band
    ok[over] &= crossing[over] | (np.minimum(m0, m1) > band)
    # apart from the bracket before it, so from every earlier one, as
    # each bracket starts no higher than it ends
    ok[1:] &= (cell[1:] != cell[:-1]) | (x0[1:] - x1[:-1] > _DEDUP_TOL)
    settled = np.ones(lo.shape[0], dtype=bool)
    settled[cell[~ok]] = False
    return cell, crossing, settled


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
