"""Force-balance points of the floating cylinder and their stability.

The vertical force F(phi0) has a rigid shape on [0, pi]: depending on the
contact angle and the capillary ratio it has either one interior extremum or
two (a minimum then a maximum), so it admits at most two zeros.  Roots are
bracketed on the monotone segments between the extrema and refined by
bisection; a zero is stable when F increases through it (the center height
decreases monotonically with phi0, so dF/dphi0 > 0 means the energy is at a
local minimum).
"""

from __future__ import annotations

import math
import sys
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import DimensionlessParams, _force, _height, _slope

PI = math.pi

# Bisection tolerance on phi0 for every root in this module.
PHI0_TOL = 1e-12
# |F| below this at a segment node counts as a root sitting on the node.
ROOT_VALUE_TOL = 1e-9
# |dF/dphi0| band classifying a root as marginal (tangent) rather than
# stable/unstable.
TANGENCY_TOL = 1e-6
# Distinct roots closer than this collapse to one.
_DEDUP_TOL = 1e-7
# Fallback dense-scan grid guarding the monotone-segment brackets.
_SCAN_GRID = np.linspace(0.0, PI, 1000)
# A root within _SCAN_PAD of grid interval j, i.e. in
# [_SCAN_FROM[j], _SCAN_TO[j]], accounts for a sign change there.
_SCAN_PAD = PI / len(_SCAN_GRID)
_SCAN_FROM = _SCAN_GRID[:-1] - _SCAN_PAD
_SCAN_TO = _SCAN_GRID[1:] + _SCAN_PAD
# the same bounds as floats, for a lone cell's windows
_SCAN_FROM_FLOATS = _SCAN_FROM.tolist()
_SCAN_TO_FLOATS = _SCAN_TO.tolist()
# pad < grid step: a root's window spans at most three intervals
_WINDOW = np.arange(3)
# The guard's basis: sin(phi+gamma) and cos((phi+gamma)/2) expanded give
# F(grid; A=0) = cos(gamma) b0 + sin(gamma) b1 + C cos(gamma/2) b2
# + C sin(gamma/2) b3 + C^2 b4 (see _scan_rows).
_SCAN_BASIS = np.stack([-2.0 * np.sin(_SCAN_GRID),
                        -2.0 * np.cos(_SCAN_GRID),
                        -4.0 * np.cos(_SCAN_GRID / 2.0) * np.sin(_SCAN_GRID),
                        4.0 * np.sin(_SCAN_GRID / 2.0) * np.sin(_SCAN_GRID),
                        _SCAN_GRID - 0.5 * np.sin(2.0 * _SCAN_GRID)])
# The expansion rounds apart from _force by at most _SCAN_SLACK (1+C)^2
# (test_scan_slack_bounds_the_expansion); a count widened by that never
# falls below _force's.
_SCAN_SLACK = 64.0 * sys.float_info.epsilon
# An interior extremum of F lies within half a grid step h of a grid point,
# where F' = 0, so F there is within |F''| h^2 / 8 of that point's value.
_SCAN_SAG = (PI / (len(_SCAN_GRID) - 1)) ** 2 / 8.0
# _rootless's margin 2 _SCAN_SLACK (1+C)^2 + (2 + 9C + 2C^2) _SCAN_SAG
# + ROOT_VALUE_TOL, by powers of C
_MARGIN = (2.0 * _SCAN_SLACK + 2.0 * _SCAN_SAG + ROOT_VALUE_TOL,
           4.0 * _SCAN_SLACK + 9.0 * _SCAN_SAG,
           2.0 * _SCAN_SLACK + 2.0 * _SCAN_SAG)
# Bracketed segments up to which _roots bisects each on floats: an array
# bisection's halving costs about as much in NumPy calls as one halving
# of 20 float lanes.
_FLOAT_LANES = 16
# SciPy's bisect defaults: relative tolerance and iteration cap.
_RTOL = 4.0 * sys.float_info.epsilon
_MAX_HALVINGS = 100


class Stability(str, Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    MARGINAL_UNSTABLE = "marginal_unstable"


class ExtremumKind(str, Enum):
    MINIMUM = "minimum"
    MAXIMUM = "maximum"


class NoSecondCriticalPointError(Exception):
    """The force curve has no interior maximum past pi/2 in this regime."""


class UnsupportedRegimeError(Exception):
    """Asked for an asymptotic series outside its derivation regime."""


class ModelInconsistencyWarning(UserWarning):
    """The dense scan found a root the monotone-segment structure missed."""


@dataclass(frozen=True)
class CriticalPoint:
    phi0: float
    kind: ExtremumKind


@dataclass(frozen=True)
class Equilibrium:
    """A force-balance wetting angle with its local stability."""

    phi0: float
    stability: Stability
    force_slope: float
    height: float


def _classify(slope: float) -> Stability:
    if slope > TANGENCY_TOL:
        return Stability.STABLE
    if slope < -TANGENCY_TOL:
        return Stability.UNSTABLE
    return Stability.MARGINAL_UNSTABLE


def bisect(f, lo, hi):
    """SciPy's ``bisect(f, lo, hi, xtol=PHI0_TOL)``, bit for bit, elementwise.

    Halve dm, probe xm = xa + dm, keep xm as the new xa when
    f(xm) f(xa) >= 0, and return xm once f(xm) == 0 or
    |dm| < PHI0_TOL + 4 eps |xm|.  f(lo) and f(hi) must not share a sign.
    Floats run SciPy's loop as written, so a lone lane, as in each
    find_equilibria call, skips the masks' arithmetic in every halving.
    Array elements run side by side, each selected by ``np.where``, so
    each equals its scalar run.  When every lane shares one float bracket,
    as in ``force_extrema``, dm is one float for all of them, and each xm
    lies within the bracket widened by half an ulp per halving, so within
    twice its larger end: while |dm| is at least twice
    PHI0_TOL + 4 eps max(|lo|, |hi|), no lane's tolerance test can pass,
    and only f(xm) == 0 can stop a lane.
    """
    fa, fb = f(lo), f(hi)
    if not any(isinstance(v, np.ndarray) for v in (fa, fb, lo, hi)):
        if fa == 0.0:
            return lo
        if fb == 0.0:
            return hi
        xa, dm = lo, hi - lo
        for _ in range(_MAX_HALVINGS):
            dm *= 0.5
            xm = xa + dm
            fm = f(xm)
            if fm * fa >= 0.0:
                xa = xm
            if fm == 0.0 or abs(dm) < PHI0_TOL + _RTOL * abs(xm):
                return xm
        raise RuntimeError(
            f"bisection not converged in {_MAX_HALVINGS} halvings")
    todo = (fa != 0.0) & (fb != 0.0)
    root = np.where(fa == 0.0, lo, hi)
    xa, dm = lo, hi - lo
    # one bracket: the |dm| from which no lane's tolerance test can pass
    wide = (None if isinstance(dm, np.ndarray)
            else 2.0 * (PHI0_TOL + _RTOL * max(abs(lo), abs(hi))))
    for _ in range(_MAX_HALVINGS):
        dm = dm * 0.5
        xm = xa + dm
        fm = f(xm)
        xa = np.where(fm * fa >= 0.0, xm, xa)
        if wide is not None and abs(dm) >= wide:
            stop = todo & (fm == 0.0)
            if not stop.any():
                continue
        else:
            stop = todo & ((fm == 0.0) | (abs(dm) < PHI0_TOL + _RTOL * abs(xm)))
        root = np.where(stop, xm, root)
        todo = todo & ~stop
        if not todo.any():
            return root
    raise RuntimeError(f"bisection not converged in {_MAX_HALVINGS} halvings")


def second_extremum_threshold(contact_angle: float) -> float:
    """Capillary ratio above which the force curve has its second extremum.

    Zero for contact angles >= pi/2 (the maximum always exists there);
    cos(gamma) / (2 sin(gamma/2)) for gamma in (0, pi/2); infinite for
    gamma = 0, where the force is eventually increasing for every C, and
    where sin(gamma/2) underflows to zero (gamma = 5e-324).
    """
    if not 0.0 <= contact_angle <= PI:
        raise ValueError(f"contact_angle must lie in [0, pi], got {contact_angle!r}")
    if contact_angle >= PI / 2.0:
        return 0.0
    half = math.sin(contact_angle / 2.0)
    return math.cos(contact_angle) / (2.0 * half) if half else math.inf


def force_extrema(capillary_ratios, contact_angle: float):
    """Interior minimum and maximum of the force curve for each capillary ratio.

    A scalar gives two floats, an array two float arrays shaped like it;
    NaN where that extremum does not exist.  A minimum lies below every
    maximum.  The slope dF/dphi0 does not involve the mass ratio, so the
    extrema depend on (C, gamma) only.  Bracketing follows the regime
    structure (``_extremum_brackets``):

    * gamma = pi/2: one minimum in (0, pi/2), one maximum in (pi/2, pi),
      mirror images about pi/2.
    * gamma > pi/2: a maximum in (pi/2, pi) always; a minimum in (0, pi/4)
      exactly when the slope at phi0 = 0 is negative.
    * gamma < pi/2: a minimum in (0, pi/2) always; a maximum in (3pi/4, pi)
      exactly when the slope at phi0 = pi is negative.

    A bracket whose endpoint slopes do not change sign is dropped.  Each
    bracket is bisected once over every capillary ratio it holds
    (``_extremum``), one float bracket shared by all of them; a scalar
    runs on floats throughout.  Callers that use the maximum alone
    (``critical_mass_ratio``, ``regions.trace_tangency_curve``) call
    ``_force_maximum``, which bisects the maximum's bracket only.
    """
    c = _capillary_ratios(capillary_ratios)
    minimum, maximum = _extremum_brackets(contact_angle)
    return (_extremum(c, contact_angle, *minimum),
            _extremum(c, contact_angle, *maximum))


def _force_maximum(capillary_ratios, contact_angle: float):
    """``force_extrema(capillary_ratios, contact_angle)[1]``, the same bits,
    without bisecting the minimum."""
    return _extremum(_capillary_ratios(capillary_ratios), contact_angle,
                     *_extremum_brackets(contact_angle)[1])


def _capillary_ratios(capillary_ratios):
    """A float for a scalar, else a float array."""
    c = np.asarray(capillary_ratios, dtype=float)
    return c.item() if c.ndim == 0 else c


def _extremum_brackets(g):
    """The minimum's and the maximum's (lo, hi, the bracket needs
    slope(lo) < 0, ... needs slope(hi) < 0)."""
    if g == PI / 2.0:
        return (0.0, PI / 2.0, False, False), (PI / 2.0, PI, False, False)
    if g > PI / 2.0:
        return (0.0, PI / 4.0, True, False), (PI / 2.0, PI, False, False)
    return (0.0, PI / 2.0, False, False), (3.0 * PI / 4.0, PI, False, True)


def _extremum(c, g, lo, hi, lo_negative, hi_negative):
    """One bracket of ``force_extrema`` for a float or an array ``c``."""
    s_lo, s_hi = _slope(lo, c, g), _slope(hi, c, g)
    ok = s_lo * s_hi < 0.0
    if lo_negative:
        ok = ok & (s_lo < 0.0)
    if hi_negative:
        ok = ok & (s_hi < 0.0)
    if isinstance(c, float):
        return bisect(lambda x: _slope(x, c, g), lo, hi) if ok else math.nan
    phi = np.full(c.shape, np.nan)
    idx = np.flatnonzero(ok)
    if idx.size:
        sub, = _lanes(idx, c.ravel())
        phi.flat[idx] = bisect(lambda x: _slope(x, sub, g), lo, hi)
    return phi


def critical_points(params: DimensionlessParams) -> list[CriticalPoint]:
    """Interior extrema of the force curve, ascending in phi0.

    The one-capillary-ratio call of ``force_extrema``.
    """
    minimum, maximum = force_extrema(params.capillary_ratio,
                                     params.contact_angle)
    return [CriticalPoint(phi, kind)
            for phi, kind in ((minimum, ExtremumKind.MINIMUM),
                              (maximum, ExtremumKind.MAXIMUM))
            if phi == phi]


def _lanes(idx, *arrays):
    """Each 1-D array at ``idx``; a lone lane as floats, which run on math."""
    if idx.size > 1:
        return [x[idx] for x in arrays]
    return [float(x[idx[0]]) for x in arrays]


def solve(mass_ratios, capillary_ratios, contact_angle: float,
          critical: list[CriticalPoint] | None = None) -> np.ndarray:
    """Ascending zeros of F on [0, pi] for every cell, padded with NaN.

    The cells are the broadcast of ``mass_ratios`` against
    ``capillary_ratios``; the result has the broadcast shape plus one
    trailing axis, as wide as the most roots a cell has.  Each capillary
    ratio is a column with the guard's row F(_SCAN_GRID; A=0) and the nodes
    0, minimum, maximum and pi (the extrema of ``critical`` for every column
    when given), a missing extremum at 0 or pi.  A cell whose level A C^2
    lies so far outside its row's range that F provably keeps one sign
    (``_rootless``) has no root and goes no further; when no cell is left,
    the extrema are never found.  Otherwise a node with
    |F| <= ROOT_VALUE_TOL is a root (the endpoint root at pi, the tangency
    at A*); every segment whose ends change sign is bisected, and
    ``_scan_guard`` backstops the segments.  Of roots closer
    than _DEDUP_TOL the first in node, segment, guard order counts.
    ``_bracket`` is the stage up to the bisections, ``_roots`` the rest.
    """
    extrema = None
    if critical is not None:
        phis = {cp.kind: cp.phi0 for cp in critical}
        extrema = (phis.get(ExtremumKind.MINIMUM, math.nan),
                   phis.get(ExtremumKind.MAXIMUM, math.nan))
    block = _bracket(mass_ratios, capillary_ratios, contact_angle, extrema)
    if block.a is None:
        return np.empty(block.shape + (0,))
    roots = _roots(block, contact_angle)
    n_cells = math.prod(block.shape)
    if block.live.size < n_cells:
        out = np.full((n_cells, roots.shape[1]), np.nan)
        out[block.live] = roots
        roots = out
    return roots.reshape(block.shape + roots.shape[1:])


@dataclass
class _Block:
    """solve's cells up to the bisections (see ``_bracket``)."""

    shape: tuple
    live: np.ndarray
    a: np.ndarray | None = None
    c: np.ndarray | None = None
    col: np.ndarray | None = None
    rows: np.ndarray | None = None
    nodes: np.ndarray | None = None
    found: np.ndarray | None = None
    bracket: np.ndarray | None = None


def _bracket(mass_ratios, capillary_ratios, g, extrema=None) -> _Block:
    """solve's bracket stage: cells, rows, ``_rootless``, nodes, brackets.

    ``live`` indexes the cells left in the flattened broadcast of
    ``shape``; the other arrays hold one row per live cell (``rows`` one
    per column), or are None when none is left.  ``extrema`` is a
    (minimum, maximum) pair of floats, or of arrays with one entry per
    capillary ratio; None finds them.  ``found`` holds each cell's node
    roots, NaN elsewhere, then one slot per segment for its bisection;
    ``bracket`` marks the segments whose ends change sign.  The rows, the
    nodes and all of the node forces but the -A C^2 term are per column
    (``_node_forces``); only that term and the sum run per cell.
    """
    cap = np.asarray(capillary_ratios, dtype=float)
    caps = cap.ravel()
    # each cell's column: its capillary ratio, its row, its nodes.
    # Broadcast by arithmetic: x * 1.0 and j + 0 are exact.
    a = np.asarray(mass_ratios, dtype=float)
    ones = np.ones(np.broadcast(a, cap).shape)
    col = (np.arange(cap.size).reshape(cap.shape) + ones.astype(np.int64) - 1
           ).ravel()
    a = (a * ones).ravel()
    rows = _scan_rows(caps, g)
    live = np.flatnonzero(~_rootless(rows, a, caps, col))
    if not live.size:
        return _Block(ones.shape, live)
    a, col = a[live], col[live]
    c = caps[col]

    if extrema is None:
        # a lone column finds its extrema on floats
        extrema = force_extrema(cap.item() if cap.size == 1 else caps, g)
    minimum, maximum = extrema
    zero = np.zeros(cap.size)
    pi = zero + PI
    col_nodes = np.column_stack([zero,
                                 np.where(minimum == minimum, minimum, zero),
                                 np.where(maximum == maximum, maximum, pi),
                                 pi])
    nodes = col_nodes[col]
    if cap.size == 1:
        # one capillary ratio runs on floats: faster, and the same bits
        f_nodes = _force(nodes, a[:, None], cap.item(), g)
    else:
        f_nodes = _node_forces(a, c, col, col_nodes, caps, g)
    on_node = np.abs(f_nodes) <= ROOT_VALUE_TOL
    bracket = ((f_nodes[:, :-1] * f_nodes[:, 1:] < 0.0)
               & ~on_node[:, :-1] & ~on_node[:, 1:])
    n_nodes = nodes.shape[1]
    found = np.full((a.size, 2 * n_nodes - 1), np.nan)
    found[:, :n_nodes] = np.where(on_node, nodes, np.nan)
    return _Block(ones.shape, live, a, c, col, rows, nodes, found, bracket)


def _node_forces(a, c, col, col_nodes, caps, g):
    """``_force(col_nodes[col], a[:, None], c[:, None], g)``, c = caps[col], bit
    for bit, with the trig run once per column.

    _force sums -A C^2 - t1 - t2 - t3 + t4 left to right, and t1 to t4
    depend on the node and C alone, so each is evaluated on the columns'
    nodes with _force's own operations, and only the sum runs per cell.
    """
    x, cc = col_nodes, caps[:, None]
    f = (-a * c * c)[:, None] - (2.0 * np.sin(x + g)).take(col, axis=0)
    f -= (4.0 * cc * np.cos((x + g) / 2.0) * np.sin(x)).take(col, axis=0)
    f -= (0.5 * cc * cc * np.sin(2.0 * x)).take(col, axis=0)
    f += (cc * cc * x).take(col, axis=0)
    return f


def _roots(block, g):
    """solve's stages after ``_bracket``: each live cell's roots.

    Every segment that brackets a root is bisected, the dense-scan guard
    (``_scan_guard``) checks the roots' windows, and ``_pack`` dedups and
    adds what ``_rescan`` finds.  Up to _FLOAT_LANES segments bisect one
    by one on Python floats, as a lone cell's do; more share one array
    bisection.  Both give bisect's bits.
    """
    a, c, nodes, found = block.a, block.c, block.nodes, block.found
    n_nodes = nodes.shape[1]
    lane, k = np.nonzero(block.bracket)
    if lane.size > _FLOAT_LANES:
        sa, sc = a[lane], c[lane]
        found[lane, n_nodes + k] = bisect(lambda x: _force(x, sa, sc, g),
                                          nodes[lane, k], nodes[lane, k + 1])
    else:
        for i, j in zip(lane.tolist(), k.tolist()):
            a_i, c_i = float(a[i]), float(c[i])
            found[i, n_nodes + j] = bisect(
                lambda x: _force(x, a_i, c_i, g),
                float(nodes[i, j]), float(nodes[i, j + 1]))
    # Sorts are stable here and in the guard: nearly sorted input, and a
    # smaller code footprint than the default sort.
    roots = np.sort(found, axis=1, kind="stable")
    if a.size == 1:
        windows = [(bisect_left(_SCAN_TO_FLOATS, r),
                    bisect_right(_SCAN_FROM_FLOATS, r) - 1)
                   for r in roots[0].tolist() if r == r]
    else:
        cell, slot = np.nonzero(roots == roots)
        windows = (cell, *_window(roots[cell, slot]))
    return _pack(found, roots,
                 _scan_guard(windows, a, c, block.col, block.rows), a, c, g)


def _pack(found, roots, rescan, a, c, g):
    """Each cell's distinct roots, ascending, padded with NaN to the most
    roots a cell has.

    ``roots`` is ``found`` sorted along each row.  The cells listed in
    ``rescan`` (by ``_scan_guard``) add the roots ``_rescan`` finds.  Of
    roots closer than _DEDUP_TOL the first in node, segment, guard order
    counts.
    """
    guard = {}
    for i in rescan:
        added = _rescan([x for x in roots[i].tolist() if x == x],
                        float(a[i]), float(c[i]), g)
        if added:
            guard[i] = added
    close = (roots[:, 1:] - roots[:, :-1] <= _DEDUP_TOL).any(axis=1)
    # one first-wins pass over the rows holding a close pair or a guard root
    count = (roots == roots).sum(axis=1)
    kept = {}
    for i in guard.keys() | np.flatnonzero(close).tolist():
        row = kept[i] = []
        for x in found[i].tolist() + guard.get(i, []):
            if x == x and all(abs(r - x) > _DEDUP_TOL for r in row):
                row.append(x)
        count[i] = len(row)
    width = max(count.tolist(), default=0)
    out = roots[:, :width]
    if kept:
        out = np.full((roots.shape[0], width), np.nan)
        out[:, :roots.shape[1]] = roots[:, :width]
        for i, row in kept.items():
            out[i] = sorted(row) + [np.nan] * (width - len(row))
    return out


def _rootless(rows, a, caps, col):
    """The cells whose F keeps one sign on [0, pi], with |F| > ROOT_VALUE_TOL.

    ``rows`` holds each column's ``_scan_rows``, and ``col`` each cell's
    column.  A cell is rootless when its level A C^2 lies above its row's
    maximum, or below its minimum, by more than the margin
    2 _SCAN_SLACK (1+C)^2 + K _SCAN_SAG + ROOT_VALUE_TOL, K = 2 + 9C + 2C^2.
    A lone cell, as in each find_equilibria call, runs the same operations
    in the same order on Python floats, so it decides as the arrays do.
    Proof, for the level above (below is its mirror image):

    * The rows lie within one slack of _force on the grid
      (``test_scan_slack_bounds_the_expansion``), and _force, on the grid
      or at a node, within one slack of the exact F: its terms add to a few
      (1+C)^2 and each rounds by an ulp or two.  A level far past the rows
      adds rounding of a few ulps of itself, far below |F|, which grows
      with it.  The test's own rounding is far below the K term (> 2e-6).
    * ``force_curvature``'s four terms bound |F''| by K.  The largest
      F(x; A=0) on [0, pi] lies at a grid end, or at an interior x* with
      F'(x*) = 0 and some grid point within h/2 of it, where F is within
      K h^2 / 8 = K _SCAN_SAG of F(x*).

    So F < -ROOT_VALUE_TOL on all of [0, pi]: every node value has one sign
    with |F| > ROOT_VALUE_TOL, no segment brackets, and ``_scan_guard``,
    widened by one slack, counts no crossing.  ``solve`` without the test
    finds no root for these cells either.  The proof does not rest on the
    monotone-segment structure, so it needs no guard behind it.  The margin
    follows ROOT_VALUE_TOL: should that become force-scaled, so must the
    margin's last term.
    """
    m0, m1, m2 = _MARGIN
    if a.size == 1:  # so one column too
        c = caps.item()
        margin = m0 + c * (m1 + c * m2)
        level = a.item() * c * c
        row, = rows
        return np.array([level > row.max() + margin
                         or level < row.min() - margin])
    margin = m0 + caps * (m1 + caps * m2)
    c = caps[col]
    level = a * c * c
    return ((level > (rows.max(axis=1) + margin)[col])
            | (level < (rows.min(axis=1) - margin)[col]))


def _scan_rows(caps, g):
    """F(_SCAN_GRID; A=0) for each capillary ratio, one row each, no trig.

    One matrix product of each row's five coefficients with _SCAN_BASIS,
    written straight into the result.
    """
    coef = np.empty((caps.size, len(_SCAN_BASIS)))
    coef[:, 0] = math.cos(g)
    coef[:, 1] = math.sin(g)
    coef[:, 2] = caps * math.cos(g / 2.0)
    coef[:, 3] = caps * math.sin(g / 2.0)
    coef[:, 4] = caps * caps
    return coef @ _SCAN_BASIS


def _window(x):
    """(first, last): the grid intervals within _SCAN_PAD of each x."""
    return (np.searchsorted(_SCAN_TO, x, "left"),
            np.searchsorted(_SCAN_FROM, x, "right") - 1)


def _scan_guard(windows, a, c, col, rows):
    """The cells with a dense-scan crossing that no root window covers.

    Each grid interval where F(.; A=0) strictly crosses the level A C^2
    needs a root within _SCAN_PAD.  The count runs on ``rows``, each
    column's ``_scan_rows``, widened by the slack so that it never falls
    below _force's crossings, and leaves out the intervals in a root's
    window [first, last] (``_window``).  ``windows`` lists them in
    ascending root order: for a block, as arrays (cell, first, last); for
    a lone cell, as find_equilibria makes, as (first, last) pairs of ints.
    In a block, ``_crossings`` counts the intervals reaching within the
    slack of every cell's level, column by column, and the windows'
    crossings are subtracted for all cells at once.  A lone cell lists
    its crossing intervals and drops those inside a window: the same
    count, since the block's windows differ only by the overlap it trims.
    A cell returned here rescans its grid with _force (``_rescan``).
    """
    if a.size == 1:
        a_i, c_i = a.item(), c.item()
        level = a_i * c_i * c_i
        slack = _SCAN_SLACK * ((1.0 + c_i) * (1.0 + c_i))
        f0 = rows[col[0]]
        crossing = np.flatnonzero(
            (np.minimum(f0[:-1], f0[1:]) < level + slack)
            & (level - slack < np.maximum(f0[:-1], f0[1:]))).tolist()
        if all(any(first <= j <= last for first, last in windows)
               for j in crossing):
            return []
        return [0]

    level = a * c * c
    slack = _SCAN_SLACK * (1.0 + c) ** 2
    # An interval counts when lo < above and below < hi.  |F| <= pi (1+C)^2
    # on the grid, so the slack is over 20 ulps of any level a bound can
    # reach: hi <= below implies lo < above, and _crossings' sorted bounds
    # need no rule for flat intervals.
    below, above = level - slack, level + slack
    changes = _crossings(rows, col, below, above)
    if changes.any():
        # a cell's ascending roots have ascending windows: each starts
        # past its predecessor's
        cell, first, last = windows
        first = np.concatenate([
            first[:1], np.where(cell[1:] == cell[:-1],
                                np.maximum(first[1:], last[:-1] + 1),
                                first[1:])])
        window = first[:, None] + _WINDOW
        at = (np.minimum(window, len(_SCAN_GRID) - 2)
              + (col[cell] * len(_SCAN_GRID))[:, None])
        f_at, f_next = rows.take(at), rows.take(at + 1)
        crossed = ((window <= last[:, None])
                   & (np.minimum(f_at, f_next) < above[cell, None])
                   & (below[cell, None] < np.maximum(f_at, f_next)))
        changes -= np.bincount(cell, crossed.sum(axis=1),
                               a.size).astype(np.int64)
    return np.flatnonzero(changes > 0).tolist()


def _crossings(rows, col, below, above):
    """Each cell's count of grid intervals of its column's row reaching
    into (below, above): min(ends) < above and below < max(ends).

    The cells are grouped by column with one stable sort of ``col``.  A
    column holding more than one cell sorts its interval bounds once and
    counts every cell's with two searches; a lone cell in its column
    counts its intervals directly, as ``_scan_guard``'s one-cell branch
    does, since min(x, y) < above is x < above or y < above, and
    below < max(x, y) is below < x or below < y.  The lone cells go 128 kB
    of rows at a time, which keeps the temporaries small beside ``rows``;
    when every column is a lone cell's, as in ``region_map``'s fallback,
    the rows are not copied.
    """
    lo = np.empty(len(_SCAN_GRID) - 1)
    hi = np.empty_like(lo)
    changes = np.empty(below.size, dtype=np.int64)
    order = np.argsort(col, kind="stable")
    bounds = np.searchsorted(col[order], np.arange(len(rows) + 1))
    size = np.diff(bounds)
    lone = np.flatnonzero(size == 1)
    step = 2 ** 17 // _SCAN_GRID.nbytes
    for k in range(0, lone.size, step):
        part = lone[k:k + step]
        cells = order[bounds[part]]
        f0 = rows[k:k + step] if lone.size == len(rows) else rows[part]
        low = f0 < above[cells, None]
        high = f0 > below[cells, None]
        changes[cells] = ((low[:, :-1] | low[:, 1:])
                          & (high[:, :-1] | high[:, 1:])).sum(axis=1)
    bounds = bounds.tolist()
    for j in np.flatnonzero(size > 1).tolist():
        f0, cells = rows[j], order[bounds[j]:bounds[j + 1]]
        np.minimum(f0[:-1], f0[1:], out=lo)
        np.maximum(f0[:-1], f0[1:], out=hi)
        under, over = below[cells], above[cells]
        changes[cells] = (
            np.searchsorted(np.sort(lo, kind="stable"), over, "left")
            - np.searchsorted(np.sort(hi, kind="stable"), under, "right"))
    return changes


def _rescan(kept, a, c, g):
    """One cell's roots that the guard's count says ``kept`` misses.

    Each grid interval where _force changes sign with no root of ``kept``
    within _SCAN_PAD is bisected; each root found comes with a
    ModelInconsistencyWarning and joins ``kept``.
    """
    added = []
    shifted = _force(_SCAN_GRID, 0.0, c, g) - a * c * c
    for j in np.flatnonzero(shifted[:-1] * shifted[1:] < 0.0).tolist():
        lo, hi = float(_SCAN_GRID[j]), float(_SCAN_GRID[j + 1])
        if any(lo - _SCAN_PAD <= x <= hi + _SCAN_PAD for x in kept):
            continue
        x = bisect(lambda x: _force(x, a, c, g), lo, hi)
        warnings.warn(
            f"dense scan found a root at phi0={x:.12g} outside the "
            f"monotone-segment structure (A={a!r}, C={c!r}, "
            f"gamma={g!r}); the force curve shape assumption is violated "
            "here", ModelInconsistencyWarning)
        kept.append(x)
        added.append(x)
    return added


def find_equilibria(params: DimensionlessParams,
                    critical: list[CriticalPoint] | None = None
                    ) -> list[Equilibrium]:
    """All zeros of the force curve on [0, pi], ascending, with stability.

    The one-cell call of ``solve``.  The fields are Python floats whatever
    number type the params hold.
    """
    a = params.mass_ratio
    c, g = float(params.capillary_ratio), float(params.contact_angle)
    out = []
    for r in solve(a, c, g, critical).tolist():
        if r != r:  # NaN pads the roots
            break
        slope = _slope(r, c, g)
        out.append(Equilibrium(r, _classify(slope), slope, _height(r, c, g)))
    return out


def critical_mass_ratio(capillary_ratio: float, contact_angle: float
                        ) -> tuple[float, float]:
    """Mass ratio at which the force curve is tangent to zero at its maximum.

    Returns (A_star, phi0_star).  phi0_star > pi/2 is the interior maximum
    of F; the mass ratio enters F only through the constant -A C^2, so the
    tangency value is exactly F(phi0_star; A=0) / C^2.  Above A_star the
    equilibrium pair is gone; below it (but past the endpoint-zero line)
    there are two equilibria.

    Raises NoSecondCriticalPointError when the regime has no interior
    maximum (contact angle < pi/2 with capillary ratio at or below the
    second-extremum threshold, or so little above it that the slope at pi
    rounds to zero or above: a few ulps at gamma = 0.5, a relative 3e-5 at
    gamma = 1e-6, where the slope's C^2 terms cancel and their rounding
    swamps the rest), and ValueError when C is so small that A* is not
    finite, so large that the force scale pi C^2 cannot be squared,
    or so large that the slope's O(C) terms at pi, 4 C sin(gamma/2) in
    size, round away against its C^2 terms and leave the maximum with no
    bracket (from C between about 2e16 and 5e16 at gamma >= 1).
    """
    # the A = 0 scale test of DimensionlessParams, named for C alone
    scale = PI * capillary_ratio * capillary_ratio
    if 0.0 < capillary_ratio < math.inf and not math.isfinite(scale * scale):
        raise ValueError(f"capillary_ratio={capillary_ratio!r} gives a force "
                         f"scale pi C^2 = {scale:.3g} too large to square")
    DimensionlessParams(mass_ratio=0.0, capillary_ratio=capillary_ratio,
                        contact_angle=contact_angle, exploratory=True)
    phi0_star = _force_maximum(capillary_ratio, contact_angle)
    if not phi0_star > PI / 2.0:
        threshold = second_extremum_threshold(contact_angle)
        above = capillary_ratio > threshold
        if above and 4.0 * math.sin(contact_angle / 2.0) <= (
                capillary_ratio * 2.0 ** -52):
            raise ValueError(
                f"capillary_ratio={capillary_ratio!r} is too large: the "
                f"force slope near pi rounds to zero against C^2")
        why = f" (threshold C = {threshold!r})"
        if above and contact_angle < PI / 2.0:
            why = (f": C is within rounding of the threshold C = "
                   f"{threshold!r}; the force slope at pi, "
                   f"2 cos(gamma) - 4 C sin(gamma/2), is below the rounding "
                   f"of its terms and comes out zero or above")
        raise NoSecondCriticalPointError(
            f"no interior force maximum past pi/2 for contact_angle="
            f"{contact_angle!r}, capillary_ratio={capillary_ratio!r}{why}")
    f_star = _force(phi0_star, 0.0, capillary_ratio, contact_angle)
    return _finite_mass(f_star, capillary_ratio ** 2, capillary_ratio), phi0_star


def _finite_mass(numerator, denominator, capillary_ratio) -> float:
    """numerator / (a power of C), a mass ratio: ValueError unless finite."""
    a = numerator / denominator if denominator else math.inf
    if not math.isfinite(a):
        raise ValueError(f"capillary_ratio={capillary_ratio!r} is too small: "
                         "the critical mass ratio is not finite")
    return a


def asymptotic_critical_mass(capillary_ratio: float, contact_angle: float,
                             regime: str) -> tuple[float, float]:
    """Series approximations of (A_star, phi0_star) for contact angle pi/2.

    regime="small":  A* = 2/C^2 + 2 + pi - 2 sqrt(2) C          (error O(C^2))
                     phi0* = pi - sqrt(2) C + 2 C^2 - (7/12) sqrt(2) C^3
                                                                 (error O(C^4))
    regime="large":  A* = pi + (1/3) 2^(11/4) / C^(3/2)
                     phi0* = pi - 2^(1/4)/sqrt(C) + 1/(sqrt(2) C)
                             + (7/3) 2^(-13/4) / C^(3/2)

    The series exist only for contact angle pi/2; anything else raises
    UnsupportedRegimeError, and a C too small for a finite A* ValueError.
    """
    if contact_angle != PI / 2.0:
        raise UnsupportedRegimeError(
            f"asymptotic series are derived for contact_angle = pi/2 only, "
            f"got {contact_angle!r}")
    if not capillary_ratio > 0.0:
        raise ValueError(f"capillary_ratio must be positive, got {capillary_ratio!r}")
    c = capillary_ratio
    if regime == "small":
        a_star = _finite_mass(2.0, c ** 2, c) + 2.0 + PI - 2.0 * math.sqrt(2.0) * c
        phi0_star = (PI - math.sqrt(2.0) * c + 2.0 * c ** 2
                     - (7.0 / 12.0) * math.sqrt(2.0) * c ** 3)
    elif regime == "large":
        a_star = PI + _finite_mass((1.0 / 3.0) * 2.0 ** (11.0 / 4.0),
                                   c ** 1.5, c)
        phi0_star = (PI - 2.0 ** 0.25 / math.sqrt(c) + 2.0 ** -0.5 / c
                     + (7.0 / 3.0) * 2.0 ** (-13.0 / 4.0) / c ** 1.5)
    else:
        raise ValueError(f'regime must be "small" or "large", got {regime!r}')
    return a_star, phi0_star
