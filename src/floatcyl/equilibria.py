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

import functools
import math
import sys
import warnings
from bisect import bisect_left, bisect_right
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum

from .model import (DimensionlessParams, _check_contact_angle, _force,
                    _height, _numpy, _slope)

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
# Points of the fallback dense-scan grid guarding the monotone-segment
# brackets, _SCAN_GRID; ``_scan`` builds it on first use.
_SCAN_SIZE = 1000
# How near a root must lie to a grid interval to account for it (_scan).
_SCAN_PAD = PI / _SCAN_SIZE
# The expansion rounds apart from _force by at most _SCAN_SLACK (1+C)^2
# (test_scan_slack_bounds_the_expansion); a count widened by that never
# falls below _force's.
_SCAN_SLACK = 64.0 * sys.float_info.epsilon
# An interior extremum of F lies within half a grid step h of a grid point,
# where F' = 0, so F there is within |F''| h^2 / 8 of that point's value.
_SCAN_SAG = (PI / (_SCAN_SIZE - 1)) ** 2 / 8.0
# Bracketed segments up to which solve bisects each on floats: an array
# bisection's halving costs about as much in NumPy calls as one halving
# of 20 float lanes.  A lone cell brackets at most three; region_map's
# fallback over a zoomed window brackets thousands.
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


class NoSecondCriticalPointError(ValueError):
    """The force curve has no interior maximum past pi/2 in this regime."""


class UnsupportedRegimeError(ValueError):
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


_Scan = namedtuple("_Scan", "grid lo hi lo_floats hi_floats basis")


@functools.cache
def _scan():
    """The dense scan's arrays, loading NumPy on the first call."""
    np = _numpy()
    grid = np.linspace(0.0, PI, _SCAN_SIZE)
    # a root within _SCAN_PAD of grid interval j, i.e. in [lo[j], hi[j]],
    # accounts for a sign change there; as floats for a lone cell's windows
    lo, hi = grid[:-1] - _SCAN_PAD, grid[1:] + _SCAN_PAD
    # The guard's basis: sin(phi+gamma) and cos((phi+gamma)/2) expanded
    # give F(grid; A=0) = cos(gamma) b0 + sin(gamma) b1 + C cos(gamma/2) b2
    # + C sin(gamma/2) b3 + C^2 b4 (see _scan_rows).
    return _Scan(grid, lo, hi, lo.tolist(), hi.tolist(), np.stack([
        -2.0 * np.sin(grid), -2.0 * np.cos(grid),
        -4.0 * np.cos(grid / 2.0) * np.sin(grid),
        4.0 * np.sin(grid / 2.0) * np.sin(grid),
        grid - 0.5 * np.sin(2.0 * grid)]))


def __getattr__(name):
    """``from .equilibria import _SCAN_GRID`` (PEP 562), as regions and the
    tests import it: the grid of ``_scan``."""
    if name == "_SCAN_GRID":
        return _scan().grid
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _classify(slope: float) -> Stability:
    if slope > TANGENCY_TOL:
        return Stability.STABLE
    if slope < -TANGENCY_TOL:
        return Stability.UNSTABLE
    return Stability.MARGINAL_UNSTABLE


def bisect(f, lo, hi, f_hi=None):
    """SciPy's ``bisect(f, lo, hi, xtol=PHI0_TOL)``, bit for bit, elementwise.

    Halve dm, probe xm = xa + dm, keep xm as the new xa when
    f(xm) f(xa) >= 0, and return xm once f(xm) == 0 or
    |dm| < PHI0_TOL + 4 eps |xm|.  f(lo) and f(hi) must not share a sign.
    f(hi) is read only to test it against zero, so ``f_hi``, when given,
    stands in for it: any value with its sign.  Floats run SciPy's loop as
    written, so a lone lane, as in each find_equilibria call, skips the
    masks' arithmetic in every halving; no array can exist unless NumPy is
    loaded, so a float call never loads it.  Array elements run side by
    side, each selected by ``np.where``, so each equals its scalar run.
    Each lane's dm halves exactly, and so does the least |dm| of all
    lanes; each xm lies within its lane's bracket widened by half an ulp
    per halving, so within twice the largest end of any bracket.  So
    while the least |dm| is at least twice PHI0_TOL + 4 eps max(|lo|, |hi|)
    over all lanes, no lane's tolerance test can pass, and only
    f(xm) == 0 can stop a lane.
    """
    fa, fb = f(lo), f(hi) if f_hi is None else f_hi
    np = sys.modules.get("numpy")
    if np is None or not any(isinstance(v, np.ndarray)
                             for v in (fa, fb, lo, hi)):
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
    # the least |dm| of any lane, and the |dm| from which no lane's
    # tolerance test can pass; with no lane, no shortcut
    least, wide = 0.0, 1.0
    if np.size(dm):
        least = float(np.abs(dm).min())
        wide = 2.0 * (PHI0_TOL + _RTOL * float(
            np.maximum(np.abs(lo), np.abs(hi)).max()))
    for _ in range(_MAX_HALVINGS):
        dm = dm * 0.5
        least *= 0.5
        xm = xa + dm
        fm = f(xm)
        xa = np.where(fm * fa >= 0.0, xm, xa)
        if least >= wide:
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
    where sin(gamma/2) underflows to zero (gamma = 5e-324).  ``math.pi / 2``
    stands for pi/2 exactly, here and in ``critical_mass_ratio``: zero,
    though that float lies 6.1e-17 below pi/2, where the threshold is
    4.3e-17.  The slope at pi, F'(pi) = 2 cos(gamma) - 4 C sin(gamma/2),
    has the sign of threshold - C, and ``force_extrema`` reads its sign
    from that difference: for gamma < pi/2 it is 4 sin(gamma/2)
    (threshold - C); for gamma >= pi/2 both are negative when C > 0.
    """
    _check_contact_angle(contact_angle)
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

    A bracket whose endpoint slopes do not change sign is dropped, and so is
    the maximum's where 4 C sin(gamma/2), the size of the slope's O(C)
    terms at pi, rounds away against its C^2 terms: F' near pi is then
    rounding (``_bracketed``).  A scalar runs on floats throughout.  An
    array bisects the lanes of both brackets in one call (``_extrema``),
    each lane with its own bracket.  ``_force_maximum`` bisects the
    maximum's bracket alone, for ``critical_mass_ratio`` and
    ``regions.trace_tangency_curve``; ``regions.region_map`` sends its
    columns' extrema and its tangency samples' maxima through one
    ``_extrema`` call.
    """
    c = _capillary_ratios(capillary_ratios)
    brackets = _extremum_brackets(contact_angle)
    if isinstance(c, float):
        return tuple(_extremum(c, contact_angle, b) for b in brackets)
    return tuple(_extrema(contact_angle, [(c, b) for b in brackets]))


def _force_maximum(capillary_ratios, contact_angle: float):
    """``force_extrema(capillary_ratios, contact_angle)[1]``, the same bits,
    without bisecting the minimum."""
    c = _capillary_ratios(capillary_ratios)
    maximum = _extremum_brackets(contact_angle)[1]
    if isinstance(c, float):
        return _extremum(c, contact_angle, maximum)
    return _extrema(contact_angle, [(c, maximum)])[0]


def _capillary_ratios(capillary_ratios):
    """A float for a scalar, else a float array."""
    if isinstance(capillary_ratios, (int, float)):
        return float(capillary_ratios)
    c = _numpy().asarray(capillary_ratios, dtype=float)
    return c.item() if c.ndim == 0 else c


def _extremum_brackets(g):
    """The minimum's and the maximum's (lo, hi, the bracket needs
    slope(lo) < 0, ... needs slope(hi) < 0)."""
    if g == PI / 2.0:
        return (0.0, PI / 2.0, False, False), (PI / 2.0, PI, False, False)
    if g > PI / 2.0:
        return (0.0, PI / 4.0, True, False), (PI / 2.0, PI, False, False)
    return (0.0, PI / 2.0, False, False), (3.0 * PI / 4.0, PI, False, True)


def _bracketed(c, g, lo, hi, lo_negative, hi_negative):
    """(ok, s_hi) of a bracket of ``_extremum_brackets`` at a float or an
    array ``c``: whether it holds an extremum, and the slope at hi, or a
    value with its sign.

    At hi = pi, _slope's C^2 terms cancel, and their rounding can swamp
    the rest just above the threshold t; the slope there has the sign of
    t - C (``second_extremum_threshold``), which stands in for it.  The
    bracket is dropped where 4 C sin(g/2) <= C^2 eps: the slope near pi is
    then rounding, and no bisection on it places the maximum to PHI0_TOL.
    """
    s_lo = _slope(lo, c, g)
    if hi == PI:
        s_hi = second_extremum_threshold(g) - c
        ok = (s_lo * s_hi < 0.0) & (4.0 * math.sin(g / 2.0) > c * 2.0 ** -52)
    else:
        s_hi = _slope(hi, c, g)
        ok = s_lo * s_hi < 0.0
    if lo_negative:
        ok = ok & (s_lo < 0.0)
    if hi_negative:
        ok = ok & (s_hi < 0.0)
    return ok, s_hi


def _extremum(c, g, bracket):
    """The extremum a bracket of ``_extremum_brackets`` holds at a float
    ``c``, NaN where it is dropped, on floats."""
    ok, s_hi = _bracketed(c, g, *bracket)
    return (bisect(lambda x: _slope(x, c, g), *bracket[:2], s_hi) if ok
            else math.nan)


def _extrema(g, lanes):
    """``_extremum`` at every entry of each pair (c, bracket) of ``lanes``,
    c a float array: one float array shaped like c per pair.

    Every entry whose bracket holds an extremum (``_bracketed``), of every
    pair, is one lane of a single ``bisect`` call with its own lo, hi and
    f_hi, which gives each lane its float run's bits.  One call halves
    every bracket at once: each halving's NumPy calls cost about as much
    as 400 more lanes do.
    """
    np = _numpy()
    out, parts = [], []
    for c, bracket in lanes:
        ok, s_hi = _bracketed(c, g, *bracket)
        idx = np.flatnonzero(ok)
        out.append((np.full(c.shape, np.nan), idx))
        parts.append((c.ravel()[idx], np.full(idx.size, bracket[0]),
                      np.full(idx.size, bracket[1]), s_hi.ravel()[idx]))
    c, lo, hi, s_hi = map(np.concatenate, zip(*parts))
    if c.size:
        root = bisect(lambda x: _slope(x, c, g), lo, hi, s_hi)
        start = 0
        for phi, idx in out:
            phi.flat[idx] = root[start:start + idx.size]
            start += idx.size
    return [phi for phi, _ in out]


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


def _bounds(c):
    """(s, S, K) for a float or array C, which the solver's proofs rest on:
    _force and the guard's rows round within s = _SCAN_SLACK (1+C)^2 of the
    exact F, and the sizes of the terms of F' and F'' add to
    S = 2 + 6C + 2C^2 and K = 2 + 9C + 2C^2 (``test_curvature_bound``)."""
    u = 1.0 + c
    return (_SCAN_SLACK * (u * u), 2.0 + c * (6.0 + 2.0 * c),
            2.0 + c * (9.0 + 2.0 * c))


def _margin(c):
    """(s, M) for a float or array C: the slack s of ``_bounds`` and
    ``_rootless``'s margin M = 2s + K _SCAN_SAG + ROOT_VALUE_TOL."""
    s, _, K = _bounds(c)
    return s, 2.0 * s + K * _SCAN_SAG + ROOT_VALUE_TOL


def _nodes(minimum, maximum, size):
    """The (4, size) segment nodes [0, minimum or 0, maximum or pi, pi]."""
    np = _numpy()
    zero = np.zeros(size)
    pi = zero + PI
    return np.stack([zero, np.where(minimum == minimum, minimum, zero),
                     np.where(maximum == maximum, maximum, pi), pi])


def solve(mass_ratios, capillary_ratios, contact_angle: float,
          extrema=None) -> np.ndarray:
    """Ascending zeros of F on [0, pi] for every cell, padded with NaN.

    The cells are the broadcast of ``mass_ratios`` against
    ``capillary_ratios``; the result has the broadcast shape plus one
    trailing axis, as wide as the most roots a cell has.  Each capillary
    ratio is a column with the guard's row F(_SCAN_GRID; A=0) and the nodes
    0, minimum, maximum and pi (``_nodes``, which ``regions._count_block``
    reads its labels from too), a missing extremum at 0 or pi.  ``extrema``
    is the (minimum, maximum) pair of ``force_extrema``, as floats or as
    arrays with one entry per capillary ratio; None finds them.  A cell
    whose level A C^2 lies so far outside its row's range that F provably
    keeps one sign (``_rootless``) has no root and goes no further; when no
    cell is left, the extrema are never found.  Otherwise a node with
    |F| <= ROOT_VALUE_TOL is a root (the endpoint root at pi, the tangency
    at A*); every segment whose ends change sign is bisected, and
    ``_scan_guard`` backstops the segments.  Up to _FLOAT_LANES segments
    bisect one by one on Python floats, as a lone cell's do; more share one
    array bisection.  Both give bisect's bits.  Of roots closer than
    _DEDUP_TOL the first in node, segment, guard order counts (``_pack``).
    """
    np = _numpy()
    g = contact_angle
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
        return np.empty(ones.shape + (0,))
    a, col = a[live], col[live]
    c = caps[col]

    if extrema is None:
        # a lone column finds its extrema on floats
        extrema = force_extrema(cap.item() if cap.size == 1 else caps, g)
    nodes = _nodes(*extrema, cap.size).T[col]
    # one capillary ratio runs on floats: faster, and the same bits
    f_nodes = _force(nodes, a[:, None],
                     cap.item() if cap.size == 1 else c[:, None], g)
    on_node = np.abs(f_nodes) <= ROOT_VALUE_TOL
    lane, k = np.nonzero((f_nodes[:, :-1] * f_nodes[:, 1:] < 0.0)
                         & ~on_node[:, :-1] & ~on_node[:, 1:])
    # each cell's node roots, NaN elsewhere, then one slot per segment
    n_nodes = nodes.shape[1]
    found = np.full((a.size, 2 * n_nodes - 1), np.nan)
    found[:, :n_nodes] = np.where(on_node, nodes, np.nan)
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
    # A stable sort: nearly sorted input, and a smaller code footprint than
    # the default sort.
    roots = np.sort(found, axis=1, kind="stable")
    if a.size == 1:
        scan = _scan()
        windows = [(bisect_left(scan.hi_floats, r),
                    bisect_right(scan.lo_floats, r) - 1)
                   for r in roots[0].tolist() if r == r]
    else:
        cell, slot = np.nonzero(roots == roots)
        windows = (cell, *_window(roots[cell, slot]))
    roots = _pack(found, roots, _scan_guard(windows, a, c, col, rows), a, c, g)
    if live.size < ones.size:
        out = np.full((ones.size, roots.shape[1]), np.nan)
        out[live] = roots
        roots = out
    return roots.reshape(ones.shape + roots.shape[1:])


def _pack(found, roots, rescan, a, c, g):
    """Each cell's distinct roots, ascending, padded with NaN to the most
    roots a cell has.

    ``roots`` is ``found`` sorted along each row.  The cells listed in
    ``rescan`` (by ``_scan_guard``) add the roots ``_rescan`` finds.  Of
    roots closer than _DEDUP_TOL the first in node, segment, guard order
    counts.
    """
    np = _numpy()
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
    M = 2s + K _SCAN_SAG + ROOT_VALUE_TOL, with the slack s and the bound
    K on |F''| from ``_bounds``.  A lone cell, as in each find_equilibria
    call, runs the same operations in the same order on Python floats, so
    it decides as the arrays do.  Proof, for the level above (below is its
    mirror image):

    * The rows lie within s of _force on the grid
      (``test_scan_slack_bounds_the_expansion``), and _force, on the grid
      or at a node, within s of the exact F: its terms add to a few
      (1+C)^2 and each rounds by an ulp or two.  A level far past the rows
      adds rounding of a few ulps of itself, far below |F|, which grows
      with it.  The test's own rounding is far below the K term (> 2e-6).
    * |F''| <= K (``test_curvature_bound``).  The largest
      F(x; A=0) on [0, pi] lies at a grid end, or at an interior x* with
      F'(x*) = 0 and some grid point within h/2 of it, where F is within
      K h^2 / 8 = K _SCAN_SAG of F(x*).

    So F < -ROOT_VALUE_TOL on all of [0, pi]: every node value has one sign
    with |F| > ROOT_VALUE_TOL, no segment brackets, and ``_scan_guard``,
    widened by s, counts no crossing.  ``solve`` without the test finds no
    root for these cells either.  The proof does not rest on the
    monotone-segment structure, so it needs no guard behind it.  M follows
    ROOT_VALUE_TOL: should that become force-scaled, so must M's last term,
    and with it ``find_equilibria``'s closed-form test, which clears a
    subset of these cells before any row exists.
    """
    lone = a.size == 1  # so one column too
    c = caps.item() if lone else caps
    _, margin = _margin(c)
    if lone:
        level = a.item() * c * c
        row, = rows
        return _numpy().array([level > row.max() + margin
                               or level < row.min() - margin])
    c = caps[col]
    level = a * c * c
    return ((level > (rows.max(axis=1) + margin)[col])
            | (level < (rows.min(axis=1) - margin)[col]))


def _scan_rows(caps, g):
    """F(_SCAN_GRID; A=0) for each capillary ratio, one row each, no trig.

    One matrix product of each row's five coefficients with the basis,
    written straight into the result.
    """
    basis = _scan().basis
    coef = _numpy().empty((caps.size, len(basis)))
    coef[:, 0] = math.cos(g)
    coef[:, 1] = math.sin(g)
    coef[:, 2] = caps * math.cos(g / 2.0)
    coef[:, 3] = caps * math.sin(g / 2.0)
    coef[:, 4] = caps * caps
    return coef @ basis


def _window(x):
    """(first, last): the grid intervals within _SCAN_PAD of each x."""
    np, scan = _numpy(), _scan()
    return (np.searchsorted(scan.hi, x, "left"),
            np.searchsorted(scan.lo, x, "right") - 1)


def _scan_guard(windows, a, c, col, rows):
    """The cells with a dense-scan crossing that no root window covers.

    Each grid interval where F(.; A=0) strictly crosses the level A C^2
    needs a root within _SCAN_PAD.  The count runs on ``rows``, each
    column's ``_scan_rows``, widened by the slack s of ``_bounds`` so that
    it never falls below _force's crossings, and leaves out the intervals
    in a root's window [first, last] (``_window``).  ``windows`` lists them in
    ascending root order: for a block, as arrays (cell, first, last); for
    a lone cell, as find_equilibria makes, as (first, last) pairs of ints.
    In a block, ``_crossings`` counts the intervals reaching within the
    slack of every cell's level, and the windows' crossings are
    subtracted for all cells at once.  A lone cell lists its crossing
    intervals and drops those inside a window: the same count, since the
    block's windows differ only by the overlap it trims.
    A cell returned here rescans its grid with _force (``_rescan``).
    """
    np = _numpy()
    if a.size == 1:
        a_i, c_i = a.item(), c.item()
        level = a_i * c_i * c_i
        slack = _bounds(c_i)[0]
        f0 = rows[col[0]]
        crossing = np.flatnonzero(
            (np.minimum(f0[:-1], f0[1:]) < level + slack)
            & (level - slack < np.maximum(f0[:-1], f0[1:]))).tolist()
        if all(any(first <= j <= last for first, last in windows)
               for j in crossing):
            return []
        return [0]

    level = a * c * c
    slack = _bounds(c)[0]
    # An interval counts when lo < above and below < hi.  |F| <= pi (1+C)^2
    # on the grid, so the slack is over 20 ulps of any level a bound can
    # reach: hi <= below implies lo < above, and a flat interval needs no
    # rule of its own.
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
        # pad < grid step: a root's window spans at most three intervals
        window = first[:, None] + np.arange(3)
        at = (np.minimum(window, _SCAN_SIZE - 2)
              + (col[cell] * _SCAN_SIZE)[:, None])
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

    That is an end below ``above`` and an end above ``below``, since
    min(x, y) < above is x < above or y < above, and below < max(x, y) is
    below < x or below < y.  The cells gather their rows 128 kB at a
    time, which keeps the temporaries small beside ``rows``.
    """
    changes = _numpy().empty(below.size, dtype="int64")
    step = 2 ** 17 // (8 * _SCAN_SIZE)
    for k in range(0, col.size, step):
        cells = slice(k, k + step)
        f0 = rows[col[cells]]
        low = f0 < above[cells, None]
        high = f0 > below[cells, None]
        changes[cells] = ((low[:, :-1] | low[:, 1:])
                          & (high[:, :-1] | high[:, 1:])).sum(axis=1)
    return changes


def _rescan(kept, a, c, g):
    """One cell's roots that the guard's count says ``kept`` misses.

    Each grid interval where _force changes sign with no root of ``kept``
    within _SCAN_PAD is bisected; each root found comes with a
    ModelInconsistencyWarning and joins ``kept``.
    """
    added = []
    grid = _scan().grid
    shifted = _force(grid, 0.0, c, g) - a * c * c
    for j in _numpy().flatnonzero(shifted[:-1] * shifted[1:] < 0.0).tolist():
        lo, hi = float(grid[j]), float(grid[j + 1])
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

    The one-cell call of ``solve``; ``critical``, as ``critical_points``
    gives it, stands in for the extrema.  The fields are Python floats
    whatever number type the params hold.

    A cell whose level A C^2 clears F(.; A=0)'s closed-form range by the
    margin 2s + M of ``_margin`` returns [] on floats, before ``solve``
    builds an array.  On [0, pi], F(.; A=0) = -2 sin(phi+gamma)
    - 4C cos((phi+gamma)/2) sin(phi) + C^2 (phi - sin(phi) cos(phi)) lies in
    [-2 - 4C, 2 + 4C sin(gamma/2) + pi C^2].  The last term rises from 0
    to pi C^2.  The middle one is at most 0 for phi <= pi - gamma, where
    (phi+gamma)/2 <= pi/2 and both factors are >= 0; beyond, the cosine
    lies in [-sin(gamma/2), 0] and sin(phi) in [0, 1], so the term is at
    most 4C sin(gamma/2).  ``_rootless`` marks every such cell: its row
    lies within s of _force, _force within a few ulps of pi (1+C)^2 of the
    exact F, and the bound rounds by as little, sin(gamma/2) by a few ulps
    of 4C; both fall far below the other s.  So a level above the bound
    lies above its row's maximum plus M (below is the mirror image), and
    ``solve`` finds no root either.  The margin follows M, and with it
    ROOT_VALUE_TOL.
    """
    # one float A for the test and solve: a NumPy float32 times a float
    # stays float32, whose rounding would swamp the margin
    a = float(params.mass_ratio)
    c, g = float(params.capillary_ratio), float(params.contact_angle)
    s, margin = _margin(c)
    level = a * c * c
    if (level > (2.0 + 4.0 * c * math.sin(g / 2.0) + PI * c * c + 2.0 * s
                 + margin)
            or level < -2.0 - 4.0 * c - 2.0 * s - margin):
        return []
    extrema = None
    if critical is not None:
        phis = {cp.kind: cp.phi0 for cp in critical}
        extrema = (phis.get(ExtremumKind.MINIMUM, math.nan),
                   phis.get(ExtremumKind.MAXIMUM, math.nan))
    out = []
    for r in solve(a, c, g, extrema).tolist():
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

    Raises NoSecondCriticalPointError exactly when C is at or below
    ``second_extremum_threshold(contact_angle)``, so never for
    gamma = ``math.pi / 2``, which stands for pi/2 as there.  Raises
    ValueError when C is so small that A* is not finite, so large that the
    force scale pi C^2 cannot be squared, or so large that the slope's O(C)
    terms at pi, 4 C sin(gamma/2) in size, round away against its C^2
    terms (4 sin(gamma/2) <= C 2^-52: from C of about 1.3e16 at
    gamma = 1.6, 9e12 at gamma = 1e-3): the slope near pi is then rounding.
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
        # above the threshold, with the slope at the bracket's low end
        # over C^2, only the rounding test of _extremum drops the bracket
        if capillary_ratio > threshold:
            raise ValueError(
                f"capillary_ratio={capillary_ratio!r} is too large: the "
                f"force slope near pi rounds to zero against C^2")
        raise NoSecondCriticalPointError(
            f"no interior force maximum past pi/2 for contact_angle="
            f"{contact_angle!r}, capillary_ratio={capillary_ratio!r} "
            f"(threshold C = {threshold!r})")
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
    UnsupportedRegimeError.  A C that is not positive and finite, too small
    for a finite A*, or so large that a power of it overflows raises
    ValueError.
    """
    if contact_angle != PI / 2.0:
        raise UnsupportedRegimeError(
            f"asymptotic series are derived for contact_angle = pi/2 only, "
            f"got {contact_angle!r}")
    c = capillary_ratio
    if not 0.0 < c < math.inf:
        raise ValueError(
            f"capillary_ratio must be strictly positive and finite, got {c!r}")
    try:
        if regime == "small":
            a_star = (_finite_mass(2.0, c ** 2, c) + 2.0 + PI
                      - 2.0 * math.sqrt(2.0) * c)
            phi0_star = (PI - math.sqrt(2.0) * c + 2.0 * c ** 2
                         - (7.0 / 12.0) * math.sqrt(2.0) * c ** 3)
        elif regime == "large":
            a_star = PI + _finite_mass((1.0 / 3.0) * 2.0 ** (11.0 / 4.0),
                                       c ** 1.5, c)
            phi0_star = (PI - 2.0 ** 0.25 / math.sqrt(c) + 2.0 ** -0.5 / c
                         + (7.0 / 3.0) * 2.0 ** (-13.0 / 4.0) / c ** 1.5)
        else:
            raise ValueError(
                f'regime must be "small" or "large", got {regime!r}')
    except OverflowError:
        raise ValueError(f"capillary_ratio={c!r} is too large for the "
                         f"{regime} series: a power of C overflows") from None
    return a_star, phi0_star
