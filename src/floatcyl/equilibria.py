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
# Points of the grid on which ``_rootless`` bounds F; ``_scan`` builds it
# on first use.
_SCAN_SIZE = 1000
# The expansion rounds apart from _force by at most _SCAN_SLACK (1+C)^2
# (test_scan_slack_bounds_the_expansion).
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
    """A root the monotone-segment structure missed.

    No code path raises it: ``force_extrema``'s proof replaced the dense
    scan that did.  It stays exported while the benchmark counts it; its
    removal goes with the next change to the benchmark.
    """


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


_Scan = namedtuple("_Scan", "grid basis")


@functools.cache
def _scan():
    """The rows' grid and basis, loading NumPy on the first call."""
    np = _numpy()
    grid = np.linspace(0.0, PI, _SCAN_SIZE)
    # sin(phi+gamma) and cos((phi+gamma)/2) expanded give F(grid; A=0) =
    # cos(gamma) b0 + sin(gamma) b1 + C cos(gamma/2) b2 + C sin(gamma/2) b3
    # + C^2 b4 (see _scan_rows).
    return _Scan(grid, np.stack([
        -2.0 * np.sin(grid), -2.0 * np.cos(grid),
        -4.0 * np.cos(grid / 2.0) * np.sin(grid),
        4.0 * np.sin(grid / 2.0) * np.sin(grid),
        grid - 0.5 * np.sin(2.0 * grid)]))


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
    rounding (``_bracketed``).

    The brackets rest on the paper's structural result: F' rises, then
    falls, on (0, pi).  Proof, with s = (phi+gamma)/2:

        F''  = 2 sin(phi+gamma) + 5C cos(s) sin(phi) + 4C sin(s) cos(phi)
               + 2C^2 sin(2 phi)
             = 2 sin(phi+gamma) + (C/2) sin((phi-gamma)/2)
               + (9C/2) sin((3 phi+gamma)/2) + 2C^2 sin(2 phi),
        F''' = 2 cos(phi+gamma) + (C/4) cos((phi-gamma)/2)
               + (27C/4) cos((3 phi+gamma)/2) + 4C^2 cos(2 phi).

    * Symmetry.  F'(pi-phi; pi-gamma) = F'(phi; gamma), and the mirror
      image of a slope that rises, then falls, does too: take gamma in
      [0, pi/2].
    * Claim: F''' < 0 wherever F'' = 0 on (0, pi).  Then F'' crosses zero
      only from + to -, two such zeros would need a crossing from - to +
      between them, so F'' has at most one zero and F' rises, then falls.
    * L1.  On phi in (0, pi/4] every term of the first form of F'' is
      >= 0, and 2 sin(phi+gamma) > 0: F'' > 0.
    * L4.  On phi in [3pi/4, pi) with C >= 2.2, 2 sin(phi+gamma) <= sqrt 2,
      5 cos(s) sin(phi) <= 5 cos(3pi/8) sin(pi/4) < 1.354,
      4 sin(s) cos(phi) <= -2 and sin(2 phi) <= 0: F'' <= sqrt 2 - 0.646 C
      < 0.
    * The rest, by certificate.  With w = 1/(1+C) in [0, 1],
      f = F''/(1+C)^2 and d = F'''/(1+C)^2 are sums of sines and cosines
      of phi and gamma with the weights w^2, w (1-w) and (1-w)^2, so
      |grad f| <= (4, 2, 9) and |grad d| <= (8, 2, 15) in (phi, gamma, w).
      Of the 64^3 boxes of [pi/4, pi] x [0, pi/2] x [0, 1], each outside
      L4's region has |f(centre)| above f's bound over the box, so
      F'' != 0 on it, or d(centre) plus d's bound below 0, so F''' < 0
      on it (``test_slope_rises_then_falls``; boxes over L1's or L4's
      region would fail).
    * Bracket ends.  F'(0) = -2 cos(gamma) - 4C cos(gamma/2);
      F'(pi/2) = 2 sin(gamma) + 2C sin(pi/4 + gamma/2) + 2C^2 > 0;
      F'(3pi/4) for gamma <= pi/2 and F'(pi/4) for gamma >= pi/2 are
      > 0: their O(1) term is >= sqrt 2, their O(C) term is sqrt 2 C
      (sin(t) +- 2 cos(t)) >= 0.158 sqrt 2 C, t in [3pi/8, 5pi/8], and
      their C^2 term is C^2; F'(pi) = 2 cos(gamma) - 4C sin(gamma/2).

    On an interval a slope that rises, then falls, is least at an end.
    So F' > 0 between the brackets, whose inner ends have F' > 0; a
    bracket whose end slopes differ in sign holds exactly one zero of F',
    and one whose end slopes agree holds none.  So F is monotone on
    ``solve``'s segments between the extrema found.  An extremum that
    ``_bracketed`` drops for rounding lies within about sqrt(eps/2) of pi,
    and F falls past it by about C^2 eps^(3/2), far below F's own
    rounding.  ``test_slope_sign_pattern_at_50_digits`` checks the sign
    pattern of F' on the brackets against a 50-digit evaluation.

    A scalar runs on floats throughout.  An array bisects the lanes of both
    brackets in one call (``_extrema``), each lane with its own bracket.
    ``_force_maximum`` bisects the maximum's bracket alone, for
    ``critical_mass_ratio`` and ``regions.trace_tangency_curve``;
    ``regions.region_map`` sends its columns' extrema and its tangency
    samples' maxima through one ``_extrema`` call.
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
    _force and ``_scan_rows`` round within s = _SCAN_SLACK (1+C)^2 of the
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
    ratio is a column with its row F(grid; A=0) (``_scan_rows``) and the
    nodes 0, minimum, maximum and pi (``_nodes``, which
    ``regions._count_block`` reads its labels from too), a missing extremum
    at 0 or pi.  ``extrema`` is the (minimum, maximum) pair of
    ``force_extrema``, as floats or as arrays with one entry per capillary
    ratio; None finds them.  A cell whose level A C^2 lies so far outside
    its row's range that F provably keeps one sign (``_rootless``) has no
    root and goes no further; when no cell is left, the extrema are never
    found.  Otherwise a node with |F| <= ROOT_VALUE_TOL is a root (the
    endpoint root at pi, the tangency at A*), and every segment whose ends
    change sign is bisected.  F is monotone on each segment
    (``force_extrema`` has the proof), so a segment holds a root exactly
    when its ends change sign; other extrema than ``force_extrema``'s void
    that.  Up to _FLOAT_LANES segments bisect one by one on Python floats,
    as a lone cell's do; more share one array bisection.  Both give
    bisect's bits.  Of roots closer than _DEDUP_TOL the first in node,
    segment order counts (``_pack``).
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
    roots = _pack(found, np.sort(found, axis=1, kind="stable"))
    if live.size < ones.size:
        out = np.full((ones.size, roots.shape[1]), np.nan)
        out[live] = roots
        roots = out
    return roots.reshape(ones.shape + roots.shape[1:])


def _pack(found, roots):
    """Each cell's distinct roots, ascending, padded with NaN to the most
    roots a cell has.

    ``roots`` is ``found`` sorted along each row.  Of roots closer than
    _DEDUP_TOL the first in node, segment order counts.
    """
    np = _numpy()
    close = (roots[:, 1:] - roots[:, :-1] <= _DEDUP_TOL).any(axis=1)
    # one first-wins pass over the rows holding a close pair
    count = (roots == roots).sum(axis=1)
    kept = {}
    for i in np.flatnonzero(close).tolist():
        row = kept[i] = []
        for x in found[i].tolist():
            if x == x and all(abs(r - x) > _DEDUP_TOL for r in row):
                row.append(x)
        count[i] = len(row)
    out = roots[:, :max(count.tolist(), default=0)]
    # roots is solve's own sorted copy of found: its rows take the kept roots
    for i, row in kept.items():
        out[i] = sorted(row) + [np.nan] * (out.shape[1] - len(row))
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
      F'(x*) = 0 and some grid point within h/2 of it, h the grid step,
      where F is within K h^2 / 8 = K _SCAN_SAG of F(x*).

    So F < -ROOT_VALUE_TOL on all of [0, pi]: every node value has one sign
    with |F| > ROOT_VALUE_TOL and no segment brackets, so ``solve`` without
    the test finds no root for these cells either.  The proof does not rest
    on the monotone-segment structure.  M follows ROOT_VALUE_TOL: should
    that become force-scaled, so must M's last term, and with it
    ``find_equilibria``'s closed-form test, which clears a subset of these
    cells before any row exists.
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
    """F(.; A=0) on ``_scan``'s grid, one row per capillary ratio, no trig.

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


def find_equilibria(params: DimensionlessParams,
                    critical: list[CriticalPoint] | None = None
                    ) -> list[Equilibrium]:
    """All zeros of the force curve on [0, pi], ascending, with stability.

    The one-cell call of ``solve``; ``critical``, as ``critical_points``
    gives it, stands in for the extrema.  ``solve`` finds every root only
    with the true extrema, so ``critical`` must list one point of each kind
    whose bracket ``_bracketed`` accepts, inside that bracket, and nothing
    else; else ValueError.  That check costs a few float ``_slope`` calls
    and no bisection.  The fields are Python floats whatever number type
    the params hold.

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
    extrema = None
    if critical is not None:
        phis = {cp.kind: cp.phi0 for cp in critical}
        want = {kind: bracket[:2] for kind, bracket
                in zip(ExtremumKind, _extremum_brackets(g))
                if _bracketed(c, g, *bracket)[0]}
        if (len(critical) != len(want) or phis.keys() != want.keys()
                or not all(lo <= phis[k] <= hi
                           for k, (lo, hi) in want.items())):
            expected = " and ".join(f"a {k.value} in [{lo!r}, {hi!r}]"
                                    for k, (lo, hi) in want.items())
            raise ValueError(f"critical={critical!r} must list "
                             f"{expected or 'nothing'} at {params}")
        extrema = tuple(phis.get(kind, math.nan) for kind in ExtremumKind)
    s, margin = _margin(c)
    level = a * c * c
    if (level > (2.0 + 4.0 * c * math.sin(g / 2.0) + PI * c * c + 2.0 * s
                 + margin)
            or level < -2.0 - 4.0 * c - 2.0 * s - margin):
        return []
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
