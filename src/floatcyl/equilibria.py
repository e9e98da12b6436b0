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
# pad < grid step: a root's window spans at most three intervals
_WINDOW = np.arange(3)
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
    Array elements run side by side, each masked by 0/1 factors (exact on
    finite floats), so each equals its scalar run.
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
    root = lo * (fa == 0.0) + hi * ((fa != 0.0) & (fb == 0.0))
    xa, dm = lo, hi - lo
    for _ in range(_MAX_HALVINGS):
        dm = dm * 0.5
        xm = xa + dm
        fm = f(xm)
        keep = fm * fa >= 0.0
        xa = xm * keep + xa * (1 - keep)
        stop = todo & ((fm == 0.0) | (abs(dm) < PHI0_TOL + _RTOL * abs(xm)))
        root = root + xm * stop
        todo = todo & ~stop
        if not todo.any():
            return root
    raise RuntimeError(f"bisection not converged in {_MAX_HALVINGS} halvings")


def second_extremum_threshold(contact_angle: float) -> float:
    """Capillary ratio above which the force curve has its second extremum.

    Zero for contact angles >= pi/2 (the maximum always exists there);
    cos(gamma) / (2 sin(gamma/2)) for gamma in (0, pi/2); infinite for
    gamma = 0, where the force is eventually increasing for every C.
    """
    if not 0.0 <= contact_angle <= PI:
        raise ValueError(f"contact_angle must lie in [0, pi], got {contact_angle!r}")
    if contact_angle >= PI / 2.0:
        return 0.0
    if contact_angle == 0.0:
        return math.inf
    return math.cos(contact_angle) / (2.0 * math.sin(contact_angle / 2.0))


def force_extrema(capillary_ratios, contact_angle: float):
    """Interior minimum and maximum of the force curve for each capillary ratio.

    A scalar gives two floats, an array two float arrays shaped like it;
    NaN where that extremum does not exist.  A minimum lies below every
    maximum.  The slope dF/dphi0 does not involve the mass ratio, so the
    extrema depend on (C, gamma) only.  Bracketing follows the regime
    structure:

    * gamma = pi/2: one minimum in (0, pi/2), one maximum in (pi/2, pi),
      mirror images about pi/2.
    * gamma > pi/2: a maximum in (pi/2, pi) always; a minimum in (0, pi/4)
      exactly when the slope at phi0 = 0 is negative.
    * gamma < pi/2: a minimum in (0, pi/2) always; a maximum in (3pi/4, pi)
      exactly when the slope at phi0 = pi is negative.

    A bracket whose endpoint slopes do not change sign is dropped.  Each
    bracket is bisected once over every capillary ratio it holds; a lone one
    runs on floats, which gives the same bits faster.
    """
    c = np.asarray(capillary_ratios, dtype=float)
    lone = c.ndim == 0
    if lone:
        c = c.item()
    g = contact_angle
    # (lo, hi, the bracket needs slope(lo) < 0, ... needs slope(hi) < 0)
    if g == PI / 2.0:
        brackets = [(0.0, PI / 2.0, False, False), (PI / 2.0, PI, False, False)]
    elif g > PI / 2.0:
        brackets = [(0.0, PI / 4.0, True, False), (PI / 2.0, PI, False, False)]
    else:
        brackets = [(0.0, PI / 2.0, False, False),
                    (3.0 * PI / 4.0, PI, False, True)]
    out = []
    for lo, hi, lo_negative, hi_negative in brackets:
        s_lo, s_hi = _slope(lo, c, g), _slope(hi, c, g)
        ok = s_lo * s_hi < 0.0
        if lo_negative:
            ok = ok & (s_lo < 0.0)
        if hi_negative:
            ok = ok & (s_hi < 0.0)
        if lone:
            out.append(bisect(lambda x: _slope(x, c, g), lo, hi) if ok
                       else math.nan)
            continue
        phi = np.full(c.shape, np.nan)
        idx = np.flatnonzero(ok)
        if idx.size:
            sub = c.flat[idx] if idx.size > 1 else c.item(idx[0])
            phi.flat[idx] = bisect(lambda x: _slope(x, sub, g), lo, hi)
        out.append(phi)
    return out[0], out[1]


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


def _add_root(roots: list[float], x: float) -> bool:
    """Append x unless a root within _DEDUP_TOL is already listed."""
    if any(abs(r - x) <= _DEDUP_TOL for r in roots):
        return False
    roots.append(x)
    return True


def solve(mass_ratios, capillary_ratios, contact_angle: float,
          critical: list[CriticalPoint] | None = None) -> np.ndarray:
    """Ascending zeros of F on [0, pi] for every cell, padded with NaN.

    The cells are the broadcast of ``mass_ratios`` against
    ``capillary_ratios``; the result has the broadcast shape plus one
    trailing axis of roots.  Each capillary ratio is a column: its cells
    share the nodes 0, the column's extrema (``critical`` for every column
    when given) and pi, a missing extremum giving a zero-length segment.  A
    node with |F| <= ROOT_VALUE_TOL is a root (the endpoint root at pi, the
    tangency at A*); each segment is bisected once over every cell whose
    ends change sign there.  Roots closer than _DEDUP_TOL count once, and
    ``_scan_guard`` backstops the segments.
    """
    g = contact_angle
    cap = np.asarray(capillary_ratios, dtype=float)
    if critical is None:
        # a lone column finds its extrema on floats
        minimum, maximum = force_extrema(
            cap.item() if cap.size == 1 else cap.ravel(), g)
        col_nodes = np.column_stack([np.zeros(cap.size),
                                     np.where(minimum == minimum, minimum, 0.0),
                                     np.where(maximum == maximum, maximum, PI),
                                     np.full(cap.size, PI)])
    else:
        phis = [cp.phi0 for cp in critical]
        # at least four nodes: missing extrema become zero-length segments
        col_nodes = np.array(
            [[0.0] * max(1, 3 - len(phis)) + phis + [PI]] * cap.size)
    # each cell's column: its nodes, its capillary ratio, its scan.
    # Broadcast by arithmetic: x * 1.0 and j + 0 are exact.
    a = np.asarray(mass_ratios, dtype=float)
    ones = np.ones(np.broadcast(a, cap).shape)
    shape = ones.shape
    col = (np.arange(cap.size).reshape(cap.shape) + ones.astype(np.int64) - 1
           ).ravel()
    a = (a * ones).ravel()
    c = cap.ravel()[col]
    nodes = col_nodes[col]
    # one capillary ratio runs on floats: faster, and the same bits
    c_cells = cap.item() if cap.size == 1 else c[:, None]

    f_nodes = _force(nodes, a[:, None], c_cells, g)
    on_node = np.abs(f_nodes) <= ROOT_VALUE_TOL
    bracket = ((f_nodes[:, :-1] * f_nodes[:, 1:] < 0.0)
               & ~on_node[:, :-1] & ~on_node[:, 1:])
    n_nodes = nodes.shape[1]
    found = np.full((a.size, 2 * n_nodes - 1), np.nan)
    found[:, :n_nodes] = np.where(on_node, nodes, np.nan)
    for k in np.flatnonzero(bracket.any(axis=0)).tolist():
        idx = np.flatnonzero(bracket[:, k])
        # a lone bracket runs on floats: faster, and the same bits
        if idx.size > 1:
            sa, sc = a[idx], c[idx]
            found[idx, n_nodes + k] = bisect(
                lambda x: _force(x, sa, sc, g), nodes[idx, k],
                nodes[idx, k + 1])
        else:
            i = int(idx[0])
            sa, sc = float(a[i]), float(c[i])
            found[i, n_nodes + k] = bisect(
                lambda x: _force(x, sa, sc, g), float(nodes[i, k]),
                float(nodes[i, k + 1]))

    # of roots closer than _DEDUP_TOL keep the first in node-then-segment
    # order; only rows holding such a pair need the sequential pass.  Sorts
    # are stable here and in the guard: nearly sorted input, and a smaller
    # code footprint than the default sort.
    roots = np.sort(found, axis=1, kind="stable")
    close = (roots[:, 1:] - roots[:, :-1] <= _DEDUP_TOL).any(axis=1)
    for i in np.flatnonzero(close).tolist():
        kept = []
        for x in found[i].tolist():
            if x == x:
                _add_root(kept, x)
        roots[i] = np.nan
        roots[i, :len(kept)] = sorted(kept)

    roots = _scan_guard(roots, a, c, col, cap.ravel(), g)
    return roots.reshape(shape + roots.shape[-1:])


def _scan_guard(roots, a, c, col, caps, g):
    """Backstop the segment roots with a dense sign scan of each cell.

    Each grid interval where F(.; A=0) strictly crosses the level A C^2
    needs a root within _SCAN_PAD.  Per column, the interval bounds count
    the crossings of every cell's level, sorted first when the column holds
    more than one cell, less those next to a root; only a cell with some
    left over scans its grid, and a root found there is
    added with ModelInconsistencyWarning.  ``roots`` holds each cell's
    ascending roots, NaN after them; the result adds any new ones and drops
    the columns no cell fills.
    """
    level = a * c * c
    lo_f = np.empty((len(caps), len(_SCAN_GRID) - 1))
    hi_f = np.empty_like(lo_f)
    changes = np.empty(a.size, dtype=np.int64)
    for j, c_j in enumerate(caps.tolist()):
        f0 = _force(_SCAN_GRID, 0.0, c_j, g)
        lo, hi = lo_f[j], hi_f[j]
        np.minimum(f0[:-1], f0[1:], out=lo)
        np.maximum(f0[:-1], f0[1:], out=hi)
        # a flat interval crosses no level: at +inf it counts nowhere
        flat = lo == hi
        lo[flat] = hi[flat] = np.inf
        cells = np.flatnonzero(col == j)
        t = level[cells]
        if cells.size == 1:
            # the same count as the sorted bounds give, without the sorts
            changes[cells] = np.count_nonzero((lo < t) & (t < hi))
        else:
            changes[cells] = (
                np.searchsorted(np.sort(lo, kind="stable"), t, "left")
                - np.searchsorted(np.sort(hi, kind="stable"), t, "right"))
    cell, slot = np.nonzero(roots == roots)
    if changes.any():
        # a root's intervals are [first, last]; a cell's ascending roots
        # have ascending windows, so each starts past its predecessor's
        r = roots[cell, slot]
        first = np.searchsorted(_SCAN_TO, r, "left")
        last = np.searchsorted(_SCAN_FROM, r, "right") - 1
        first[1:] = np.where(cell[1:] == cell[:-1],
                             np.maximum(first[1:], last[:-1] + 1), first[1:])
        window = first[:, None] + _WINDOW
        at = (np.minimum(window, len(_SCAN_GRID) - 2)
              + (col[cell] * (len(_SCAN_GRID) - 1))[:, None])
        t = level[cell, None]
        crossed = ((window <= last[:, None])
                   & (lo_f.take(at) < t) & (t < hi_f.take(at)))
        changes -= np.bincount(cell, crossed.sum(axis=1),
                               a.size).astype(np.int64)

    added = {}
    for i in np.flatnonzero(changes > 0).tolist():
        kept = [x for x in roots[i].tolist() if x == x]
        a_i, c_i = float(a[i]), float(c[i])
        shifted = _force(_SCAN_GRID, 0.0, c_i, g) - level[i]
        for j in np.flatnonzero(shifted[:-1] * shifted[1:] < 0.0).tolist():
            lo, hi = float(_SCAN_GRID[j]), float(_SCAN_GRID[j + 1])
            if any(lo - _SCAN_PAD <= x <= hi + _SCAN_PAD for x in kept):
                continue
            x = bisect(lambda x: _force(x, a_i, c_i, g), lo, hi)
            warnings.warn(
                f"dense scan found a root at phi0={x:.12g} outside the "
                f"monotone-segment structure (A={a_i!r}, C={c_i!r}, "
                f"gamma={g!r}); the force curve shape assumption is violated "
                "here", ModelInconsistencyWarning)
            _add_root(kept, x)
        added[i] = sorted(kept)
    if added:
        more = max(len(kept) for kept in added.values())
        roots = np.hstack([roots, np.full((a.size, more), np.nan)])
        for i, kept in added.items():
            roots[i] = np.nan
            roots[i, :len(kept)] = kept
    # a row's roots come first, so the widest row ends at slot.max()
    width = max([int(slot.max(initial=-1)) + 1]
                + [len(kept) for kept in added.values()])
    return roots[:, :width]


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
    second-extremum threshold).
    """
    DimensionlessParams(mass_ratio=0.0, capillary_ratio=capillary_ratio,
                        contact_angle=contact_angle, exploratory=True)
    phi0_star = force_extrema(capillary_ratio, contact_angle)[1]
    if not phi0_star > PI / 2.0:
        raise NoSecondCriticalPointError(
            f"no interior force maximum past pi/2 for contact_angle="
            f"{contact_angle!r}, capillary_ratio={capillary_ratio!r} "
            f"(threshold C = {second_extremum_threshold(contact_angle)!r})")
    a_star = (_force(phi0_star, 0.0, capillary_ratio, contact_angle)
              / capillary_ratio ** 2)
    return a_star, phi0_star


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
    UnsupportedRegimeError.
    """
    if contact_angle != PI / 2.0:
        raise UnsupportedRegimeError(
            f"asymptotic series are derived for contact_angle = pi/2 only, "
            f"got {contact_angle!r}")
    if not capillary_ratio > 0.0:
        raise ValueError(f"capillary_ratio must be positive, got {capillary_ratio!r}")
    c = capillary_ratio
    if regime == "small":
        a_star = 2.0 / c ** 2 + 2.0 + PI - 2.0 * math.sqrt(2.0) * c
        phi0_star = (PI - math.sqrt(2.0) * c + 2.0 * c ** 2
                     - (7.0 / 12.0) * math.sqrt(2.0) * c ** 3)
    elif regime == "large":
        a_star = PI + (1.0 / 3.0) * 2.0 ** (11.0 / 4.0) / c ** 1.5
        phi0_star = (PI - 2.0 ** 0.25 / math.sqrt(c) + 2.0 ** -0.5 / c
                     + (7.0 / 3.0) * 2.0 ** (-13.0 / 4.0) / c ** 1.5)
    else:
        raise ValueError(f'regime must be "small" or "large", got {regime!r}')
    return a_star, phi0_star
