"""Force-balance points of the floating cylinder and their stability.

The vertical force F(phi0) has a rigid shape on [0, pi]: depending on the
contact angle and the capillary ratio it has either one interior extremum or
two (a minimum then a maximum), so it admits at most two zeros.  Roots are
bracketed on the monotone segments between the extrema and refined by
bisection; a zero is stable when F increases through it (the center height
decreases monotonically with phi0, so dF/dphi0 > 0 means the energy is at a
local minimum).  A level A C^2 past the closed-form range of the mass-free
force leaves F of one sign at every node, so find_equilibria answers such
a cell before it finds the extrema.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

from .model import (DimensionlessParams, _check_contact_angle,
                    _check_positive, _force, _height, _numpy, _slope,
                    _slope_curv)

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
# _force rounds apart from the exact F by at most _FORCE_SLACK (1+C)^2
# (test_force_slack_bounds_the_rounding).
_FORCE_SLACK = 64.0 * sys.float_info.epsilon
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


def _classify(slope: float) -> Stability:
    if slope > TANGENCY_TOL:
        return Stability.STABLE
    if slope < -TANGENCY_TOL:
        return Stability.UNSTABLE
    return Stability.MARGINAL_UNSTABLE


def bisect(f, lo, hi, f_lo, rl=None, rh=None):
    """``_halve`` on lanes side by side, bit for bit: one float bracket
    0 <= lo < hi shared by every lane, f_lo = f(lo), an array whose
    entries are nonzero and opposite in sign to f(hi), and each lane's
    window (rl, rh), two arrays, or none.

    f(x, k) is f of the lanes k at their midpoints x: k is an index array,
    or slice(None) for every lane, whose first x is one float.  Each lane
    keeps its own xa and stops at its own xm, selected by ``np.where``, so
    each equals its float run; f runs at neither end.  Without windows f
    runs on every lane at every midpoint.  With them, as in ``_halve``, a
    lane's midpoint below rl is kept as xa and one in (rh, hi] is not,
    both without f, and f runs on the other lanes only: ``_replay_lanes``
    passes the windows it has certified, and (-inf, inf) for a lane it
    has not, whose halvings are then the window-free ones.  The windowed
    halvings write the midpoints into one kept buffer, keep xa in place,
    and build an index of lanes only for a halving where some lane needs
    f.  dm halves exactly, and each xm lies in [lo, hi] widened by half
    an ulp per halving, so below 2 hi: while dm is at least wide =
    2 (PHI0_TOL + 4 eps hi), no lane's tolerance test can pass, and only
    f(xm) == 0 can stop a lane.  Nor can xm round past hi then, for hi
    below 90 (every bracket the package bisects lies in [0, pi]): a
    lane's bracket [xa, U] has U <= hi and U - xa = 2 dm + E, each
    rounding of xa + dm adding at most eps hi to |E|, so the k-th xm is
    at most hi - dm + (k + 1) eps hi, below hi while dm >= wide >
    101 eps hi.  So the windowed halvings test xm > hi only once
    dm < wide, and the stop test runs only then, or where f(xm) == 0.
    With no lanes it returns the empty array and never runs f.
    """
    np = _numpy()
    root = np.empty(f_lo.shape)
    if not root.size:
        return root
    todo = np.ones(f_lo.shape, dtype=bool)
    dm = hi - lo
    wide = 2.0 * (PHI0_TOL + _RTOL * hi)
    if rl is None:
        xa, every = lo, slice(None)
    else:
        xa, xm = np.full(f_lo.shape, float(lo)), np.empty(f_lo.shape)
        go, need = (np.empty(f_lo.shape, dtype=bool) for _ in range(2))
    for _ in range(_MAX_HALVINGS):
        dm *= 0.5
        if rl is None:
            xm = xa + dm
            fm = f(xm, every)
            go, stop = fm * f_lo >= 0.0, fm == 0.0
            xa = np.where(go, xm, xa)
        else:
            np.add(xa, dm, out=xm)
            np.less(xm, rl, out=go)
            # f runs where xm lies in [rl, rh] or rounds past hi: not
            # below rl, and not in (rh, hi]
            np.less_equal(xm, rh, out=need)
            if dm < wide:
                need |= hi < xm
            need &= ~go
            stop = None
            if need.any():
                k = np.flatnonzero(need)
                fm = f(xm[k], k)
                go[k] = fm * f_lo[k] >= 0.0
                if not fm.all():
                    stop = np.zeros(f_lo.shape, dtype=bool)
                    stop[k] = fm == 0.0
            np.copyto(xa, xm, where=go)
        if dm < wide:
            near = dm < PHI0_TOL + _RTOL * xm
            stop = near if stop is None else stop | near
        if stop is not None:
            stop &= todo
            if stop.any():
                root = np.where(stop, xm, root)
                todo &= ~stop
                if not todo.any():
                    return root
    raise RuntimeError(f"bisection not converged in {_MAX_HALVINGS} halvings")


def _replay(f, fdf, lo, hi, f_lo, f_hi, c, x0=None):
    """``_halve(f, lo, hi, f_lo)``'s result, bit for bit, from about a
    third of its calls of f.

    f is ``_force`` of a cell on one of its segments (``_cell_roots``), or
    ``_slope`` on a bracket of ``_extremum_brackets``; fdf(x) is (f(x),
    f'(x)) from one call, with ``_slope`` for f' on a segment
    (``_slope_curv`` on a bracket).  f_lo is f(lo) as computed, f_hi
    f(hi) or, at hi = pi on the maximum's bracket, a value with its sign
    (``_bracketed``); they differ in sign, and neither is zero.  x0, if
    given, is Newton's start.  With tau = s of ``_bounds(c)``, which
    bounds both kernels' rounding:

    1. Screen: |f_lo| and |f_hi| exceed 3 tau.  The exact |F| then exceeds
       2 tau at lo and hi.  The maximum's f_hi, t - C, has F'(pi)'s sign
       but not its size, and its screen only costs a fallback within
       3 tau of the threshold.
    2. Newton's iteration, kept inside the bracket of the signs seen,
       locates the zero x.  It starts at x0 where x0 lies in (lo, hi),
       else (a NaN x0 too) at the chord's zero, else at the midpoint:
       ``_extremum`` passes the maximum's chord zero against the closed
       form of F'(pi) (``_start``).  It stops once K s^2 <= tau, s its
       last step and K of ``_bounds``: the error left is then about
       K s^2 / 2|f'| (none of the proof rests on it).
    3. Certificate: the computed f at rl = x - h and rh = x + h, with
       h = 6 tau / |f'(x)|, exceeds 3 tau in size, with f_lo's sign at rl
       and f_hi's at rh.  The exact |F| then exceeds 2 tau there too.
    4. On the outer zones [lo, rl) and (rh, hi] the exact |F| is least at
       a zone end, so it exceeds 2 tau there, and the computed f, within
       tau of it, has the sign of its zone end and |f| > tau.  For
       ``_force``, F is monotone on a cell's segments (``force_extrema``)
       but where a computed extremum end lies past the true one by a
       rounding; there F turns back toward larger |F|.  For ``_slope``,
       F' rises, then falls: before the minimum's zero it rises, past the
       maximum's it falls, and on the other two zones it is least at an
       end.  Those two ends, f(hi) on the minimum's bracket and f(lo) on
       the maximum's, are why step 1 screens both end values.
    5. ``_halve`` replays the halvings with the window (rl, rh).  f runs
       only for midpoints in [rl, rh], and for any that round past hi.  A
       midpoint in an outer zone has f(xm) != 0 of its zone end's sign,
       and, with |f_lo| > 3 tau and tau >= 64 eps, f(xm) f_lo does not
       underflow: the halvings keep it as xa below rl, and not above rh.
    6. A failed screen, a zero f', a Newton iteration that does not settle
       in 12 steps or a failed certificate runs ``_halve`` with no window,
       from f_lo.

    Newton's x is never returned: every output is a midpoint of the
    halvings, as ``_halve`` with no window gives it, whatever the start.
    ``_replay_lanes`` takes these steps on lanes side by side.
    """
    tau, _, k = _bounds(c)
    if min(abs(f_lo), abs(f_hi)) <= 3.0 * tau:
        return _halve(f, lo, hi, f_lo)
    a, b, x = lo, hi, x0
    if x is None or not lo < x < hi:
        x = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
    for _ in range(12):
        fx, d = fdf(x)
        if not d:
            return _halve(f, lo, hi, f_lo)
        if fx * f_lo > 0.0:
            a = x
        else:
            b = x
        step = x - fx / d
        if not a <= step <= b:
            step = 0.5 * (a + b)
        s = abs(step - x)
        x = step
        if k * s * s <= tau:
            break
    else:
        return _halve(f, lo, hi, f_lo)
    h = 6.0 * tau / abs(d)
    rl, rh = x - h, x + h
    fl, fh = f(rl), f(rh)
    # the products first: a NaN fails them, and min may drop one
    if not (fl * f_lo > 0.0 and fh * f_hi > 0.0
            and min(abs(fl), abs(fh)) > 3.0 * tau):
        return _halve(f, lo, hi, f_lo)
    return _halve(f, lo, hi, f_lo, rl, rh)


def _replay_lanes(f, fdf, lo, hi, f_lo, f_hi, c, x0=None):
    """``_replay``'s steps, lane by lane: ``bisect(f, lo, hi, f_lo)``'s
    result, bit for bit, from far fewer calls of f.

    f(x, k) is a kernel at the lanes k (``bisect``), and fdf(x, k) the
    kernel and its derivative there from one call, ``_slope`` and
    ``_slope_curv`` for ``_extrema``; c, f_lo and f_hi are arrays of each
    lane's C and end values, as ``_replay``'s, and x0, if given, of each
    lane's start, taken where it lies in (lo, hi).  Newton runs fdf once
    a step, on the lanes not yet settled only, which drop out as they
    settle, and the certificate is one call of f over both points of
    every settled lane.  A lane that falls back gets the window
    (-inf, inf), and one ``bisect`` call runs every lane with its window.
    """
    np = _numpy()
    tau, _, big_k = _bounds(c)
    rl, rh = np.full(c.shape, -math.inf), np.full(c.shape, math.inf)
    u = np.flatnonzero((np.abs(f_lo) > 3.0 * tau)
                       & (np.abs(f_hi) > 3.0 * tau))
    s_lo, tau_u, k_u = f_lo[u], tau[u], big_k[u]
    x = lo + (hi - lo) * (s_lo / (s_lo - f_hi[u]))
    x = np.where((lo < x) & (x < hi), x, 0.5 * (lo + hi))
    if x0 is not None:
        x0 = x0[u]
        x = np.where((lo < x0) & (x0 < hi), x0, x)
    a, b = np.full(u.shape, lo), np.full(u.shape, hi)
    for _ in range(12):
        if not u.size:
            break
        fx, d = fdf(x, u)
        up = fx * s_lo > 0.0
        a, b = np.where(up, x, a), np.where(up, b, x)
        flat = d == 0.0
        step = x - fx / np.where(flat, 1.0, d)
        step = np.where((a <= step) & (step <= b), step, 0.5 * (a + b))
        s = np.abs(step - x)
        done = (k_u * s * s <= tau_u) & ~flat
        w = u[done]
        h = 6.0 * tau_u[done] / np.abs(d[done])
        rl[w], rh[w] = step[done] - h, step[done] + h
        more = ~(done | flat)
        u, x, a, b = u[more], step[more], a[more], b[more]
        s_lo, tau_u, k_u = s_lo[more], tau_u[more], k_u[more]
    w = np.flatnonzero(rl > -math.inf)
    fl, fh = np.split(f(np.concatenate([rl[w], rh[w]]),
                        np.concatenate([w, w])), 2)
    bad = w[~((fl * f_lo[w] > 0.0) & (fh * f_hi[w] > 0.0)
              & (np.minimum(np.abs(fl), np.abs(fh)) > 3.0 * tau[w]))]
    rl[bad], rh[bad] = -math.inf, math.inf
    return bisect(f, lo, hi, f_lo, rl, rh)


def _halve(f, lo, hi, f_lo, rl=-math.inf, rh=math.inf):
    """SciPy's bisect with xtol=PHI0_TOL, bit for bit, on floats
    0 <= lo < hi, from f_lo = f(lo), f(lo) and f(hi) nonzero and of
    opposite signs; f runs at neither end, and the tolerance test needs
    no abs, as dm and xm are positive.

    A midpoint below rl is kept as xa, and one in (rh, hi] is not, both
    without f: ``_replay`` passes the window whose outer zones it has
    certified; its fallbacks and ``regions.tangency_boundary_c`` pass none.
    The stop test is ``bisect``'s, wide shortcut included.
    """
    xa, dm = lo, hi - lo
    wide = 2.0 * (PHI0_TOL + _RTOL * hi)
    for _ in range(_MAX_HALVINGS):
        dm *= 0.5
        xm = xa + dm
        if xm < rl:
            xa = xm
        elif not rh < xm <= hi:
            fm = f(xm)
            if fm * f_lo >= 0.0:
                xa = xm
            if fm == 0.0:
                return xm
        if dm < wide and dm < PHI0_TOL + _RTOL * xm:
            return xm
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


def force_extrema(capillary_ratio, contact_angle: float):
    """Interior minimum and maximum of the force curve at one capillary ratio.

    Two floats, NaN where that extremum does not exist; C may be a float,
    an int or a NumPy scalar.  A minimum lies below every maximum.  The
    slope dF/dphi0 does not involve the mass ratio, so the extrema depend
    on (C, gamma) only.  Bracketing follows the regime structure
    (``_extremum_brackets``):

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
    ``_cell_roots``' segments between the extrema found.  An extremum that
    ``_bracketed`` drops for rounding lies within about sqrt(eps/2) of pi,
    and F falls past it by about C^2 eps^(3/2), far below F's own
    rounding.  ``test_slope_sign_pattern_at_50_digits`` checks the sign
    pattern of F' on the brackets against a 50-digit evaluation.

    It runs on floats throughout and replays the bisection (``_replay``),
    as ``_cell_roots`` does for each cell it is given no extrema for.
    ``critical_mass_ratio`` bisects the maximum's bracket alone
    (``_extremum``).  Many C on one bracket go to ``_extrema``, which
    replays them as lanes of one ``_replay_lanes`` call, to the same bits:
    ``regions.trace_tangency_curve`` finds its samples' maxima there, and
    ``regions.region_map`` those of its columns and its tangency samples
    in one call.  Both replays take F' and F'' from one ``_slope_curv``
    call per Newton step, and on the maximum's bracket start Newton from
    the chord against F'(pi)'s closed form (``_start``): about four steps
    settle a default map's maxima.  Neither moves a bit, as only the
    halvings' midpoints are returned.

    A C that is not positive and finite, and a contact angle outside
    [0, pi], raise ValueError.
    """
    c = float(capillary_ratio)
    _check_positive("capillary_ratio", c)
    _check_contact_angle(contact_angle)
    return tuple(_extremum(c, contact_angle, b)
                 for b in _extremum_brackets(contact_angle))


def _extremum_brackets(g):
    """The minimum's and the maximum's (lo, hi)."""
    if g == PI / 2.0:
        return (0.0, PI / 2.0), (PI / 2.0, PI)
    if g > PI / 2.0:
        return (0.0, PI / 4.0), (PI / 2.0, PI)
    return (0.0, PI / 2.0), (3.0 * PI / 4.0, PI)


def _bracketed(c, g, lo, hi):
    """(ok, s_lo, s_hi) of a bracket of ``_extremum_brackets`` at a float
    or an array ``c``: whether it holds an extremum, the slope at lo, and
    the slope at hi, or a value with its sign.

    A sign change decides: the inner ends, the minimum's hi and the
    maximum's lo, have F' > 0 (``force_extrema``'s bracket ends), so a
    minimum's bracket that changes sign has F' < 0 at lo, a maximum's
    F' < 0 at hi (``test_inner_bracket_ends_rise``).

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
    return ok, s_lo, s_hi


def _start(c, g, bracket, s_lo):
    """Newton's start on a bracket of ``_extremum_brackets`` at a float or
    an array ``c``, from the slopes s_lo at its lo: None but on the
    maximum's bracket, where it is the chord's zero against
    -|2 cos(g) - 4C sin(g/2)|, F'(pi)'s closed form (``force_extrema``'s
    bracket ends) with the sign the bracket implies.  Where the bracket
    holds the maximum, s_lo > 0, so the chord's denominator is at least
    s_lo and never vanishes.  The stand-in t - C of ``_bracketed`` has
    F'(pi)'s sign but not its size: the start lies nearer the maximum,
    and fewer Newton steps reach it."""
    lo, hi = bracket
    if hi != PI:
        return None
    f_pi = abs(2.0 * math.cos(g) - 4.0 * c * math.sin(g / 2.0))
    return lo + (hi - lo) * (s_lo / (s_lo + f_pi))


def _extremum(c, g, bracket):
    """The extremum a bracket of ``_extremum_brackets`` holds at a float
    ``c``, NaN where it is dropped, on floats: ``_halve``'s bits, from
    ``_replay``, whose Newton steps each make one ``_slope_curv`` call
    from ``_start``."""
    ok, s_lo, s_hi = _bracketed(c, g, *bracket)
    return (_replay(lambda x: _slope(x, c, g),
                    lambda x: _slope_curv(x, c, g), *bracket, s_lo, s_hi, c,
                    _start(c, g, bracket, s_lo)) if ok
            else math.nan)


def _extrema(g, c, bracket):
    """``_extremum`` at every entry of the 1-D float array c on one bracket
    of ``_extremum_brackets``: a float array shaped like c.

    Every entry whose bracket holds an extremum (``_bracketed``) is one
    lane of a single ``_replay_lanes`` call, from its slopes at the
    bracket's ends and its ``_start``, which gives each lane its float
    run's window and bits.  The halvings' NumPy calls are shared by all
    lanes, so callers pass all their C at once.
    """
    np = _numpy()
    phi = np.full(c.shape, np.nan)
    ok, s_lo, s_hi = _bracketed(c, g, *bracket)
    # no lanes would still pay _replay_lanes' NumPy setup
    if ok.any():
        lanes, s_lo = c[ok], s_lo[ok]
        phi[ok] = _replay_lanes(lambda x, k: _slope(x, lanes[k], g),
                                lambda x, k: _slope_curv(x, lanes[k], g),
                                *bracket, s_lo, s_hi[ok], lanes,
                                _start(lanes, g, bracket, s_lo))
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


def _bounds(c):
    """(s, S, K) for a float or array C, which the solver's proofs rest on.

    _force at a point of [0, pi], with A = 0 or with a level in the node
    values' range, rounds within s = _FORCE_SLACK (1+C)^2 of the exact F:
    its terms add to a few (1+C)^2 and each rounds by an ulp or two
    (``test_force_slack_bounds_the_rounding``).  The sizes of the terms of
    F' and F'' add to S = 2 + 6C + 2C^2 and K = 2 + 9C + 2C^2
    (``test_curvature_bound``).

    _slope rounds within s of the exact F' too, near pi as well, where
    its C^2 - C^2 cos(2 phi) cancels: that error is absolute, an ulp or two
    of C^2.  Proof, with eps = 2^-52: phi + gamma < 8 rounds by at most
    2 eps, which moves a sine or cosine of it, or of its half, by as much;
    each sine and cosine rounds by at most eps, and each product by half
    an ulp of its size.  So the terms 2 cos(phi+gamma),
    2C sin((phi+gamma)/2) sin(phi), 4C cos((phi+gamma)/2) cos(phi),
    C^2 cos(2 phi) and C^2 err by at most 6, 10C, 20C, 2C^2 and C^2/2
    eps, and the four sums, each within S, by 2 S eps.  The total,
    (10 + 42C + 6.5C^2) eps, is below s = 64 eps (1+C)^2
    (``test_slope_slack_bounds_the_rounding``).  ``_replay`` rests on
    both bounds.
    """
    u = 1.0 + c
    return (_FORCE_SLACK * (u * u), 2.0 + c * (6.0 + 2.0 * c),
            2.0 + c * (9.0 + 2.0 * c))


def _cell_roots(a, c, g, extrema):
    """The ascending zeros of F on [0, pi] of one cell, a list, on Python
    floats; None for ``extrema`` finds them (``force_extrema``).

    The nodes are 0, minimum, maximum and pi, less a missing extremum
    (``regions._count_block`` needs no minimum, as A C^2 >= 0).  A
    node with |F| <= ROOT_VALUE_TOL is a root (the endpoint root at pi,
    the tangency at A*), and every segment whose ends change sign, neither
    end a root, is bisected (``_replay``) from its node forces.  F is
    monotone on each segment (``force_extrema`` has the proof), so a
    segment holds a root exactly when its ends change sign; other extrema
    than ``force_extrema``'s void that.  So a cell whose node values share
    one sign, each with |F| > ROOT_VALUE_TOL, has no root, and needs no
    test of its own; ``find_equilibria`` answers most such cells before it
    finds the extrema.  Of roots closer than _DEDUP_TOL the first in node,
    segment order counts (``_first_wins``).
    """
    minimum, maximum = force_extrema(c, g) if extrema is None else extrema
    nodes = [x for x in (0.0, minimum, maximum, PI) if x == x]
    f = [_force(x, a, c, g) for x in nodes]
    found = [x for x, v in zip(nodes, f) if abs(v) <= ROOT_VALUE_TOL]
    for j in range(len(nodes) - 1):
        f_lo, f_hi = f[j], f[j + 1]
        if (f_lo * f_hi < 0.0 and abs(f_lo) > ROOT_VALUE_TOL
                and abs(f_hi) > ROOT_VALUE_TOL):
            found.append(_replay(
                lambda x: _force(x, a, c, g),
                lambda x: (_force(x, a, c, g), _slope(x, c, g)),
                nodes[j], nodes[j + 1], f_lo, f_hi, c))
    return _first_wins(found)


def _first_wins(found):
    """The roots of ``found``, ascending, each closer than _DEDUP_TOL to
    one before it in ``found``'s order dropped."""
    row = []
    for x in found:
        if all(abs(r - x) > _DEDUP_TOL for r in row):
            row.append(x)
    return sorted(row)


def find_equilibria(params: DimensionlessParams,
                    critical: list[CriticalPoint] | None = None
                    ) -> list[Equilibrium]:
    """All zeros of the force curve on [0, pi], ascending, with stability.

    The roots of one cell from ``_cell_roots``, on Python floats, which
    builds no array and needs no NumPy.  ``critical``, as
    ``critical_points`` gives it, stands in for the extrema.  The solver
    finds every root only with the true extrema, so ``critical`` must list
    one point of each kind whose bracket ``_bracketed`` accepts, inside
    that bracket, and nothing else; else ValueError.  That check costs a
    few float ``_slope`` calls and no bisection.  The fields are Python
    floats whatever number type the params hold.

    A cell whose level L = A C^2 clears F(.; A=0)'s closed-form range by
    the margin 2s + ROOT_VALUE_TOL, with the slack s of ``_bounds``,
    returns [] before it finds the extrema.  On [0, pi],
    F(.; A=0) = -2 sin(phi+gamma) - 4C cos((phi+gamma)/2) sin(phi)
    + C^2 (phi - sin(phi) cos(phi)) lies in
    [-2 - 4C, 2 + 4C sin(gamma/2) + pi C^2].  The last term rises from 0
    to pi C^2.  The middle one is at most 0 for phi <= pi - gamma, where
    (phi+gamma)/2 <= pi/2 and both factors are >= 0; beyond, the cosine
    lies in [-sin(gamma/2), 0] and sin(phi) in [0, 1], so the term is at
    most 4C sin(gamma/2).  Proof that ``_cell_roots`` finds no root for
    such a cell, for L above the bound U (below is the mirror image):

    * Every node of ``_cell_roots`` lies in [0, pi], ``critical``'s
      included, so F(.; A=0) there is at most U.
    * _force computes -A C^2 as L is computed here, then adds its other
      terms, each within an ulp or two of its exact value: with A = 0 it
      rounds within s of the exact F (``_bounds``).  The level adds to the
      rounding of its four sums at most 2 eps (L + 4 (1+C)^2), so at a
      node _force < U - (1 - 2 eps) L + s + 8 eps (1+C)^2.  A level far
      past the bound adds only a few ulps of itself, far below |F|, which
      grows with it.
    * The computed U rounds by a few ulps of pi (1+C)^2, sin(gamma/2) by a
      few ulps of 4C, and the margin's sums by as little.  With
      8 eps (1+C)^2 and 2 eps (U + s + ROOT_VALUE_TOL), that stays below
      the second s = 64 eps (1+C)^2.

    So _force < -ROOT_VALUE_TOL at every node: no node is a root and no
    segment's ends change sign, so ``_cell_roots`` finds no root.  The
    proof rests neither on the extrema nor on the monotone-segment
    structure.
    The margin follows ROOT_VALUE_TOL: should that become force-scaled,
    so must the margin's last term.
    """
    # one float A for the test and the cell: a NumPy float32 times a float
    # stays float32, whose rounding would swamp the margin
    a = float(params.mass_ratio)
    c, g = float(params.capillary_ratio), float(params.contact_angle)
    extrema = None
    if critical is not None:
        # a NumPy scalar phi0, float32 say, would send the float kernels
        # down their array path
        phis = {cp.kind: float(cp.phi0) for cp in critical}
        want = {kind: bracket for kind, bracket
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
    s = _bounds(c)[0]
    level = a * c * c
    if (level > (2.0 + 4.0 * c * math.sin(g / 2.0) + PI * c * c + 2.0 * s
                 + ROOT_VALUE_TOL)
            or level < -2.0 - 4.0 * c - 2.0 * s - ROOT_VALUE_TOL):
        return []
    out = []
    for r in _cell_roots(a, c, g, extrema):
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
    _check_mass_free(capillary_ratio, contact_angle)
    phi0_star = _extremum(float(capillary_ratio), contact_angle,
                          _extremum_brackets(contact_angle)[1])
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


def _check_mass_free(capillary_ratio, contact_angle):
    """``DimensionlessParams``' checks at A = 0, its scale test named for C
    alone: ``critical_mass_ratio``'s and ``regions._tangency_samples``'."""
    scale = PI * capillary_ratio * capillary_ratio
    if 0.0 < capillary_ratio < math.inf and not math.isfinite(scale * scale):
        raise ValueError(f"capillary_ratio={capillary_ratio!r} gives a force "
                         f"scale pi C^2 = {scale:.3g} too large to square")
    DimensionlessParams(mass_ratio=0.0, capillary_ratio=capillary_ratio,
                        contact_angle=contact_angle, exploratory=True)


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
    _check_positive("capillary_ratio", c)
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
