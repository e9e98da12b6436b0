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

from .model import (DimensionlessParams, _force, _slope, center_height,
                    total_force)

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
    Floats stay floats.  Array elements run side by side, each masked by
    0/1 factors (exact on finite floats), so each equals its scalar run.
    """
    fa, fb = f(lo), f(hi)
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
        todo = todo ^ stop  # not todo & ~stop: ~True is -2 on Python bools
        if not (todo.any() if isinstance(todo, np.ndarray) else todo):
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


def critical_points(params: DimensionlessParams) -> list[CriticalPoint]:
    """Interior extrema of the force curve, ascending in phi0.

    The slope dF/dphi0 does not involve the mass ratio, so the extrema
    depend on (C, gamma) only.  Bracketing follows the regime structure:

    * gamma = pi/2: one minimum in (0, pi/2), one maximum in (pi/2, pi),
      mirror images about pi/2.
    * gamma > pi/2: a maximum in (pi/2, pi) always; a minimum in (0, pi/4)
      exactly when the slope at phi0 = 0 is negative.
    * gamma < pi/2: a minimum in (0, pi/2) always; a maximum in (3pi/4, pi)
      exactly when the slope at phi0 = pi is negative.

    A bracket whose endpoint slopes do not change sign is dropped.
    """
    c = params.capillary_ratio
    g = params.contact_angle

    def slope(x):
        return float(_slope(x, c, g))

    if g == PI / 2.0:
        brackets = [(0.0, PI / 2.0, ExtremumKind.MINIMUM),
                    (PI / 2.0, PI, ExtremumKind.MAXIMUM)]
    elif g > PI / 2.0:
        brackets = [(PI / 2.0, PI, ExtremumKind.MAXIMUM)]
        if slope(0.0) < 0.0:
            brackets.insert(0, (0.0, PI / 4.0, ExtremumKind.MINIMUM))
    else:
        brackets = [(0.0, PI / 2.0, ExtremumKind.MINIMUM)]
        if slope(PI) < 0.0:
            brackets.append((3.0 * PI / 4.0, PI, ExtremumKind.MAXIMUM))

    points = []
    for lo, hi, kind in brackets:
        if slope(lo) * slope(hi) >= 0.0:
            continue
        points.append(CriticalPoint(bisect(slope, lo, hi), kind))
    points.sort(key=lambda p: p.phi0)
    return points


def _add_root(roots: list[float], x: float) -> bool:
    """Append x unless a root within _DEDUP_TOL is already listed."""
    if any(abs(r - x) <= _DEDUP_TOL for r in roots):
        return False
    roots.append(x)
    return True


def solve(mass_ratios, capillary_ratio: float, contact_angle: float,
          critical: list[CriticalPoint] | None = None) -> list[list[float]]:
    """Ascending zeros of F on [0, pi], one list per mass ratio (a float is one).

    The mass ratio only shifts F, so all share the nodes 0, the critical
    points and pi.  A node with |F| <= ROOT_VALUE_TOL is a root (the endpoint
    root at pi, the tangency at A*); each segment whose ends change sign is
    bisected for all its mass ratios at once.  A dense sign scan backstops
    the segments: a root it finds away from them is added and reported with
    ModelInconsistencyWarning.
    """
    c, g = capillary_ratio, contact_angle
    if critical is None:
        critical = critical_points(
            DimensionlessParams(0.0, c, g, exploratory=True))
    a = np.atleast_1d(np.asarray(mass_ratios, dtype=float))
    nodes = np.array([0.0] + [cp.phi0 for cp in critical] + [PI])
    f_nodes = _force(nodes, a[:, None], c, g)
    on_node = np.abs(f_nodes) <= ROOT_VALUE_TOL
    bracket = ((f_nodes[:, :-1] * f_nodes[:, 1:] < 0.0)
               & ~on_node[:, :-1] & ~on_node[:, 1:])
    found = np.hstack([np.where(on_node, nodes, np.nan),
                       np.full(bracket.shape, np.nan)])
    for k in np.flatnonzero(bracket.any(axis=0)).tolist():
        idx = np.flatnonzero(bracket[:, k])
        # a lone bracket runs on floats: faster, and the same bits
        sub = a[idx] if idx.size > 1 else float(a[idx[0]])
        lo, hi = nodes[k:k + 2].tolist()
        found[idx, len(nodes) + k] = bisect(lambda x: _force(x, sub, c, g),
                                            lo, hi)

    roots = [[] for _ in a]
    rows = found.tolist()
    for i, k in np.argwhere(found == found).tolist():
        if not _add_root(roots[i], rows[i][k]):
            found[i, k] = np.nan

    # guard: every strict sign change on the dense grid needs a root nearby
    pad = PI / len(_SCAN_GRID)
    shifted = _force(_SCAN_GRID, 0.0, c, g)[:, None] - a * c * c
    jj, ii = np.nonzero(shifted[:-1] * shifted[1:] < 0.0)
    near = found[ii]
    covered = ((near >= _SCAN_GRID[jj, None] - pad)
               & (near <= _SCAN_GRID[jj + 1, None] + pad)).any(axis=1)
    for i, j in zip(ii[~covered].tolist(), jj[~covered].tolist()):
        lo, hi = float(_SCAN_GRID[j]), float(_SCAN_GRID[j + 1])
        if any(lo - pad <= r <= hi + pad for r in roots[i]):
            continue
        a_i = float(a[i])
        x = float(bisect(lambda x: _force(x, a_i, c, g), lo, hi))
        warnings.warn(
            f"dense scan found a root at phi0={x:.12g} outside the monotone-"
            f"segment structure (A={a_i!r}, C={c!r}, gamma={g!r}); the "
            "force curve shape assumption is violated here",
            ModelInconsistencyWarning)
        _add_root(roots[i], x)
    return [sorted(lane) for lane in roots]


def find_equilibria(params: DimensionlessParams,
                    critical: list[CriticalPoint] | None = None
                    ) -> list[Equilibrium]:
    """All zeros of the force curve on [0, pi], ascending, with stability.

    The one-mass-ratio call of ``solve``.
    """
    c, g = params.capillary_ratio, params.contact_angle
    out = []
    for r in solve(params.mass_ratio, c, g, critical)[0]:
        slope = float(_slope(r, c, g))
        out.append(Equilibrium(r, _classify(slope), slope,
                               float(center_height(r, params))))
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
    params = DimensionlessParams(mass_ratio=0.0, capillary_ratio=capillary_ratio,
                                 contact_angle=contact_angle, exploratory=True)
    maxima = [cp for cp in critical_points(params)
              if cp.kind is ExtremumKind.MAXIMUM and cp.phi0 > PI / 2.0]
    if not maxima:
        raise NoSecondCriticalPointError(
            f"no interior force maximum past pi/2 for contact_angle="
            f"{contact_angle!r}, capillary_ratio={capillary_ratio!r} "
            f"(threshold C = {second_extremum_threshold(contact_angle)!r})")
    phi0_star = maxima[-1].phi0
    a_star = float(total_force(phi0_star, params)) / capillary_ratio ** 2
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
