"""Self-intersection test for the two menisci of a floating configuration.

When the meniscus overhangs (the interface is not a graph over x) and the
cylinder sits high enough, the left and right interfaces can cross on the
centerline, which is not physically realizable.  Crossing is decided by the
horizontal reach of the right interface at the vertical-tangent inclination:
the configuration intersects itself exactly when the margin

    I(phi0, C) = C sin(phi0) - sqrt(2) - ln tan(pi/8)
                 + 2 sin((phi0+gamma)/2) + ln|tan((phi0+gamma-pi)/4)|

is <= 0, within the overhanging regimes

    psi0 in [-pi, -pi/2]  <=>  gamma in [0, pi/2],  phi0 in [0, pi/2 - gamma]
    psi0 in [ pi/2,  pi]  <=>  gamma in [pi/2, pi], phi0 in [3pi/2 - gamma, pi]

(the depressed mirror image of the raised case; one margin formula serves
both through the absolute value in the logarithm).  Outside these regimes
the interface is a graph near the vertical tangent and no crossing occurs.

Within each regime the margin is monotone in phi0: non-decreasing in the
psi-negative regime, non-increasing in the psi-positive one.  With
s = (phi0+gamma)/2, the logarithm's derivative is 1/(2 sin(s - pi/2))
= -1/(2 cos s), so

    dI/dphi0 = C cos(phi0) + cos(s) - 1/(2 cos s)
             = C cos(phi0) + cos(phi0+gamma) / (2 cos s).

psi-negative: phi0 <= pi/2 - gamma <= pi/2 and phi0 + gamma <= pi/2, so
cos(phi0) >= 0, cos(phi0+gamma) >= 0 and s <= pi/4, cos s > 0: dI >= 0.
psi-positive: phi0 >= 3pi/2 - gamma >= pi/2 and phi0 + gamma in
[3pi/2, 2pi], so cos(phi0) <= 0, cos(phi0+gamma) >= 0 and s in
[3pi/4, pi], cos s < 0: dI <= 0.  In both regimes |phi0 + gamma - pi| >=
pi/2, so the logarithm's argument stays in [tan(pi/8), 1]: its terms add
to at most C + 4 in size, and each evaluation rounds within a few ulps of
that.  ``region_map`` rests on both facts to read a margin's sign from
the ends of a root's bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .model import DimensionlessParams

PI = math.pi

_MARGIN_CONST = math.sqrt(2.0) + math.log(math.tan(PI / 8.0))


class FlatInterfaceError(Exception):
    """phi0 + gamma = pi: the interface is flat and can never self-intersect."""


class Regime(str, Enum):
    PSI_NEGATIVE = "psi_negative"
    PSI_POSITIVE = "psi_positive"
    NOT_APPLICABLE = "not_applicable"


@dataclass(frozen=True)
class ValidityReport:
    intersecting: bool
    regime: Regime
    margin: float | None


def intersection_margin(phi0: float, capillary_ratio: float,
                        contact_angle: float) -> float:
    """Signed clearance of the right meniscus from the centerline.

    Positive means the interfaces stay apart; <= 0 means they cross (when
    the overhang regime applies).  Raises FlatInterfaceError at
    phi0 + gamma = pi, where the logarithm diverges and no crossing is
    possible.
    """
    if not capillary_ratio > 0.0:
        raise ValueError(
            f"capillary_ratio must be positive, got {capillary_ratio!r}")
    if (phi0 + contact_angle - PI) / 4.0 == 0.0:
        raise FlatInterfaceError(
            f"flat interface at phi0={phi0!r}, contact_angle={contact_angle!r}")
    return _margin(phi0, capillary_ratio, contact_angle, math)


def _margin(phi0, c, g, xp):
    """The margin's formula, on floats (xp = math) or arrays (xp = np)."""
    return (c * xp.sin(phi0) - _MARGIN_CONST + 2.0 * xp.sin((phi0 + g) / 2.0)
            + xp.log(abs(xp.tan((phi0 + g - PI) / 4.0))))


def _overhang(phi0, contact_angle: float):
    """(psi-negative, psi-positive) regime membership of phi0, float or array.

    The two never hold together: both need gamma = pi/2, and then phi0 = 0
    and phi0 = pi respectively.  NaN belongs to neither.
    """
    g = contact_angle
    negative = (0.0 <= g <= PI / 2.0) & (0.0 <= phi0) & (phi0 <= PI / 2.0 - g)
    positive = ((PI / 2.0 <= g <= PI) & (3.0 * PI / 2.0 - g <= phi0)
                & (phi0 <= PI))
    return negative, positive


def validity(phi0: float, params: DimensionlessParams) -> ValidityReport:
    """Classify a configuration as physically realizable or self-intersecting.

    Classification rests on regime membership plus the sign of the margin,
    which encodes the decisive reach condition; the region structure is
    generated from it alone.
    """
    if not 0.0 <= phi0 <= PI:
        raise ValueError(f"phi0 must lie in [0, pi], got {phi0!r}")
    negative, positive = _overhang(phi0, params.contact_angle)
    if not (negative or positive):
        return ValidityReport(intersecting=False,
                              regime=Regime.NOT_APPLICABLE, margin=None)
    margin = intersection_margin(phi0, params.capillary_ratio,
                                 params.contact_angle)
    return ValidityReport(
        intersecting=margin <= 0.0,
        regime=Regime.PSI_NEGATIVE if negative else Regime.PSI_POSITIVE,
        margin=margin)
