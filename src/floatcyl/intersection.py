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

No equilibrium self-intersects at gamma <= pi/2.  In a column of fixed C
the force is F = F0 - A C^2, with the mass-free force

    F0(phi) = C^2 w - 4 C cos(s) sin(phi) - 2 sin(phi + gamma),
    w = phi - sin(phi) cos(phi),  s = (phi + gamma)/2.

Let gamma in [0, pi/2], A > 0 and phi a zero of F in the psi-negative
regime.  phi = 0 is never one, as F0(0) = -2 sin(gamma) <= 0 < A C^2.  At
a zero phi in (0, pi/2 - gamma], F0(phi) = A C^2 > 0, and the terms
-4 C cos(s) sin(phi) and -2 sin(phi + gamma) are <= 0, so
C^2 w > 4 C cos(s) sin(phi), and

    C sin(phi) > 4 cos(s) sin(phi)^2 / w >= 4 (sqrt(2)/2) (2/pi),

which is 4 sqrt(2)/pi, as s <= pi/4, and by the lemma w <= (pi/2)
sin(phi)^2 on [0, pi/2]: h(phi) = sin(phi)^2 - (2/pi) w is 0 at 0 and at
pi/2, and h' = 2 sin(phi) (cos(phi) - (2/pi) sin(phi)) changes sign once
on (0, pi/2), from + to -, so h >= 0 there.  The margin is C sin(phi)
plus the C-free offset O(t), t = phi + gamma, and
O' = cos(t) / (2 cos(t/2)) >= 0 on [0, pi/2] (``regions._crossing_c``),
so O(t) >= O(0) = -k, with k = sqrt(2) + ln tan(pi/8) = 0.5328.  So the
margin exceeds 4 sqrt(2)/pi - k = 1.268.  Conversely a zero margin at phi
in (0, pi/2 - gamma] puts C sin(phi) = -O(t) <= k, so
C w / sin(phi) <= k pi/2 < 2 sqrt(2) <= 4 cos(s), and F0(phi) < 0: a
configuration on the margin's zero there has A < 0.
``regions._count_block`` carries the bound through rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .model import DimensionlessParams, _check_contact_angle, _check_positive

PI = math.pi

_MARGIN_CONST = math.sqrt(2.0) + math.log(math.tan(PI / 8.0))


class FlatInterfaceError(ValueError):
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
    possible, and ValueError for a contact angle outside [0, pi], a
    non-finite phi0 or a capillary ratio that is not positive and finite.
    """
    _check_contact_angle(contact_angle)
    _check_positive("capillary_ratio", capillary_ratio)
    if not math.isfinite(phi0):
        raise ValueError(f"phi0 must be finite, got {phi0!r}")
    if (phi0 + contact_angle - PI) / 4.0 == 0.0:
        raise FlatInterfaceError(
            f"flat interface at phi0={phi0!r}, contact_angle={contact_angle!r}")
    return _margin(phi0, capillary_ratio, contact_angle, math)


def _margin(phi0, c, g, xp):
    """The margin's formula, on floats (xp = math) or arrays (xp = np)."""
    return (c * xp.sin(phi0) - _MARGIN_CONST + 2.0 * xp.sin((phi0 + g) / 2.0)
            + xp.log(abs(xp.tan((phi0 + g - PI) / 4.0))))


def _overhang(phi0, contact_angle: float):
    """(psi-negative, psi-positive) regime membership of a float phi0.

    The two never hold together: both need gamma = pi/2, and then phi0 = 0
    and phi0 = pi respectively.
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
