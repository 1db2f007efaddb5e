"""Resolvent moments of the zero-fiber dispersion and their edge behavior.

Five scalar functions drive the whole bound-state analysis: the torus
averages of ``w(p) / (E0(p) - z)`` for the trigonometric weights

    a: 1      b: cos p1      c: cos^2 p1      e: cos p1 cos p2      f: sin^2 p1

where ``E0(p) = (1+gamma) * sum_i (1 - cos p_i)`` and z lies outside the
closed band ``[0, 4(1+gamma)]``.  They are square-lattice Green's
functions, closed forms in the complete elliptic integrals K(m), E(m) of
m = 4/eps^2 (eps = 2 + d/(1+gamma) at distance d below the band), summed
from power series in m for m < 0.1, where those forms cancel; both are
accurate to rounding at every finite distance.  Only the side below the
band is evaluated.  The shift p -> p + (pi, pi) maps E0 to 4(1+gamma) - E0,
so at the same distance above the band a, c, e and f change sign and b does
not.

Near an edge the moments behave like ``s * (-+ln|z-edge|) + offset`` with
s = 1/(2 pi g) (f has slope 0); :func:`predicted_asymptote` gives the exact
edge limits, which both the spectrum solvers and the region thresholds use.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import ellipe, ellipkm1

from .errors import DomainError

LN2 = math.log(2.0)
PI = math.pi


class Side(Enum):
    """Which side of the continuous band an energy lies on."""

    BELOW = "below"
    ABOVE = "above"


@dataclass(frozen=True)
class IntegralSet:
    """The five resolvent moments at a common energy."""

    a: float
    b: float
    c: float
    e: float
    f: float
    z: float

    def as_array(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c, self.e, self.f])


@dataclass(frozen=True)
class EdgeAsymptotics:
    """Edge model ``value = log_slope * (-+ln d) + offset`` at distance d.

    The log term is ``-ln d`` below the band and ``+ln d`` above, so a
    positive ``log_slope`` means divergence to +inf below and -inf above.
    """

    side: Side
    log_slope: float
    offset: float

    def value_at(self, delta: float) -> float:
        ln = math.log(delta)
        return self.log_slope * (-ln if self.side is Side.BELOW else ln) + self.offset


# ---------------------------------------------------------------------------
# the moments in closed form

# Below SERIES_SWITCH the elliptic b and e cancel like m and m^2.  From K(m) =
# (pi/2) sum k_j m^j, k_j = ((1/2)_j / j!)^2, the rows are the series of eps*a,
# b/m, eps*c, eps*e/m and eps*f with the cancellation done exactly: all terms
# are positive, and 18 of them reach 1e-18 at the switch.
SERIES_SWITCH = 0.1
_J = np.arange(18.0)
_KJ = np.cumprod(np.concatenate(([1.0], ((2 * _J + 1) / (2 * _J + 2)) ** 2)))
_SERIES = np.array([_KJ[:-1], _KJ[1:] / 2,
                    _KJ[:-1] * (2 * _J * (_J + 1) + 1) / (2 * (_J + 1) ** 2),
                    _KJ[1:] * (_J + 1) / (_J + 2),
                    _KJ[:-1] * (2 * _J + 1) / (2 * (_J + 1) ** 2)])


def _reduced_integrals(t: float) -> tuple[float, float, float, float, float]:
    """a, b, c, e, f at distance t below the band, in units of g = 1.

    a = G00, b = G10, c = (G00 + G20)/2, e = G11 and f = a - c, with the
    lattice Green's functions G00 = 2K/(pi eps), G10 = (eps G00 - 1)/2,
    G11 = 2((2 - m)K - 2E)/(pi eps m) and G20 = 2 eps G10 - G00 - 2 G11.
    """
    eps = 2.0 + t
    m = (2.0 / eps) ** 2
    if m < SERIES_SWITCH:
        a, b, c, e, f = (_SERIES @ m ** _J).tolist()
        return a / eps, b * m, c / eps, e * m / eps, f / eps
    k = float(ellipkm1((t / eps) * ((4.0 + t) / eps)))     # 1 - m, no cancellation
    g00 = 2.0 * k / (PI * eps)
    g10 = 0.5 * (eps * g00 - 1.0)
    g11 = 2.0 * ((2.0 - m) * k - 2.0 * float(ellipe(m))) / (PI * eps * m)
    g20 = 2.0 * eps * g10 - g00 - 2.0 * g11
    c = 0.5 * (g00 + g20)
    return g00, g10, c, g11, g00 - c


def _reduced_integrals_array(t: np.ndarray) -> np.ndarray:
    """:func:`_reduced_integrals` elementwise over a 1-d array of t.

    Returns the rows a, b, c, e, f.  The elliptic branch repeats the scalar
    arithmetic; the series branch is summed by Horner's rule over the same
    table, with no reduction across the array, so each column depends on
    its own t alone, whatever else the array holds.
    """
    eps = 2.0 + t
    m = (2.0 / eps) ** 2
    out = np.empty((5, t.size))
    ser = m < SERIES_SWITCH
    ms, es = m[ser], eps[ser]
    acc = np.zeros((5, ms.size))
    for coef in _SERIES.T[::-1]:
        acc = acc * ms + coef[:, None]
    out[:, ser] = acc[0] / es, acc[1] * ms, acc[2] / es, acc[3] * ms / es, acc[4] / es
    t, eps, m = t[~ser], eps[~ser], m[~ser]
    k = ellipkm1((t / eps) * ((4.0 + t) / eps))
    g00 = 2.0 * k / (PI * eps)
    g10 = 0.5 * (eps * g00 - 1.0)
    g11 = 2.0 * ((2.0 - m) * k - 2.0 * ellipe(m)) / (PI * eps * m)
    g20 = 2.0 * eps * g10 - g00 - 2.0 * g11
    c = 0.5 * (g00 + g20)
    out[:, ~ser] = g00, g10, c, g11, g00 - c
    return out


def watson_integrals_at(side: Side, delta: float, gamma: float) -> IntegralSet:
    """Five moments at exact distance ``delta`` from the band edge.

    Preferred over :func:`watson_integrals` near the edges: the distance is
    taken literally instead of being reconstructed from z by subtraction (a
    difference that matters once delta approaches float granularity of the
    edge location).  Only the side below the band is evaluated: the shift
    p -> p + (pi, pi) maps E0 to 4g - E0, so above the band a, c, e and f
    are the negated values below it at the same distance and b is unchanged.
    """
    g = 1.0 + gamma
    if side is not Side.BELOW:
        s = watson_integrals_at(Side.BELOW, delta, gamma)
        return IntegralSet(a=-s.a, b=s.b, c=-s.c, e=-s.e, f=-s.f,
                           z=4.0 * g + delta)
    if not (delta / g >= sys.float_info.min) or not math.isfinite(delta):
        raise DomainError(f"distance to the band edge must be at least "
                          f"{g * sys.float_info.min:.3g} (delta/g normal), got {delta}")
    a, b, c, e, f = (v / g for v in _reduced_integrals(delta / g))
    return IntegralSet(a=a, b=b, c=c, e=e, f=f, z=-delta)


def energy_side(z: float, lo: float, hi: float) -> tuple[Side, float]:
    """The side of the closed band [lo, hi] that an energy z lies on, and its
    distance from that edge; a z inside the band raises DomainError."""
    if z < lo:
        return Side.BELOW, lo - z
    if z > hi:
        return Side.ABOVE, z - hi
    raise DomainError(f"z = {z} lies inside the closed band [{lo}, {hi}]")


def watson_integrals(z: float, gamma: float) -> IntegralSet:
    """Five moments at energy ``z`` outside the closed band [0, 4(1+gamma)].

    Raises DomainError for z inside the closed band (endpoints included).
    """
    return watson_integrals_at(*energy_side(z, 0, 4.0 * (1.0 + gamma)), gamma)


def watson_integrals_grid(z: float, gamma: float) -> IntegralSet:
    """Independent cross-check: plain 2D periodic-trapezoid moments on a
    512 x 512 grid.

    Spectrally accurate only when z is well separated from the band (use
    |z - edge| >= 0.05 or so); intended for validating the closed forms, not
    for production use near the edges.
    """
    g, n = 1.0 + gamma, 512
    energy_side(z, 0, 4.0 * g)   # a z inside the closed band raises DomainError
    q = -PI + 2.0 * PI * np.arange(n) / n
    p1, p2 = np.meshgrid(q, q, indexing="ij")
    den = g * ((1.0 - np.cos(p1)) + (1.0 - np.cos(p2))) - z
    inv = 1.0 / den
    c1 = np.cos(p1)
    return IntegralSet(a=float(inv.mean()), b=float((c1 * inv).mean()),
                       c=float((c1 * c1 * inv).mean()),
                       e=float((c1 * np.cos(p2) * inv).mean()),
                       f=float(((1.0 - c1 * c1) * inv).mean()), z=z)


# ---------------------------------------------------------------------------
# edge constants


def predicted_asymptote(which: str, side: Side, gamma: float) -> EdgeAsymptotics:
    """Edge model of one moment: its exact edge limit.

    Below the band every moment but f diverges with log slope
    s = 1/(2 pi g); the offsets are a = (4 ln 2 + ln g) s, b = a - 1/(2g),
    c, e = b +- (4 - pi)/(2 pi g) and f = (pi - 2)/(pi g), which has slope 0.  The models above the band
    follow from the mirror identity of :func:`watson_integrals_at`: a, c, e
    and f keep their slope and negate their offset, b negates its slope and
    keeps its offset.
    """
    g = 1.0 + gamma
    s = 1.0 / (2.0 * PI * g)
    a0 = (4.0 * LN2 + math.log(g)) * s
    b0 = a0 - 0.5 / g
    half_gap = (4.0 - PI) / (2.0 * PI * g)
    below = {"a": (s, a0), "b": (s, b0), "c": (s, b0 + half_gap),
             "e": (s, b0 - half_gap), "f": (0.0, (PI - 2.0) / (PI * g))}
    slope, off = below[which]
    if side is Side.ABOVE:
        parity = 1.0 if which == "b" else -1.0
        slope, off = -parity * slope, parity * off
    return EdgeAsymptotics(side=side, log_slope=slope, offset=off)

