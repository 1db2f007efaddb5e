"""Secular matrix and determinant factors of the rank-5 interaction.

The interaction acts through five orthonormal trigonometric modes (constant,
two cosines, two sines) with channel weights (lam, mu/2, mu/2, mu/2, mu/2).
A bound state at energy z outside the band is a zero of

    det( I + G J(z) ),    J_ij(z) = <m_i, (E_K - z)^{-1} m_j>.

At zero fiber the matrix splits into even and odd blocks and the determinant
factors into a main even part, a sub-even part and a squared odd part; the
three formulas live in :func:`factor_value` and the edge slope S- of the
main even one in :func:`slope_below`, both on floats or arrays.

At general fiber J is a closed form with no tolerance.  Write
E_K = 2g - R1 cos(p1 - phi1) - R2 cos(p2 - phi2) and rotate each angle by
its phase, x_i = p_i - phi_i.  The dispersion is even in each x_i, so the
rotated sine modes decouple by parity: J = R blockdiag(M3, s1, s2) R^T,
with R the rotation of each (cos, sin) mode pair by phi_i, M3 the even
block over (1, cos x1, cos x2) and s1, s2 the sine entries
(:class:`FiberGram`).  G is a scalar on each mode pair, so it commutes
with R and the solvers work on the blocks alone.  The inner angle
integrates in closed form, and the blocks need seven averages over the
outer angle x: of 1, cos x, cos^2 x and sin^2 x divided by
rho = sqrt(m (m + 2 R_in)), and of the inner moments t1, cos x t1 and t2,
where m = delta + 2 R_out sin^2(x/2) at distance delta below the band.

Orientation: the smaller amplitude is R_out, so the inner moments divide
only by the larger one; with the larger amplitude outside, their 1/R_in
terms would cancel to about (R_max/R_min)^2 ulp.

Per-fiber evaluator: a solve evaluates J at a few dozen distances of one
fiber, so :class:`FiberGram` takes what depends on (K, gamma) alone once,
on construction (the :func:`~latticebound.core.pair_amplitudes`, the
orientation and the trapezoid node row 2 R_out sin^2(x/2)), and its
:meth:`FiberGram.blocks` evaluates one distance with no repeated set-up.
:func:`secular_entries` builds one per call and reads its phases.

Regime map:

* delta >= R_out (R_out = 0 included): a fixed 32-node periodic trapezoid
  rule in x.  The integrand is analytic in a strip of half-width
  arccosh(1 + delta/R_out) >= arccosh 2, so the error is about
  exp(-32 arccosh 2) ~ 1e-18.
* delta < R_out: Carlson integrals.  With v = sin^2(x/2) and
  s = (1 + cos x)/(1 - cos x), q1 = 1 + 2 R_out/delta and
  q2 = 1 + 2 R_out/(delta + 2 R_in), the average of v^k / rho is
  int_0^inf (s + 1)^-k ds / sqrt(s (s + q1)(s + q2)), divided by
  pi sqrt(delta (delta + 2 R_in)): 2 R_F(0, q1, q2), (2/3) R_J(0, q1, q2, 1)
  and the double-pole integral of :func:`_double_pole` for k = 0, 1, 2.
  The inner moments enter through A = delta + R_in + 2 R_out v, whose terms
  do not cancel.  A q1 beyond CARLSON_Q1_MAX raises :class:`DomainError`,
  and so does a delta beyond TRAPEZOID_DELTA_MAX on the trapezoid side.

Only the side below the band is evaluated: the shift p -> p + (pi, pi)
reflects the band and flips the sign of the four trigonometric modes, which
gives the matrix above it.  :func:`secular_entries` takes the side and the
exact distance to its edge, never an energy, which near the edge would keep
few digits of that distance; :func:`secular_det` alone reads an energy z
and splits it into (side, distance) with
:func:`~latticebound.integrals.energy_side`.  References: DLMF section 19.29;
B. C. Carlson, Math. Comp. 49, 595 (1987) and 51, 267 (1988).
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np
from scipy.special import elliprd, elliprf, elliprj

from .core import ModelParams, TorusPoint, band_edges, pair_amplitudes
from .errors import DomainError
from .integrals import Side, energy_side

_SQRT2 = math.sqrt(2.0)


def interaction_weights(params: ModelParams) -> np.ndarray:
    """Channel weights G = (lam, mu/2, mu/2, mu/2, mu/2) of the five modes."""
    m = 0.5 * params.mu
    return np.array([params.lam, m, m, m, m])


# ---------------------------------------------------------------------------
# determinant factors at zero fiber


class FactorKind(Enum):
    """The determinant factor a root belongs to; GENERAL at nonzero fiber."""

    MAIN_EVEN = "main_even"
    SUB_EVEN = "sub_even"
    ODD = "odd"
    GENERAL = "general"


def factor_value(kind: FactorKind, moments, lam, mu):
    """One zero-fiber determinant factor from the ``moments`` (a, b, c, e, f)
    at couplings (lam, mu), floats or arrays alike.  The odd one is the
    unsquared 1 + mu*f."""
    a, b, c, e, f = moments
    if kind is FactorKind.MAIN_EVEN:
        return (1.0 + lam * a) * (1.0 + mu * (c + e)) - 2.0 * lam * mu * b * b
    if kind is FactorKind.SUB_EVEN:
        return 1.0 + mu * (c - e)
    if kind is FactorKind.ODD:
        return 1.0 + mu * f
    raise ValueError(f"{kind} is not a zero-fiber determinant factor")


def slope_below(lam, mu, g):
    """S- = 2 mu + lam + lam mu / g, floats or arrays alike: the main even
    factor at the lower edge is S- / (2 pi g) times -ln d plus a constant."""
    return 2.0 * mu + lam + lam * mu / g


# ---------------------------------------------------------------------------
# Gram matrix at general fiber

# The 32-node periodic trapezoid rule in the outer angle, folded onto [0, pi]
# by x -> -x: 17 nodes, the two ends at half weight, the weights divided by pi.
_X = np.arange(17) * (math.pi / 16.0)
_HALF_SIN2 = np.sin(0.5 * _X) ** 2
_W = np.full(17, 1.0 / 16.0)
_W[[0, -1]] = 1.0 / 32.0
_TRAPEZOID = np.array([_W, _W * np.cos(_X), _W * np.cos(_X) ** 2, _W * np.sin(_X) ** 2])


# beyond this distance m (m + 2 R_in), with R_in <= 1 + GAMMA_MAX, overflows
# near 1.3e154 and t = 1 / (rho (A + rho)) turns subnormal before that; the
# solvers' windows stop at 2^44 g, about 1.8e113
TRAPEZOID_DELTA_MAX = 1e150


def _trapezoid_averages(m: np.ndarray, r_in: float) -> tuple[float, ...]:
    """The seven outer-angle averages by the fixed periodic rule (delta >= r_out),
    from m = delta + 2 R_out sin^2(x/2) at the nodes (A - R_in, no cancellation)."""
    amag = m + r_in                               # A
    rho = np.sqrt(m * (m + 2.0 * r_in))           # sqrt(A^2 - R_in^2)
    inv = 1.0 / rho
    t = inv / (amag + rho)                        # t1 = R_in t, t2 = A t
    p0, p1, p2, ps = (_TRAPEZOID @ inv).tolist()
    t1_0, t1_1 = (_TRAPEZOID[:2] @ t).tolist()
    return p0, p1, p2, ps, r_in * t1_0, r_in * t1_1, float((_W * amag) @ t)


# Below F2_SERIES_SWITCH the closed form of F2 divides by eps and loses about
# 1/eps ulp; there F2 is summed as a series in eps instead, whose terms fall
# like eps^n: at the switch the 18th is below 1e-17 of the sum.
F2_SERIES_SWITCH = 0.1
_F2_BINOMIAL = np.cumprod(np.concatenate(([1.0], -(np.arange(17) + 0.5)
                                          / (np.arange(17) + 1.0)))).tolist()


def _double_pole(q1: float, eps: float, b0: float, b1: float) -> float:
    """F2 = int_0^inf ds / ((s + 1)^2 sqrt(s (s + q1)(s + 1 + eps))), q1 > 3.

    ``b0`` and ``b1`` are the k = 0 and k = 1 integrals of the module
    docstring.  For eps >= F2_SERIES_SWITCH: differentiating
    sqrt(s (s + q1)) / ((s + 1) sqrt(s + q2)) along s and integrating over
    (0, inf) gives F2 from b0, b1 and D = (2/3) R_D(0, q1, q2).  Below it:
    expand (s + 1 + eps)^(-1/2) in eps; the n-th term is
    binom(-1/2, n) eps^n L_(n+2), where L_k = int ds / ((s + 1)^k
    sqrt(s (s + q1)(s + 1))) starts from L_0 = 2 R_F(0, 1, q1) and
    L_1 = (2/3) R_D(0, q1, 1) and follows the recurrence that the
    derivative of sqrt(s (s + q1)(s + 1)) / (s + 1)^k gives.  Its other
    solution falls like (q1 - 1)^-k, so the recurrence is stable upward.
    """
    q2 = 1.0 + eps
    if eps >= F2_SERIES_SWITCH:
        d = (2.0 / 3.0) * float(elliprd(0.0, q1, q2))
        return ((b0 + (q1 - 2.0 + (1.0 - q1) / eps) * b1
                 + q2 * (q1 - q2) / eps * d) / (2.0 * (q1 - 1.0)))
    l_prev = 2.0 * float(elliprf(0.0, 1.0, q1))
    l_cur = (2.0 / 3.0) * float(elliprd(0.0, q1, 1.0))
    total, power = 0.0, 1.0
    for n, coef in enumerate(_F2_BINOMIAL):
        k = n + 2
        l_prev, l_cur = l_cur, (((3 - 2 * k) * l_prev + (2 - 2 * k) * (q1 - 2.0) * l_cur)
                                / ((2 * k - 1) * (1.0 - q1)))
        total += coef * power * l_cur
        power *= eps
    return total


# SciPy's elliprj(0, q1, q2, 1) is NaN from q1 = 7.4e156 (scipy 1.17.1); the
# solvers' mesh floor keeps q1 below about 4e110
CARLSON_Q1_MAX = 1e150


def _carlson_averages(delta: float, r_out: float, r_in: float) -> tuple[float, ...]:
    """The seven outer-angle averages from Carlson integrals (delta < r_out)."""
    wide = delta + 2.0 * r_in
    q1 = 1.0 + 2.0 * r_out / delta
    if not q1 <= CARLSON_Q1_MAX:
        raise DomainError(f"distance {delta} is too close to the band edge for the Gram "
                          f"matrix: q1 = 1 + 2 R_out/delta = {q1:.3g} > {CARLSON_Q1_MAX:g}")
    eps = 2.0 * r_out / wide                      # q2 - 1, exact
    b0 = 2.0 * float(elliprf(0.0, q1, 1.0 + eps))
    b1 = (2.0 / 3.0) * float(elliprj(0.0, q1, 1.0 + eps, 1.0))
    b2 = _double_pole(q1, eps, b0, b1)
    scale = 1.0 / (math.pi * math.sqrt(delta * wide))
    f0, f1, f2 = b0 * scale, b1 * scale, b2 * scale    # averages of v^k / rho
    a = delta + r_in                              # A = a + 2 r_out v
    return (f0, f0 - 2.0 * f1, f0 - 4.0 * f1 + 4.0 * f2, 4.0 * (f1 - f2),
            (a * f0 + 2.0 * r_out * f1 - 1.0) / r_in,
            (a * (f0 - 2.0 * f1) + 2.0 * r_out * (f1 - 2.0 * f2)) / r_in,
            (a * a * f0 + 4.0 * a * r_out * f1 + 4.0 * r_out * r_out * f2
             - (a + r_out)) / (r_in * r_in))


# the parity blocks of J: the 3x3 even block and the two sine entries
GramBlocks = tuple[np.ndarray, float, float]


class FiberGram:
    """Gram matrix J below the band at one fiber, as a function of the distance.

    Everything J takes from (K, gamma) alone is computed once, here: the
    amplitudes and phases of :func:`pair_amplitudes` (``r1``, ``r2``,
    ``phi1``, ``phi2``), the R_out/R_in orientation and the trapezoid node
    row 2 R_out sin^2(x/2).  :meth:`blocks` then evaluates J at each
    distance with no repeated set-up.
    """

    __slots__ = ("r1", "r2", "phi1", "phi2", "_first_outer", "_r_out", "_r_in", "_nodes")

    def __init__(self, K: TorusPoint, gamma: float) -> None:
        self.r1, self.r2, self.phi1, self.phi2 = pair_amplitudes(K, gamma)
        self._first_outer = self.r1 <= self.r2
        self._r_out, self._r_in = ((self.r1, self.r2) if self._first_outer
                                   else (self.r2, self.r1))
        self._nodes = 2.0 * self._r_out * _HALF_SIN2

    def blocks(self, delta: float) -> GramBlocks:
        """J at distance ``delta`` below the band, in the rotated frame.

        Returns its two parity blocks: the 3x3 even block over the rotated
        modes (1, cos x1, cos x2) and the two sine entries, of sin x1 and
        sin x2.  The sine modes couple to nothing else, so J = R
        blockdiag(even, s1, s2) R^T, with R the rotation of each (cos p_i,
        sin p_i) mode pair by phi_i.
        """
        r_out, r_in = self._r_out, self._r_in
        if delta >= r_out:
            if delta > TRAPEZOID_DELTA_MAX:
                raise DomainError(f"distance {delta} is too far from the band edge for the Gram "
                                  f"matrix: it exceeds {TRAPEZOID_DELTA_MAX:g}")
            p0, p1, p2, ps, t1_0, t1_1, t2 = _trapezoid_averages(delta + self._nodes, r_in)
        else:
            p0, p1, p2, ps, t1_0, t1_1, t2 = _carlson_averages(delta, r_out, r_in)
        # per angle: coupling to the constant mode, then the cos-cos and
        # sin-sin entries in the rotated angles
        outer = (_SQRT2 * p1, 2.0 * p2, 2.0 * ps)
        inner = (_SQRT2 * t1_0, 2.0 * t2, 2.0 * (p0 - t2))
        (e1, a1, s1), (e2, a2, s2) = (outer, inner) if self._first_outer else (inner, outer)
        x = 2.0 * t1_1                            # the cos x1 cos x2 entry
        return np.array([[p0, e1, e2], [e1, a1, x], [e2, x, a2]]), s1, s2


# above the band J = -P J_below P with P = diag(1, -1, -1, -1, -1), which
# commutes with R: the sign of each entry of blockdiag(even, s1, s2)
_ABOVE_SIGNS = -np.outer([1.0, -1.0, -1.0, -1.0, -1.0], [1.0, -1.0, -1.0, -1.0, -1.0])


def secular_entries(K: TorusPoint, gamma: float, side: Side, delta: float) -> np.ndarray:
    """Resolvent Gram matrix J of the five modes at fiber K, in closed form,
    at exact distance ``delta`` from the band edge on ``side``.

    J = R blockdiag(even, s1, s2) R^T from :meth:`FiberGram.blocks`.  Above
    the band the matrix is -P J P with J the matrix at the same distance
    below and P = diag(1, -1, -1, -1, -1).  The modes are ordered (1,
    cos p1, cos p2, sin p1, sin p2).
    """
    fiber = FiberGram(K, gamma)
    even, s1, s2 = fiber.blocks(delta)
    block = np.zeros((5, 5))
    block[:3, :3], block[3, 3], block[4, 4] = even, s1, s2
    if Side(side) is Side.ABOVE:
        block *= _ABOVE_SIGNS
    f1, f2 = fiber.phi1, fiber.phi2
    c1, n1, c2, n2 = math.cos(f1), math.sin(f1), math.cos(f2), math.sin(f2)
    rot = np.array([[1.0, 0.0, 0.0, 0.0, 0.0],
                    [0.0, c1, 0.0, -n1, 0.0],
                    [0.0, 0.0, c2, 0.0, -n2],
                    [0.0, n1, 0.0, c1, 0.0],
                    [0.0, 0.0, n2, 0.0, c2]])
    return rot @ block @ rot.T


def secular_det(z: float, K: TorusPoint, params: ModelParams) -> float:
    """Determinant of the secular matrix I + G J(z) at fiber K.

    J comes from :func:`secular_entries` at the distance from z to the band
    edges of :func:`~latticebound.core.band_edges`; a z that is not outside
    the closed band raises :class:`DomainError`.  The determinant comes from
    LAPACK's pivoted LU factorization.
    """
    band = band_edges(K, params)
    j = secular_entries(K, params.gamma, *energy_side(z, band.e_min, band.e_max))
    return float(np.linalg.det(np.eye(5) + interaction_weights(params)[:, None] * j))
