"""Secular matrix and determinant factors of the rank-5 interaction.

The interaction acts through five orthonormal trigonometric modes (constant,
two cosines, two sines) with channel weights (lam, mu/2, mu/2, mu/2, mu/2).
A bound state at energy z outside the band is a zero of

    det( I + G J(z) ),    J_ij(z) = <m_i, (E_K - z)^{-1} m_j>.

At zero fiber the matrix splits into even and odd blocks and the determinant
factors into a main even part, a sub-even part and a squared odd part; the
three formulas live in :func:`factor_value`.  At general fiber the entries
reduce to 1D integrals after rotating each angle by the dispersion phase;
the inner angle is integrated in closed form.  The 15 upper-triangle entries
are evaluated together: a (15, 6) coefficient table, one row per mode pair
(i, j) with i <= j in row-major order, turns the three closed-form inner
integrals into a (15, N) array of integrands over the N outer-angle nodes,
and each row is reduced by its own dot product with the quadrature weights.
Only the side below the band is integrated: the shift p -> p + (pi, pi)
reflects the band and flips the sign of the four trigonometric modes, which
gives the matrix above it.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .core import ModelParams, TorusPoint, edges_closed, pair_amplitudes
from .errors import DomainError, ToleranceError
from .integrals import Side, geometric_panels, panel_nodes, watson_integrals

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


def factor_value(kind: FactorKind, s, params: ModelParams) -> float:
    """One zero-fiber determinant factor from moments ``s`` (any object with
    fields a, b, c, e, f).  The odd one is the unsquared 1 + mu*f."""
    if kind is FactorKind.MAIN_EVEN:
        return ((1.0 + params.lam * s.a) * (1.0 + params.mu * (s.c + s.e))
                - 2.0 * params.lam * params.mu * s.b * s.b)
    if kind is FactorKind.SUB_EVEN:
        return 1.0 + params.mu * (s.c - s.e)
    if kind is FactorKind.ODD:
        return 1.0 + params.mu * s.f
    raise ValueError(f"{kind} is not a zero-fiber determinant factor")


def slope_below(params: ModelParams) -> float:
    """Log-slope coefficient of the main even factor at the lower edge."""
    return 2.0 * params.mu + params.lam + params.lam * params.mu / params.g


# ---------------------------------------------------------------------------
# secular matrix at general fiber


_UPPER = np.triu_indices(5)


def _pair_coefficients(c1: float, s1: float, c2: float, s2: float) -> np.ndarray:
    """Reduction table: coefficients (x0, x1, x2, y0, y1, z0) per mode pair.

    Row k belongs to the k-th upper-triangle pair (i, j) in ``_UPPER`` order
    (00, 01, ..., 04, 11, ..., 44).  The pair's product m_i*m_j integrated
    over the inner angle expands into
    (x0 + x1*cq + x2*cq^2) * T0 + (y0 + y1*cq) * T1 + z0 * T2 with
    cq = cos of the rotated outer angle.
    """
    r2 = _SQRT2
    return np.array([
        (1, 0, 0, 0, 0, 0),
        (0, r2 * c1, 0, 0, 0, 0),
        (0, 0, 0, r2 * c2, 0, 0),
        (0, r2 * s1, 0, 0, 0, 0),
        (0, 0, 0, r2 * s2, 0, 0),
        (2 * s1 * s1, 0, 2 * (c1 * c1 - s1 * s1), 0, 0, 0),
        (0, 0, 0, 0, 2 * c1 * c2, 0),
        (-2 * c1 * s1, 0, 4 * c1 * s1, 0, 0, 0),
        (0, 0, 0, 0, 2 * c1 * s2, 0),
        (2 * s2 * s2, 0, 0, 0, 0, 2 * (c2 * c2 - s2 * s2)),
        (0, 0, 0, 0, 2 * c2 * s1, 0),
        (-2 * c2 * s2, 0, 0, 0, 0, 4 * c2 * s2),
        (2 * c1 * c1, 0, 2 * (s1 * s1 - c1 * c1), 0, 0, 0),
        (0, 0, 0, 0, 2 * s1 * s2, 0),
        (2 * c2 * c2, 0, 0, 0, 0, 2 * (s2 * s2 - c2 * c2)),
    ], dtype=float)


def _entries_from_nodes(x: np.ndarray, w: np.ndarray, delta: float, r1: float,
                        r2: float, tab: np.ndarray) -> np.ndarray:
    """Evaluate all 15 reduced entries below the band on one node set.

    The outer angle is folded so the near-edge layer sits at x = 0.  The
    integrands form one (15, N) array, a row per upper-triangle pair of
    ``tab``; each row is reduced by its own dot product with the weights,
    which keeps every entry's rounding that of a single-pair evaluation.
    """
    m = delta + 2.0 * r1 * np.sin(0.5 * x) ** 2    # |A| - R2, stable
    amag = m + r2                                   # |A|
    root = np.sqrt(m * (m + 2.0 * r2))              # sqrt(A^2 - R2^2)
    denom = root * (amag + root)
    t1 = r2 / denom
    t2 = amag / denom
    ts = 1.0 / (amag + root)                        # T0 - T2, stable
    cq = np.cos(x)                                  # rotated cos of outer angle
    x0, x1c, x2c, y0, y1c, z0 = tab.T[:, :, None]   # six (15, 1) columns
    p = x0 + x1c * cq + x2c * cq * cq
    q = y0 + y1c * cq
    rows = (p + z0) * t2 + p * ts + q * t1
    vals = np.array([w @ row for row in rows]) / math.pi
    out = np.empty((5, 5))
    out[_UPPER] = vals
    out[_UPPER[::-1]] = vals                        # the lower triangle
    return out


# The shift p -> p + (pi, pi) maps E_K to e_min + e_max - E_K and flips the
# sign of the four trigonometric modes, so above the band J = -P J_below P.
_MIRROR = np.array([1.0, -1.0, -1.0, -1.0, -1.0])


def secular_entries(z: float, K: TorusPoint, params: ModelParams,
                    rel_tol: float = 1e-10, *, side: Side | None = None,
                    delta: float | None = None) -> tuple[np.ndarray, float]:
    """Resolvent Gram matrix J(z) of the five modes at fiber K.

    Either pass z directly, or (side, delta) for an exact distance to the
    band edge.  Only the side below the band is integrated; above it the
    matrix is -P J P with J the matrix at the same distance below and
    P = diag(1, -1, -1, -1, -1).  Returns (J, est_error).
    """
    r1, r2, f1, f2 = pair_amplitudes(K, params.gamma)
    if delta is None:
        lo, hi = edges_closed(K, params)
        if z < lo:
            side, delta = Side.BELOW, lo - z
        elif z > hi:
            side, delta = Side.ABOVE, z - hi
        else:
            raise DomainError(f"z = {z} lies inside the closed band [{lo}, {hi}]")
    side = Side(side)
    # Order the two angles so the outer one carries the larger amplitude;
    # swapping angles permutes modes (1<->2, 3<->4).
    perm = None
    if r2 > r1:
        r1, r2, f1, f2 = r2, r1, f2, f1
        perm = [0, 2, 1, 4, 3]
    tab = _pair_coefficients(math.cos(f1), math.sin(f1), math.cos(f2), math.sin(f2))
    layer = math.sqrt(2.0 * delta / r1) if r1 > delta else math.pi
    for level in range(3):
        bp = geometric_panels(math.pi, min(layer, math.pi) / 4.0 ** level)
        x1, w1 = panel_nodes(bp, 16 << level)
        x2, w2 = panel_nodes(bp, 32 << level)
        j1 = _entries_from_nodes(x1, w1, delta, r1, r2, tab)
        j2 = _entries_from_nodes(x2, w2, delta, r1, r2, tab)
        err = float(np.max(np.abs(j1 - j2)))
        scale = float(np.max(np.abs(j2)))
        if err <= rel_tol * max(scale, 1e-300):
            if perm is not None:
                j2 = j2[np.ix_(perm, perm)]
            if side is Side.ABOVE:
                j2 = -_MIRROR[:, None] * j2 * _MIRROR
            return j2, err
    raise ToleranceError(
        f"secular entries at K={K.as_tuple()}, distance {delta:.3e}: "
        f"error estimate {err:.3e} exceeds requested tolerance")


def secular_det(z: float, K: TorusPoint, params: ModelParams,
                rel_tol: float = 1e-10) -> float:
    """Determinant of the secular matrix I + G J(z) at fiber K.

    Zero fiber takes the fast path through the five scalar moments; the
    determinant comes from LAPACK's pivoted LU factorization.
    """
    if K.p1 == 0.0 and K.p2 == 0.0:
        s = watson_integrals(z, params.gamma)
        b2 = _SQRT2 * s.b
        j = np.array([
            [s.a, b2, b2, 0.0, 0.0],
            [b2, 2 * s.c, 2 * s.e, 0.0, 0.0],
            [b2, 2 * s.e, 2 * s.c, 0.0, 0.0],
            [0.0, 0.0, 0.0, 2 * s.f, 0.0],
            [0.0, 0.0, 0.0, 0.0, 2 * s.f],
        ])
    else:
        j, _ = secular_entries(z, K, params, rel_tol)
    return float(np.linalg.det(np.eye(5) + interaction_weights(params)[:, None] * j))
