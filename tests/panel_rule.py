"""The adaptive panel quadrature that the closed forms replaced, as a reference.

Geometric Gauss-Legendre panels that halve toward the singular end of
[0, pi].  ``quadrature_moments`` in ``conftest.py`` runs them on the five
zero-fiber moments; :func:`panel_gram` runs them on the general-fiber Gram
matrix with the numerics of the former ``determinants.secular_entries``:
the larger amplitude on the outer angle, a (15, 6) table of mode-pair
coefficients, and refinement until two node counts agree to ``rel_tol``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from latticebound.core import ModelParams, TorusPoint, pair_amplitudes
from latticebound.integrals import Side

_PANEL_HARD_FLOOR = 1e-280
_SQRT2 = math.sqrt(2.0)
_UPPER = np.triu_indices(5)
_MIRROR = np.array([1.0, -1.0, -1.0, -1.0, -1.0])


@lru_cache(maxsize=None)
def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def geometric_panels(length: float, scale: float) -> np.ndarray:
    """Breakpoints on [0, length], halving toward the singular end at 0.

    ``scale`` is the width of the boundary layer; panels stop shrinking once
    they resolve it (about scale/8), or at ``_PANEL_HARD_FLOOR``.
    """
    floor = max(min(scale / 8.0, length / 16.0), _PANEL_HARD_FLOOR,
                length * 2.0 ** -60)
    k = max(4, int(math.ceil(math.log2(length / floor))))
    bp = length * 2.0 ** (-np.arange(k + 1, dtype=float))
    return np.concatenate(([0.0], bp[::-1]))


def panel_nodes(breakpoints: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights for every panel, flattened."""
    x, w = _gl_nodes(n)
    lo = breakpoints[:-1][:, None]
    hi = breakpoints[1:][:, None]
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (hi + lo) + half * x[None, :]).ravel()
    weights = (half * w[None, :]).ravel()
    return nodes, weights


def pair_coefficients(c1: float, s1: float, c2: float, s2: float) -> np.ndarray:
    """Coefficients (x0, x1, x2, y0, y1, z0) per upper-triangle mode pair.

    The pair's product integrated over the inner angle expands into
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


def entries_from_nodes(x: np.ndarray, w: np.ndarray, delta: float, r1: float,
                       r2: float, tab: np.ndarray) -> np.ndarray:
    """All 15 reduced entries below the band on one node set, outer angle x."""
    m = delta + 2.0 * r1 * np.sin(0.5 * x) ** 2    # |A| - R2, stable
    amag = m + r2                                   # |A|
    root = np.sqrt(m * (m + 2.0 * r2))              # sqrt(A^2 - R2^2)
    denom = root * (amag + root)
    t1 = r2 / denom
    t2 = amag / denom
    ts = 1.0 / (amag + root)                        # T0 - T2, stable
    cq = np.cos(x)
    x0, x1c, x2c, y0, y1c, z0 = tab.T[:, :, None]
    p = x0 + x1c * cq + x2c * cq * cq
    q = y0 + y1c * cq
    rows = (p + z0) * t2 + p * ts + q * t1
    vals = np.array([w @ row for row in rows]) / math.pi
    out = np.empty((5, 5))
    out[_UPPER] = vals
    out[_UPPER[::-1]] = vals
    return out


def panel_gram(K: TorusPoint, params: ModelParams, side: Side, delta: float,
               rel_tol: float = 1e-13) -> np.ndarray:
    """The Gram matrix J at distance ``delta`` from the band by panel quadrature.

    Raises AssertionError when three refinement levels do not reach
    ``rel_tol`` (relative to the largest entry).
    """
    r1, r2, f1, f2 = pair_amplitudes(K, params.gamma)
    perm = None
    if r2 > r1:
        r1, r2, f1, f2 = r2, r1, f2, f1
        perm = [0, 2, 1, 4, 3]
    tab = pair_coefficients(math.cos(f1), math.sin(f1), math.cos(f2), math.sin(f2))
    layer = math.sqrt(2.0 * delta / r1) if r1 > delta else math.pi
    for level in range(3):
        bp = geometric_panels(math.pi, min(layer, math.pi) / 4.0 ** level)
        j1 = entries_from_nodes(*panel_nodes(bp, 16 << level), delta, r1, r2, tab)
        j2 = entries_from_nodes(*panel_nodes(bp, 32 << level), delta, r1, r2, tab)
        if np.max(np.abs(j1 - j2)) <= rel_tol * np.max(np.abs(j2)):
            if perm is not None:
                j2 = j2[np.ix_(perm, perm)]
            if side is Side.ABOVE:
                j2 = -_MIRROR[:, None] * j2 * _MIRROR
            return j2
    raise AssertionError(f"panel rule misses rel_tol {rel_tol} at K={K.as_tuple()}, "
                         f"distance {delta}")
