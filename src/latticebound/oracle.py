"""Independent discrete oracle: the model on a finite momentum grid.

Replacing the torus by an N x N momentum grid turns the fiber operator into
an N^2 x N^2 symmetric matrix: a diagonal of dispersion samples plus five
rank-one interaction channels.  Its spectrum is computable without any of
the analytic machinery, which makes it the referee for the continuum solver:
counts converge immediately (the classification is stable) and bound-state
positions converge spectrally once they sit a finite distance from the band.

The grid problem separates into its two axes.  The dispersion is a sum
e1(p1) + e2(p2) with e_i(q) = (1 - cos q) + gamma (1 - cos(K_i - q)), and
each of the five modes is a product of one axis-1 and one axis-2 function
from {1, sqrt2 cos, sqrt2 sin}.  A pair of modes therefore multiplies to
one of six axis products on each axis, and every entry of the 5x5 secular
matrix is

    J_ij(d) = N^-2 sum_a A_ij(a) (R(d) B)[a, c(i, j)],
    R(d) = 1 / (de1[:, None] + (de2[None, :] + d)),

with A_ij the axis-1 product of the pair and c(i, j) the column of the
(N, 6) axis-2 table B it uses: one N x N resolvent and one thin matrix
product per distance d = e_min - z below the grid band.  Each axis's
dispersion is taken relative to its grid minimum, de_i = e_i - min e_i
(exact near it, by Sterbenz), so d keeps full precision at the 1e-11
floor, where z itself would keep about four digits.  For even N the shift
p -> p + (pi, pi) maps the grid onto itself, reflects the band and flips
the sign of the four trigonometric modes, so the matrix at distance d above
the band is -P J(d) P with P = diag(1, -1, -1, -1, -1).
The jump counter therefore evaluates below the band only, and the states
above it at (lam, mu) are the states below it at (-lam, -mu).  Both the
jump counter and the dense check hand their distances from the grid band
to :func:`~latticebound.spectrum._report`, which merges and places them by
the rule of the continuum roots: roots within MERGE_TOL = 1e-9 of each
other are one state, the dense check's one eigenvalue each.

Three entry points:

* :func:`oracle_counts` - bound states via the 5x5 discrete secular matrix
  (cheap; any even N >= 16),
* :func:`dense_validate` - brute-force dense diagonalization (small N),
* :func:`minimax_values` - the five extreme eigenvalues on each side,
  clamped to the discrete band edge when fewer bound states exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Band, ModelParams, TorusPoint
from .determinants import interaction_weights
from .errors import BudgetExceeded
from .spectrum import (FactorKind, Sector, SpectrumReport, _delta_mesh_size, _report, _Root,
                       _search_window, _threshold_count, count_jump_scan)

TWO_PI = 2.0 * math.pi
_SQRT2 = math.sqrt(2.0)
GRID_FLOOR = 1e-11   # smallest distance the oracle evaluates
MESH_LIMIT = 20000   # most mesh distances one side of an oracle call evaluates

# mode i is axis1[_AXIS1[i]] * axis2[_AXIS2[i]] over the axis functions
# (1, sqrt2 cos, sqrt2 sin); _PRODUCT[s, t] numbers the six unordered
# products of two axis functions
_AXIS1 = np.array([0, 1, 0, 2, 0])
_AXIS2 = np.array([0, 0, 1, 0, 2])
_PRODUCT = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])
_PAIR1 = _PRODUCT[_AXIS1[:, None], _AXIS1[None, :]]     # (5, 5) -> row of A
_PAIR2 = _PRODUCT[_AXIS2[:, None], _AXIS2[None, :]]     # (5, 5) -> column of B


def _axis_functions(q: np.ndarray) -> np.ndarray:
    return np.stack([np.ones_like(q), _SQRT2 * np.cos(q), _SQRT2 * np.sin(q)])


@dataclass(frozen=True)
class GridModel:
    """Momentum-grid discretization of one fiber operator, axis by axis."""

    K: TorusPoint
    params: ModelParams
    n: int
    q: np.ndarray               # grid coordinates of either axis (n,)
    e1: np.ndarray              # axis-1 dispersion samples (n,)
    e2: np.ndarray              # axis-2 dispersion samples (n,)
    de1: np.ndarray             # e1 - min e1 (n,)
    de2: np.ndarray             # e2 - min e2 (n,)
    A: np.ndarray               # axis-1 pair products over n (6, n)
    B: np.ndarray               # axis-2 pair products over n (n, 6)

    @classmethod
    def build(cls, K: TorusPoint, params: ModelParams, n: int) -> "GridModel":
        if n < 16:
            raise ValueError(f"grid size must be at least 16, got {n}")
        if n % 2:
            raise ValueError(f"grid size must be even (the band mirror "
                             f"p -> p + (pi, pi) needs it), got {n}")
        q = -np.pi + TWO_PI * np.arange(n) / n
        e1 = (1.0 - np.cos(q)) + params.gamma * (1.0 - np.cos(K.p1 - q))
        e2 = (1.0 - np.cos(q)) + params.gamma * (1.0 - np.cos(K.p2 - q))
        axis = _axis_functions(q)
        s, t = np.triu_indices(3)
        prod = axis[s] * axis[t] / n            # _PRODUCT order
        # both axes run over the same q, so B is A transposed
        return cls(K=K, params=params, n=n, q=q, e1=e1, e2=e2,
                   de1=e1 - e1.min(), de2=e2 - e2.min(),
                   A=prod, B=np.ascontiguousarray(prod.T))

    @property
    def diag(self) -> np.ndarray:
        """Dispersion samples, flat (n*n,) in row-major (p1, p2) order."""
        return (self.e1[:, None] + self.e2[None, :]).ravel()

    @property
    def modes(self) -> np.ndarray:
        """Quadrature-weighted mode samples (5, n*n)."""
        axis = _axis_functions(self.q)
        return (axis[_AXIS1][:, :, None] * axis[_AXIS2][:, None, :]
                ).reshape(5, -1) / self.n

    @property
    def band(self) -> Band:
        i1, i2 = np.argmin(self.e1), np.argmin(self.e2)
        j1, j2 = np.argmax(self.e1), np.argmax(self.e2)
        return Band(e_min=float(self.e1[i1] + self.e2[i2]),
                    e_max=float(self.e1[j1] + self.e2[j2]),
                    argmin=TorusPoint(self.q[i1], self.q[i2]),
                    argmax=TorusPoint(self.q[j1], self.q[j2]))

    def secular(self, d: float) -> np.ndarray:
        """Discrete resolvent Gram matrix of the five channels at distance d
        below the grid band (energy e_min - d)."""
        r = self.de1[:, None] + (self.de2[None, :] + d)
        np.divide(1.0, r, out=r)        # in place: no second n x n array
        t = self.A @ (r @ self.B)
        return t[_PAIR1, _PAIR2]

    def dense_matrix(self) -> np.ndarray:
        h = np.diag(self.diag)
        for g, u in zip(interaction_weights(self.params), self.modes):
            if g != 0.0:
                h += g * np.outer(u, u)
        return h


def _roots(found: list[tuple[float, int]]) -> list[_Root]:
    return [_Root(d, FactorKind.GENERAL, Sector.MIXED, m) for d, m in found]


def oracle_counts(K: TorusPoint, params: ModelParams, n: int = 256) -> SpectrumReport:
    """Bound states of the grid model through its 5x5 secular matrix.

    Uses the same curve-counting scheme as the continuum solver but against
    the discrete band edges; discrete level repulsion keeps all roots at
    power-law distances from the edge, so no asymptotic pending logic is
    needed (the mesh floor of 1e-11 resolves everything).  A window whose
    mesh would exceed MESH_LIMIT distances raises :class:`BudgetExceeded`
    up front.  Both sides count below the band, the side above at (-lam,
    -mu) through the grid mirror, and share one memo of Gram matrices per
    call, keyed by the distance d that :meth:`GridModel.secular` takes.
    """
    window = _search_window(params.lam, params.mu)
    if _delta_mesh_size(window, GRID_FLOOR) > MESH_LIMIT:
        raise BudgetExceeded(f"grid oracle: the window {window:.6g} needs a mesh of "
                             f"more than {MESH_LIMIT} distances per side")
    model = GridModel.build(K, params, n)
    band = model.band
    gmat = np.diag(interaction_weights(params))
    if params.lam == 0.0 and params.mu == 0.0:
        return _report(K, params, band, [], [])
    jmemo: dict[float, np.ndarray] = {}

    def jmat(d: float) -> np.ndarray:
        if d not in jmemo:
            jmemo[d] = model.secular(d)
        return jmemo[d]

    below, above = (_roots(count_jump_scan(lambda d, g=g: _threshold_count(jmat(d), g)[0],
                                           window, GRID_FLOOR, 1e-12 * (1.0 + abs(edge))))
                    for g, edge in ((gmat, band.e_min), (-gmat, band.e_max)))
    return _report(K, params, band, below, above)


def dense_validate(K: TorusPoint, params: ModelParams, n: int = 32) -> SpectrumReport:
    """Brute-force check: diagonalize the full grid matrix.

    Limited to n <= 48 (the matrix is n^2 x n^2).  Eigenvalues outside the
    discrete band by a relative margin are the bound states, one root each;
    :func:`_report` merges them into states.
    """
    if n > 48:
        raise ValueError(f"dense validation is limited to n <= 48, got {n}")
    model = GridModel.build(K, params, n)
    band = model.band
    ev = np.linalg.eigvalsh(model.dense_matrix())
    below = ev[ev < band.e_min - 1e-10 * (1.0 + abs(band.e_min))].tolist()
    above = ev[ev > band.e_max + 1e-10 * (1.0 + abs(band.e_max))].tolist()
    return _report(K, params, band, _roots([(band.e_min - v, 1) for v in below]),
                   _roots([(v - band.e_max, 1) for v in above]))


def minimax_values(K: TorusPoint, params: ModelParams,
                   n: int = 128) -> tuple[np.ndarray, np.ndarray]:
    """Ordered extreme eigenvalues of the grid model, band-clamped.

    Returns (lowest five values ascending, highest five values descending):
    the interaction has rank five, so no side holds more bound states.  When
    fewer bound states exist on a side, the remaining entries equal the
    discrete band edge - the variational characterization of the k-th
    extreme eigenvalue saturates there.
    """
    count = 5
    rep = oracle_counts(K, params, n=n)
    lo = [ev.z for ev in rep.below for _ in range(ev.multiplicity)]
    hi = [ev.z for ev in rep.above for _ in range(ev.multiplicity)][::-1]
    lo = (lo + [rep.band.e_min] * count)[:count]
    hi = (hi + [rep.band.e_max] * count)[:count]
    return np.array(lo), np.array(hi)
