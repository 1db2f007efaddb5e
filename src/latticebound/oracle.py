"""Independent discrete oracle: the model on a finite momentum grid.

Replacing the torus by an N x N momentum grid turns the fiber operator into
an N^2 x N^2 symmetric matrix: a diagonal of dispersion samples plus five
rank-one interaction channels.  Its spectrum is computable without any of
the analytic machinery, which makes it the referee for the continuum solver:
counts converge immediately (the classification is stable) and bound-state
positions converge spectrally once they sit a finite distance from the band.

Three entry points:

* :func:`oracle_counts` - bound states via the 5x5 discrete secular matrix
  (cheap; any N),
* :func:`dense_validate` - brute-force dense diagonalization (small N),
* :func:`minimax_values` - ordered eigenvalue sequences, clamped to the
  discrete band edge when fewer bound states exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Band, ModelParams, TorusPoint
from .determinants import InteractionBasis
from .errors import BudgetExceeded
from .spectrum import (Eigenvalue, FactorKind, Sector, SpectrumReport,
                       _Budget, _threshold_count, count_jump_scan)
from .integrals import Side

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class GridModel:
    """Momentum-grid discretization of one fiber operator."""

    K: TorusPoint
    params: ModelParams
    n: int
    diag: np.ndarray            # dispersion samples, flat (n*n,)
    modes: np.ndarray           # quadrature-weighted mode samples (5, n*n)
    argmin: TorusPoint
    argmax: TorusPoint

    @classmethod
    def build(cls, K: TorusPoint, params: ModelParams, n: int) -> "GridModel":
        if n < 16:
            raise ValueError(f"grid size must be at least 16, got {n}")
        q = -np.pi + TWO_PI * np.arange(n) / n
        p1, p2 = np.meshgrid(q, q, indexing="ij")
        e = ((1.0 - np.cos(p1)) + (1.0 - np.cos(p2))
             + params.gamma * ((1.0 - np.cos(K.p1 - p1)) + (1.0 - np.cos(K.p2 - p2))))
        diag = e.ravel()
        modes = InteractionBasis.modes(p1, p2).reshape(5, -1) * (TWO_PI / n)
        imin = int(np.argmin(diag))
        imax = int(np.argmax(diag))
        pts = np.column_stack([p1.ravel(), p2.ravel()])
        return cls(K=K, params=params, n=n, diag=diag, modes=modes,
                   argmin=TorusPoint(*pts[imin]), argmax=TorusPoint(*pts[imax]))

    @property
    def band(self) -> Band:
        return Band(e_min=float(self.diag.min()), e_max=float(self.diag.max()),
                    argmin=self.argmin, argmax=self.argmax)

    def secular(self, z: float) -> np.ndarray:
        """Discrete resolvent Gram matrix of the five channels."""
        w = 1.0 / (self.diag - z)
        return (self.modes * w) @ self.modes.T

    def dense_matrix(self) -> np.ndarray:
        h = np.diag(self.diag)
        for g, u in zip(InteractionBasis.weights(self.params), self.modes):
            if g != 0.0:
                h += g * np.outer(u, u)
        return h


def _grid_report(model: GridModel, found: dict[Side, list[tuple[float, int]]],
                 ) -> SpectrumReport:
    band = model.band
    out: dict[Side, tuple[Eigenvalue, ...]] = {}
    for side, items in found.items():
        edge = band.e_min if side is Side.BELOW else band.e_max
        sgn = -1.0 if side is Side.BELOW else 1.0
        evs = [Eigenvalue(z=edge + sgn * d, multiplicity=m, sector=Sector.MIXED,
                          factor=FactorKind.GENERAL)
               for d, m in items]
        evs.sort(key=lambda ev: ev.z)
        out[side] = tuple(evs)
    return SpectrumReport(K=model.K, params=model.params, band=band,
                          below=out[Side.BELOW], above=out[Side.ABOVE])


def oracle_counts(K: TorusPoint, params: ModelParams, n: int = 256,
                  model: GridModel | None = None, budget: int = 20000,
                  ) -> SpectrumReport:
    """Bound states of the grid model through its 5x5 secular matrix.

    Uses the same curve-counting scheme as the continuum solver but against
    the discrete band edges; discrete level repulsion keeps all roots at
    power-law distances from the edge, so no asymptotic pending logic is
    needed (the mesh floor of 1e-11 resolves everything).
    """
    if model is None:
        model = GridModel.build(K, params, n)
    band = model.band
    gvec = InteractionBasis.weights(params)
    if params.lam == 0.0 and params.mu == 0.0:
        return _grid_report(model, {Side.BELOW: [], Side.ABOVE: []})
    window = abs(params.lam) + 2.0 * abs(params.mu) + 1.0
    found: dict[Side, list[tuple[float, int]]] = {}
    for side in (Side.BELOW, Side.ABOVE):
        edge = band.e_min if side is Side.BELOW else band.e_max
        sgn = -1.0 if side is Side.BELOW else 1.0

        # the curve count is stated below the band; above it, pass (-J, -G)
        def nfun(d: float) -> int:
            return _threshold_count(-sgn * model.secular(edge + sgn * d), -sgn * gvec)[0]

        b = _Budget(budget, f"grid curve scan ({side.value})")
        width_tol = 1e-12 * (1.0 + abs(edge))
        found[side] = count_jump_scan(nfun, window, 1e-11, width_tol, b)
    return _grid_report(model, found)


def dense_validate(K: TorusPoint, params: ModelParams, n: int = 32,
                   cluster_gap: float = 1e-8) -> SpectrumReport:
    """Brute-force check: diagonalize the full grid matrix.

    Limited to n <= 48 (the matrix is n^2 x n^2).  Eigenvalues outside the
    discrete band by a relative margin are the bound states; values within
    ``cluster_gap`` of each other merge into one entry with multiplicity.
    """
    if n > 48:
        raise ValueError(f"dense validation is limited to n <= 48, got {n}")
    model = GridModel.build(K, params, n)
    band = model.band
    ev = np.linalg.eigvalsh(model.dense_matrix())
    margin_lo = 1e-10 * (1.0 + abs(band.e_min))
    margin_hi = 1e-10 * (1.0 + abs(band.e_max))
    below = ev[ev < band.e_min - margin_lo]
    above = ev[ev > band.e_max + margin_hi]

    def cluster(vals: np.ndarray, side: Side) -> list[tuple[float, int]]:
        edge = band.e_min if side is Side.BELOW else band.e_max
        out: list[tuple[float, int]] = []
        for v in vals:
            d = abs(v - edge)
            if out and abs(d - out[-1][0]) <= cluster_gap:
                out[-1] = (out[-1][0], out[-1][1] + 1)
            else:
                out.append((d, 1))
        return out

    return _grid_report(model, {Side.BELOW: cluster(below, Side.BELOW),
                                Side.ABOVE: cluster(above, Side.ABOVE)})


def minimax_values(K: TorusPoint, params: ModelParams, n: int = 128,
                   count: int = 5) -> tuple[np.ndarray, np.ndarray]:
    """Ordered extreme eigenvalues of the grid model, band-clamped.

    Returns (lowest ``count`` values ascending, highest ``count`` values
    descending).  When fewer bound states exist on a side, the remaining
    entries equal the discrete band edge - the variational characterization
    of the k-th extreme eigenvalue saturates there.
    """
    rep = oracle_counts(K, params, n=n)
    lo = [ev.z for ev in rep.below for _ in range(ev.multiplicity)]
    hi = [ev.z for ev in rep.above for _ in range(ev.multiplicity)][::-1]
    lo = (lo + [rep.band.e_min] * count)[:count]
    hi = (hi + [rep.band.e_max] * count)[:count]
    return np.array(lo), np.array(hi)
