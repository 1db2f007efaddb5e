"""Discrete spectrum of the fiber operators outside the continuous band.

Each solver computes one side of the band.  The shift p -> p + (pi, pi)
maps E_K to e_min + e_max - E_K and leaves the interaction unchanged, so the
bound states above the band at couplings (lam, mu) sit at e_max + d, where d
runs over the distances below the band at (-lam, -mu).  Both solvers run one
below-side routine twice, at (lam, mu) and at (-lam, -mu), and
:func:`_report` places both lists of distances, as does the grid oracle.

Both solvers count first.  Below the band z is a root of det(I + G J)
exactly when an eigenvalue of L^T G L (J = L L^T, positive semidefinite)
crosses -1.  The count of these Birman-Schwinger curves below -1 falls
monotonically with the distance d, so the curves at the floor (d = 1e-10)
and at the window give the number of roots between them; then one Brent
solve in ln d per sorted curve that crosses -1 locates its root.  A root of
multiplicity m is m curves crossing at one distance, so even-multiplicity
roots, which a sign scan misses, come out whole.  J below the band does not
depend on (lam, mu), so both sides of one solve share a memo of it.

Zero fiber: J is block diagonal in the five resolvent moments, and each
determinant factor (main even, sub-even, odd) gets its own crossing pass.
Only the main even factor diverges at the edge; with the exact edge models
it is affine in ln-distance, so a root between the floor and the edge (at
distances like exp(-1/s)) has a closed form.  Such roots are reported with
``pinned=True`` at the model position, clamped to at least 1e-13.  The
edge models are the exact edge limits of
:func:`~latticebound.integrals.predicted_asymptote`.

Zero-fiber batches: the moments do not depend on (lam, mu), so
:func:`_k0_batch` solves a whole coupling plane as one elementwise problem
in ln d (one root finder call for every crossing of every point) and
returns per point its merged roots below and above, or its
``ToleranceError``; sweeps place them in their rows.  The pending-root
test is one predicate, :func:`_pending`, on a single problem or on the
whole batch.  A single point keeps the scalar engine of
:func:`spectrum_k0`, which costs less than a batch of one.

General fiber: J is the 5x5 Gram matrix of the modes, R blockdiag(M3, s1,
s2) R^T in the frame where each angle is rotated by its dispersion phase
(see :mod:`latticebound.determinants`).  R rotates each (cos p_i, sin p_i)
mode pair, and G = diag(lam, mu/2, mu/2, mu/2, mu/2) is the scalar mu/2 on
each pair, so G commutes with R: the curves of J are mu/2 s1, mu/2 s2 and
those of the 3x3 even block with weights diag(lam, mu/2, mu/2), one
Cholesky factorization and one 3x3 eigensolve per distance.  Roots between
the floor and the edge are counted from the edge limit of J, whose
log-divergent part has rank one and lies in the even block, and reported
pinned at 1e-13.  On a flat fiber E_K is constant and the states are the
eigenvalues of the interaction, at distances |lam| and |mu|/2 from the band.
A solve whose window over g exceeds COUPLING_MAX = 2^44 raises
:class:`ToleranceError`: there rounding would decide its count.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from types import SimpleNamespace
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.linalg.lapack import dpotrf, dsyevd
from scipy.optimize import brentq
from scipy.optimize.elementwise import find_root

from .core import ORIGIN, Band, ModelParams, TorusPoint, band_edges, pair_amplitudes
from .determinants import (FactorKind, GramBlocks, factor_value, gram_blocks,
                           interaction_weights, slope_below)
from .errors import GramMatrixError, ToleranceError
from .integrals import (IntegralSet, Side, _reduced_integrals_array, predicted_asymptote,
                        watson_integrals_at)

MESH_FLOOR = 1e-10
MESH_COARSE = 0.25   # step of the oracle mesh beyond distance 1
MERGE_TOL = 1e-9
PINNED_MIN = 1e-13   # pinned roots sit at least this far from the edge
# largest window over g, (|lam| + 2|mu| + 1) / g, that a solve accepts: the
# curves carry rounding of eps times that, 2^-8, and misread -1 near 2^-2
COUPLING_MAX = 2.0 ** 44
_SQRT2 = math.sqrt(2.0)
_EPS = float(np.finfo(float).eps)


class Sector(Enum):
    EVEN = "even"
    ODD = "odd"
    MIXED = "mixed"


@dataclass(frozen=True)
class Eigenvalue:
    """One bound state: position, multiplicity and bookkeeping.

    ``pinned`` marks roots established from the edge asymptotics rather than
    direct bracketing (their z is a model value clamped away from the edge).
    """

    z: float
    multiplicity: int
    sector: Sector
    factor: FactorKind
    pinned: bool = False


@dataclass(frozen=True)
class SpectrumReport:
    """Discrete spectrum on both sides of the band at one fiber."""

    K: TorusPoint
    params: ModelParams
    band: Band
    below: tuple[Eigenvalue, ...]
    above: tuple[Eigenvalue, ...]

    @property
    def n_below(self) -> int:
        return sum(ev.multiplicity for ev in self.below)

    @property
    def n_above(self) -> int:
        return sum(ev.multiplicity for ev in self.above)


# ---------------------------------------------------------------------------
# the search window and the crossing engine


def _search_window(lam, mu):
    """|lam| + 2|mu| + 1, floats or arrays: no state binds deeper than the interaction norm."""
    return abs(lam) + 2.0 * abs(mu) + 1.0


def _range_error(window: float, g: float) -> ToleranceError | None:
    """The failure of a search window beyond COUPLING_MAX g, where the count
    at -1 is not resolved; None within the range."""
    if window > COUPLING_MAX * g:
        return ToleranceError(f"(|lam| + 2|mu| + 1) / g = {window / g:.3g} exceeds 2^44, "
                              f"beyond which the count is not resolved")


def _delta_mesh(delta_max: float, floor: float = MESH_FLOOR) -> np.ndarray:
    """Descending distances from the edge: coarse steps far out, halving in."""
    vals = [delta_max]
    d = delta_max
    while d - MESH_COARSE > 1.0:
        d -= MESH_COARSE
        vals.append(d)
    d = min(delta_max, 1.0)
    while d > floor * 1.0000001:
        if d < vals[-1] * 0.999999:
            vals.append(d)
        d *= 0.5
    vals.append(floor)
    return np.array(vals)


def _delta_mesh_size(delta_max: float, floor: float) -> float:
    """Length of :func:`_delta_mesh`, to within two points, with no loop: beyond
    about 4.5e15 the mesh never ends, because there d - MESH_COARSE == d."""
    coarse = max((delta_max - 1.0) / MESH_COARSE, 1.0)
    return coarse + math.log2(min(delta_max, 1.0) / floor) + 1.0


def _curve_crossings(curves: Callable[[float], Sequence[float]], floor: float,
                     window: float, what: str) -> list[float]:
    """Distances in [floor, window] where ascending curves cross -1.

    ``curves(d)`` returns the curves at distance d, sorted ascending.
    Their count below -1 falls monotonically with d, so curve k crosses -1
    exactly once on [floor, window] for each k from the count at the window
    to the count at the floor, and nowhere else.  Each crossing is solved by
    Brent's method in t = ln d, from the tightest bracket that the distances
    evaluated so far give curve k.  Every distance is evaluated once, the
    two ends and at most 100 Brent iterations per crossing, whose bracket
    ends are known: at most 2 + 100 n for n crossings.  A crossing that
    does not converge raises :class:`ToleranceError` naming ``what``.
    Returns one distance per crossing; the crossings of a multiple root are
    merged by :func:`_merge_found`.
    """
    lo, hi = math.log(floor), math.log(window)
    ends = {lo: floor, hi: window}
    memo: dict[float, Sequence[float]] = {}

    def at(t: float) -> Sequence[float]:
        if t not in memo:
            memo[t] = curves(ends[t] if t in ends else math.exp(t))
        return memo[t]

    roots = []
    for k in range(sum(v < -1.0 for v in at(hi)), sum(v < -1.0 for v in at(lo))):
        t_lo = max(t for t, eta in memo.items() if eta[k] < -1.0)
        t_hi = min(t for t, eta in memo.items() if eta[k] >= -1.0)
        t, res = brentq(lambda t: at(t)[k] + 1.0, t_lo, t_hi, xtol=1e-15,
                        rtol=4 * _EPS, full_output=True, disp=False)
        if not res.converged:
            raise ToleranceError(f"{what}: curve {k} crossing did not "
                                 f"converge in {res.iterations} iterations")
        roots.append(ends[t] if t in ends else math.exp(t))
    return roots


# ---------------------------------------------------------------------------
# edge models for the zero-fiber factors


def _main_even_edge(gamma: float) -> SimpleNamespace:
    """Edge models of a, b, c and e below the band: offsets by name, log slope as ``slope``."""
    models = {q: predicted_asymptote(q, Side.BELOW, gamma) for q in "abce"}
    offsets = {q: m.offset for q, m in models.items()}
    return SimpleNamespace(slope=models["a"].log_slope, **offsets)


def _pending(p, edge: SimpleNamespace, floor) -> tuple:
    """Whether a main even root is pending between the mesh floor and the edge.

    ``p`` holds lam, mu and g, floats or arrays alike; ``edge`` holds the
    :func:`_main_even_edge` models and ``floor`` the moments at the mesh
    floor.  Only the main even factor diverges at the edge, and with
    c + e = 2b it is exactly affine in L = -ln d: alpha + beta*L, alpha the
    factor at the model offsets and beta = s*S-, s their slope and S- the
    coupling combination of :func:`slope_below`.  A root is pending when
    the limiting sign, that of S- (s > 0), differs from the measured floor
    sign; it sits at d = exp(alpha / beta).  No root is flagged when the
    model already disagrees with the measured floor sign (untrustworthy
    regime, e.g. on a region boundary) or when S- vanishes to the rounding
    of its terms (on the hyperbola the root has merged with the edge, and
    the sign of S- is rounding noise).  Returns (flag, alpha, beta), with
    only operators that act on floats and arrays alike.
    """
    floor_value = factor_value(FactorKind.MAIN_EVEN, floor, p)
    s_minus = slope_below(p)
    alpha = factor_value(FactorKind.MAIN_EVEN, edge, p)
    beta = edge.slope * s_minus
    m_floor = alpha - beta * math.log(MESH_FLOOR)
    lam, mu, negative = abs(p.lam), abs(p.mu), floor_value < 0.0
    flag = ((floor_value != 0.0)
            & (abs(s_minus) > 8.0 * _EPS * (2.0 * mu + lam + lam * mu / p.g))
            & (m_floor != 0.0) & ((m_floor < 0.0) == negative)
            & ((s_minus < 0.0) != negative))
    return flag, alpha, beta


def _pending_root(params: ModelParams, edge: SimpleNamespace,
                  floor: IntegralSet) -> list[_Root]:
    """The main even root of :func:`_pending` at one problem, pinned, if flagged."""
    flag, alpha, beta = _pending(params, edge, floor)
    if not flag:
        return []
    return [_Root(_pinned_depth(alpha, beta), *_ZERO_FIBER_FACTORS[0], pinned=True)]


def _pinned_depth(alpha: float, beta: float) -> float:
    """exp(alpha / beta), clamped to PINNED_MIN.  A beta that underflowed to
    zero (S- of order 1e-323) puts the root at the edge, its limit."""
    return max(math.exp(alpha / beta), PINNED_MIN) if beta else PINNED_MIN


# ---------------------------------------------------------------------------
# one-sided roots and the mirror


class _Root(NamedTuple):
    """A root below the band, at distance ``d`` from the lower edge."""

    d: float
    factor: FactorKind
    sector: Sector
    multiplicity: int
    pinned: bool = False


def _merge_found(found: list[_Root]) -> list[_Root]:
    """Merge roots that coincide within MERGE_TOL."""
    merged: list[_Root] = []
    for r in sorted(found, key=lambda r: r.d):
        if merged and abs(r.d - merged[-1].d) <= MERGE_TOL:
            m = merged[-1]
            merged[-1] = m._replace(
                factor=min(m.factor, r.factor, key=list(FactorKind).index),
                sector=m.sector if m.sector is r.sector else Sector.MIXED,
                multiplicity=m.multiplicity + r.multiplicity,
                pinned=m.pinned and r.pinned)
        else:
            merged.append(r)
    return merged


def _mirrored(params: ModelParams) -> ModelParams:
    return ModelParams(params.gamma, -params.lam, -params.mu)


def _report(K: TorusPoint, params: ModelParams, band: Band, below: list[_Root],
            above: list[_Root]) -> SpectrumReport:
    """The one place where one-sided roots become a report: at e_min - d
    below the band and at e_max + d above it, each side ascending in z."""
    def placed(roots: list[_Root], edge: float, sign: float) -> tuple[Eigenvalue, ...]:
        evs = (Eigenvalue(z=edge + sign * r.d, multiplicity=r.multiplicity, sector=r.sector,
                          factor=r.factor, pinned=r.pinned) for r in roots)
        return tuple(sorted(evs, key=lambda ev: ev.z))

    return SpectrumReport(K=K, params=params, band=band, below=placed(below, band.e_min, -1.0),
                          above=placed(above, band.e_max, 1.0))


# ---------------------------------------------------------------------------
# zero-fiber spectrum

_ZERO_FIBER_FACTORS = (
    (FactorKind.MAIN_EVEN, Sector.EVEN, 1),
    (FactorKind.SUB_EVEN, Sector.EVEN, 1),
    (FactorKind.ODD, Sector.ODD, 2),
)


def _factor_curves(kind: FactorKind, s, params: ModelParams) -> tuple[float, ...]:
    """Ascending Birman-Schwinger curves of one zero-fiber block at moments ``s``.

    The factor is the product of (1 + curve) over them.  Main even: the
    eigenvalues of G J with G = diag(lam, mu), J = [[a, sqrt2 b], [sqrt2 b,
    c + e]], the larger in magnitude from the discriminant and the other
    from the determinant.  Sub-even: mu (c - e).  Odd: mu f.
    """
    lam, mu = params.lam, params.mu
    if kind is FactorKind.SUB_EVEN:
        return (mu * (s.c - s.e),)
    if kind is FactorKind.ODD:
        return (mu * s.f,)
    x, y, bb = lam * s.a, mu * (s.c + s.e), 2.0 * lam * mu * s.b * s.b
    root = math.sqrt(max(0.25 * (x - y) ** 2 + bb, 0.0))
    big = 0.5 * (x + y) + math.copysign(root, x + y)
    small = (x * y - bb) / big if big != 0.0 else 0.0
    return (small, big) if small <= big else (big, small)


def _k0_below(params: ModelParams, edge: SimpleNamespace, window: float,
              memo: dict[float, IntegralSet]) -> list[_Root]:
    """Roots of the three zero-fiber factors below the band, merged.

    Each factor's block gets one pass of :func:`_curve_crossings`, the main
    even factor also :func:`_pending_root`.  ``memo`` maps a distance to its
    moments below the band; it is filled here and must only be shared
    between calls at the same gamma.
    """
    def moments(d: float) -> IntegralSet:
        if d not in memo:
            memo[d] = watson_integrals_at(Side.BELOW, d, params.gamma)
        return memo[d]

    found = []
    for kind, sector, mult in _ZERO_FIBER_FACTORS:
        crossings = _curve_crossings(lambda d: _factor_curves(kind, moments(d), params),
                                     MESH_FLOOR, window, f"{kind.value} curve root search")
        found += [_Root(d, kind, sector, mult) for d in crossings]
    return _merge_found(found + _pending_root(params, edge, moments(MESH_FLOOR)))


def spectrum_k0(params: ModelParams) -> SpectrumReport:
    """Full discrete spectrum at zero fiber via the factored determinant.

    Roots of the three factors are found below the band at (lam, mu) and at
    (-lam, -mu), the latter mirrored above it, within |z - edge| <= |lam| +
    2|mu| + 1.  Coincident roots are merged with summed multiplicity;
    odd-factor roots carry multiplicity 2.  The moments are closed forms, so
    no tolerance applies, and :func:`_curve_crossings` bounds the work.
    Both sides share one memo of moments per call.
    """
    band = band_edges(ORIGIN, params)
    if params.lam == 0.0 and params.mu == 0.0:
        return _report(ORIGIN, params, band, [], [])
    window = _search_window(params.lam, params.mu)
    if exc := _range_error(window, params.g):
        raise exc
    edge = _main_even_edge(params.gamma)
    memo: dict[float, IntegralSet] = {}
    return _report(ORIGIN, params, band, _k0_below(params, edge, window, memo),
                   _k0_below(_mirrored(params), edge, window, memo))


# the rows of _curves_array: (factor, sector, multiplicity) of each curve
_CURVE_ROWS = _ZERO_FIBER_FACTORS[:1] + _ZERO_FIBER_FACTORS


def _curves_array(lam: np.ndarray, mu: np.ndarray, s) -> np.ndarray:
    """The curves of :func:`_factor_curves` for all three factors, elementwise.

    ``s`` holds the moments a, b, c, e, f as rows.  Returns the rows main
    even smaller and larger, sub-even and odd, with the scalar arithmetic.
    """
    a, b, c, e, f = s
    x, y, bb = lam * a, mu * (c + e), 2.0 * lam * mu * b * b
    root = np.sqrt(np.maximum(0.25 * (x - y) ** 2 + bb, 0.0))
    big = 0.5 * (x + y) + np.copysign(root, x + y)
    with np.errstate(divide="ignore", invalid="ignore"):
        small = np.where(big != 0.0, (x * y - bb) / big, 0.0)
    return np.stack([np.minimum(small, big), np.maximum(small, big), mu * (c - e), mu * f])


def _pending_depths(gamma: float, lam: np.ndarray, mu: np.ndarray, edge: SimpleNamespace,
                    floor: IntegralSet) -> dict[int, float]:
    """:func:`_pending` over arrays of one-sided problems: the pinned depth
    of each flagged problem, by index, from :func:`_pinned_depth`."""
    flag, alpha, beta = _pending(SimpleNamespace(lam=lam, mu=mu, g=1.0 + gamma), edge, floor)
    flagged = np.flatnonzero(flag)
    return {i: _pinned_depth(a, b) for i, a, b in
            zip(flagged.tolist(), alpha[flagged].tolist(), beta[flagged].tolist())}


def _k0_batch(gamma: float, lams: Sequence[float],
              mus: Sequence[float]) -> list[tuple[list[_Root], list[_Root]] | ToleranceError]:
    """The merged roots below and above of every (lams[i], mus[i]) at zero
    fiber, solved as one batch, or the point's ``ToleranceError``.

    The moments do not depend on the couplings, so the count-first scheme
    of :func:`_curve_crossings` runs on arrays: the four curves of every
    problem at the floor and at its window give each curve's crossing, and
    one elementwise root finder (Chandrupatla's method in t = ln d) solves
    all crossings at once.  Pending roots (:func:`_pending_depths`) and
    merging are those of the scalar solver.  The side above at (lam, mu)
    is the side below at (-lam, -mu), so each distinct problem, with -0.0
    read as 0.0, is solved once.  Every step is elementwise, so a problem's
    roots do not depend on the other problems of the batch.  A point fails
    with the ``ToleranceError`` of a side whose crossing does not converge
    or whose window is out of range (:func:`_range_error`).  A gamma that
    is not a positive real and couplings that are not finite raise
    ``ValueError`` before any solve.
    """
    ModelParams(gamma)   # rejects a gamma that is not a positive real
    points = np.column_stack([np.asarray(lams, dtype=float), np.asarray(mus, dtype=float)])
    for name, col in (("lam", points[:, 0]), ("mu", points[:, 1])):
        if not np.isfinite(col).all():
            raise ValueError(f"{name} must be finite")
    if not len(points):
        return []
    # each (lam, mu) as one complex number, which np.unique sorts fast
    problems, index = np.unique((np.concatenate([points, -points]) + 0.0).view(complex),
                                return_inverse=True)
    below, above = index.reshape(2, -1).tolist()
    g, floor = 1.0 + gamma, watson_integrals_at(Side.BELOW, MESH_FLOOR, gamma)
    lam, mu = problems.real, problems.imag
    window = _search_window(lam, mu)
    beyond = window > COUPLING_MAX * g
    failed = {p: _range_error(window[p], g) for p in np.flatnonzero(beyond).tolist()}
    # problems beyond the range fail, and solve as zero couplings
    lam, mu = np.where(beyond, 0.0, lam), np.where(beyond, 0.0, mu)
    window = np.where(beyond, 1.0, window)
    eta_floor = _curves_array(lam, mu, floor.as_array()[:, None])
    eta_window = _curves_array(lam, mu, _reduced_integrals_array(window / g) / g)
    # one crossing per curve (row) of a problem that is below -1 at the
    # floor and not at the window
    row, prob = np.nonzero((eta_floor < -1.0) & (eta_window >= -1.0))
    t_lo, ends = math.log(MESH_FLOOR), window[prob]
    t_hi = np.log(ends)

    def distance(t, t_hi, ends):
        # the bracket ends are the exact floor and window, as in _curve_crossings
        return np.where(t == t_hi, ends, np.where(t == t_lo, MESH_FLOOR, np.exp(t)))

    def residual(t, lam, mu, row, t_hi, ends):
        s = _reduced_integrals_array(distance(t, t_hi, ends) / g) / g
        return np.take_along_axis(_curves_array(lam, mu, s), row[None, :], 0)[0] + 1.0

    res = find_root(residual, (np.full(row.size, t_lo), t_hi),
                    args=(lam[prob], mu[prob], row, t_hi, ends),
                    tolerances=dict(xatol=1e-15, xrtol=4 * _EPS, fatol=0.0, frtol=0.0))
    found: list[list[_Root]] = [[] for _ in problems]
    for r, p, d, ok, status, nit in zip(row.tolist(), prob.tolist(),
                                        distance(res.x, t_hi, ends).tolist(),
                                        res.success.tolist(), res.status.tolist(),
                                        res.nit.tolist()):
        if ok:
            found[p].append(_Root(d, *_CURVE_ROWS[r]))
        else:
            failed[p] = ToleranceError(
                f"{_CURVE_ROWS[r][0].value} curve crossing below the band at (lam, mu) = "
                f"({lam[p]}, {mu[p]}) did not converge (status {status}) in {nit} iterations")
    for p, d in _pending_depths(gamma, lam, mu, _main_even_edge(gamma), floor).items():
        found[p].append(_Root(d, *_ZERO_FIBER_FACTORS[0], pinned=True))
    merged = [_merge_found(f) for f in found]
    return [failed.get(b) or failed.get(a) or (merged[b], merged[a])
            for b, a in zip(below, above)]


# ---------------------------------------------------------------------------
# general fiber: eigenvalue-curve counting


def _threshold_count(j: np.ndarray, gvec: Sequence[float]) -> tuple[int, list[float]]:
    """Number of Birman-Schwinger curves below -1, and the ascending curves.

    The curves are the eigenvalues of L^T G L with J = L L^T (one Cholesky
    factorization and one symmetric eigensolve), G = diag(``gvec``), which
    holds below the band.  Above it pass (-J, -G).  A J that is not positive
    definite raises :class:`GramMatrixError`.
    """
    chol, info = dpotrf(j, lower=1)
    if info:
        raise GramMatrixError(f"Gram matrix is not positive definite (leading minor {info})")
    eta = dsyevd((chol.T * gvec) @ chol, compute_v=0)[0].tolist()
    return bisect_left(eta, -1.0), eta


def _fiber_curves(K: TorusPoint, params: ModelParams, d: float,
                  blocks: GramBlocks) -> list[float]:
    """Ascending Birman-Schwinger curves below the band at distance d.

    ``blocks`` is the :func:`gram_blocks` split (even, s1, s2) of J.  G is a
    scalar on each rotated mode pair, so the curves of J are those of the
    blocks: mu/2 s1, mu/2 s2 and the :func:`_threshold_count` curves of the
    even block with weights diag(lam, mu/2, mu/2).  An even block that is
    not positive definite raises :class:`GramMatrixError`.
    """
    even, s1, s2 = blocks
    half_mu = 0.5 * params.mu
    try:
        eta = _threshold_count(even, (params.lam, half_mu, half_mu))[1]
    except GramMatrixError as exc:
        raise GramMatrixError(f"below the band at K = ({K.p1}, {K.p2}), gamma = "
                              f"{params.gamma}, d = {d}: {exc}") from None
    return sorted(eta + [half_mu * s1, half_mu * s2])


def count_jump_scan(nfun: Callable[[float], int], delta_max: float, floor: float,
                    width_tol: float) -> list[tuple[float, int]]:
    """Locate jumps of an integer-valued function of the edge distance.

    Returns (distance, |jump|) pairs; segments whose endpoints agree are
    dropped, so an equal number of up and down crossings inside one segment
    is invisible (the mesh is chosen fine enough that this does not occur
    away from parameter-space boundaries).  Serves the grid oracle only;
    :func:`spectrum_general` locates its roots with :func:`_curve_crossings`.
    """
    mesh = _delta_mesh(delta_max, floor)
    ns = [nfun(float(d)) for d in mesh]
    roots = []
    stack = [(float(mesh[i]), ns[i], float(mesh[i + 1]), ns[i + 1])
             for i in range(len(mesh) - 1)]
    while stack:
        d_hi, n_hi, d_lo, n_lo = stack.pop()
        if n_hi == n_lo:
            continue
        if d_hi - d_lo <= width_tol:
            roots.append((0.5 * (d_hi + d_lo), abs(n_hi - n_lo)))
            continue
        mid = math.sqrt(d_hi * d_lo) if d_hi / max(d_lo, 1e-300) > 4.0 \
            else 0.5 * (d_hi + d_lo)
        n_mid = nfun(mid)
        stack.append((d_hi, n_hi, mid, n_mid))
        stack.append((mid, n_mid, d_lo, n_lo))
    return roots


def _degenerate_spectrum(K: TorusPoint, params: ModelParams, band: Band) -> SpectrumReport:
    """Flat fiber: E_K is the constant band edge, so H(K) = e + V and each
    eigenvalue of V is a state at that distance from it: lam on the constant
    mode and mu/2 on the four trigonometric modes, below the band when
    negative and above it when positive."""
    modes = ((params.lam, 1), (0.5 * params.mu, 4))
    below, above = ([_Root(abs(v), FactorKind.GENERAL, Sector.MIXED, m)
                     for v, m in modes if sign * v > 0.0] for sign in (-1.0, 1.0))
    return _report(K, params, band, _merge_found(below), _merge_found(above))


# R^T u, the rank-one edge slope of J in the rotated frame, on the even block;
# its sine components vanish
_EDGE_MODES = np.array([1.0, _SQRT2, _SQRT2])


def _pending_count(K: TorusPoint, params: ModelParams, even_floor: np.ndarray) -> int:
    """Roots between the mesh floor and the edge, from the edge limit of J.

    Near the edge J(d) = J_floor - sigma u u^T (t - t_f) + O(d ln d) in
    t = ln d, t_f = ln MESH_FLOOR, with sigma = 1/(2 pi sqrt(R1 R2)) > 0 and
    u = (1, sqrt2 cos phi1, sqrt2 cos phi2, sqrt2 sin phi1, sqrt2 sin phi2).
    With A = I + G J_floor the matrix determinant lemma makes the model
    determinant exactly affine in t:

        det(I + G J(t)) = det A + sigma (t - t_f) det([[A, G u], [u^T, 0]]),

    and the bordered determinant needs no inverse of a nearly singular A.
    In the rotated frame of :func:`gram_blocks` R^T u = (1, sqrt2, sqrt2, 0,
    0), so the sine factors (1 + mu/2 s_i) multiply det A and the bordered
    determinant alike, and both reduce to the even block ``even_floor``.
    The determinant is the product of (1 + curve), the count is monotone in
    d and a rank-one change moves at most one curve across -1, so one root
    is pending exactly when the sign as t -> -inf, that of -det(bordered),
    differs from that of det A: when det A and det(bordered) have the same
    sign.  The border column G u is scaled to unit maximum, which keeps the
    sign; a bordered determinant within 64 ulp of the product of its column
    norms (Hadamard's bound on the cofactors its rounding multiplies) has no
    sign, as on a region boundary, and counts no root.  With R1 R2 = 0 J
    diverges like d^(-1/2) instead and the count at the floor is already the
    limit.
    """
    r1, r2, _, _ = pair_amplitudes(K, params.gamma)
    if r1 * r2 == 0.0:
        return 0
    gvec = interaction_weights(params)[:3]
    gu = gvec * _EDGE_MODES
    bordered = np.zeros((4, 4))
    bordered[:3, :3] = np.eye(3) + gvec[:, None] * even_floor
    bordered[:3, 3] = gu / np.max(np.abs(gu))
    bordered[3, :3] = _EDGE_MODES
    det_floor = float(np.linalg.det(bordered[:3, :3]))
    det_bordered = float(np.linalg.det(bordered))
    noise = 64.0 * _EPS * float(np.prod(np.linalg.norm(bordered, axis=0)))
    if det_floor == 0.0 or abs(det_bordered) <= noise:
        return 0
    return int((det_floor > 0.0) == (det_bordered > 0.0))


def _general_below(K: TorusPoint, params: ModelParams, window: float,
                   memo: dict[float, GramBlocks]) -> list[_Root]:
    """Roots below the band at fiber K, one per crossing of a curve.

    ``memo`` maps a distance to the parity blocks of its Gram matrix J; it
    is filled here and must only be shared between calls at the same
    (K, gamma).
    """
    def blocks(d: float) -> GramBlocks:
        if d not in memo:
            memo[d] = gram_blocks(K, params.gamma, d)
        return memo[d]

    crossings = _curve_crossings(lambda d: _fiber_curves(K, params, d, blocks(d)),
                                 MESH_FLOOR, window, "curve root search")
    pend = _pending_count(K, params, blocks(MESH_FLOOR)[0])
    found = [_Root(d, FactorKind.GENERAL, Sector.MIXED, 1) for d in crossings]
    found += [_Root(PINNED_MIN, FactorKind.GENERAL, Sector.MIXED, 1, pinned=True)] * pend
    return _merge_found(found)


def spectrum_general(K: TorusPoint, params: ModelParams) -> SpectrumReport:
    """Discrete spectrum at an arbitrary fiber.

    Counts the Birman-Schwinger curves below -1 at the mesh floor and at
    the window, then solves each curve that crosses -1 in between (see
    :func:`_curve_crossings`); crossings within MERGE_TOL merge into one
    root of their number's multiplicity.  Roots between the mesh floor and
    the edge are counted from the edge limit of the Gram matrix (see
    :func:`_pending_count`).  Both sides share one memo of Gram-matrix
    blocks per call; :func:`_curve_crossings` bounds the work.
    """
    band = band_edges(K, params)
    if band.degenerate:
        return _degenerate_spectrum(K, params, band)
    if params.lam == 0.0 and params.mu == 0.0:
        return _report(K, params, band, [], [])
    window = _search_window(params.lam, params.mu)
    if exc := _range_error(window, params.g):
        raise exc
    memo: dict[float, GramBlocks] = {}
    return _report(K, params, band, _general_below(K, params, window, memo),
                   _general_below(K, _mirrored(params), window, memo))
