"""Discrete spectrum of the fiber operators outside the continuous band.

The shift p -> p + (pi, pi) maps E_K to e_min + e_max - E_K and leaves the
interaction unchanged, so the bound states above the band at couplings (lam,
mu) sit at e_max + d, where d runs over the distances below the band at
(-lam, -mu).  The curves below the band at (-lam, -mu) are those at (lam,
mu) negated, bit for bit, so a solve evaluates one side's curves and
makes one crossing pass over the rows of both sides.

One rule turns roots into states: :func:`_report`, which builds every
report of both solvers and of the grid oracles, merges a side's roots that
lie within MERGE_TOL = 1e-9 of each other into one state whose
multiplicity is their sum (:func:`_merge_found`), and places the states
ascending in z.  :func:`_k0_batch` builds no report and merges alike.

Both solvers count first.  Below the band z is a root of det(I + G J)
exactly when an eigenvalue of L^T G L (J = L L^T, positive semidefinite)
crosses -1.  The count of these Birman-Schwinger curves below -1 falls
monotonically with the distance d, so a curve below -1 at the floor (d =
1e-10) and not below it at the window crosses -1 once in between; then one
solve in ln d per such curve locates its root.  Every solve
runs one engine, :func:`_chandrupatla`, the bracketing method of T. R.
Chandrupatla, Adv. Eng. Softw. 28, 145 (1997), on a float or on an array
of crossings.  A root of multiplicity m is m curves crossing at one
distance, so even-multiplicity roots, which a sign scan misses, come out
whole.  J below the band does not depend on (lam, mu), so each distance
evaluated serves both sides.

Both fibers share one scalar solve, :func:`_solve`, which does every step
that does not depend on the fiber: the window and its range, the
evaluation at the floor (which also serves the pending-root tests of both
sides), the crossing pass and the report.  Each public solver hands
it only what differs by fiber: J at a distance, the curves of J, their row
tags and mirror order, and the rule for roots below the floor.

Zero fiber: J is block diagonal in the five resolvent moments, so the
curves are four rows, two of the main even factor, one sub-even and one
odd, the rows of the batch; with the four of the side above, one
crossing pass goes over eight, and each root takes the factor, sector and
multiplicity of its row.  Each distance costs one call of
:func:`~latticebound.integrals.moments_below`, five floats, and the rows
are a closure that binds (lam, mu) once.
Only the main even factor diverges at the edge; with the exact edge models
it is affine in ln-distance, so a root between the floor and the edge (at
distances like exp(-1/s)) has a closed form.  Such roots are reported with
``pinned=True`` at the model position, clamped to at least 1e-13.  The
edge models are the exact edge limits of
:func:`~latticebound.integrals.calibrate_edge_constants`, and the band at
K = 0 is exactly [0, 4g].

Zero-fiber batches: the moments do not depend on (lam, mu), so
:func:`_k0_batch` solves a whole coupling plane as one elementwise problem
in ln d (one engine call for every crossing of every point) and
returns per point its merged roots below and above, or its
``ToleranceError``; sweeps place them in their rows.  The pending-root
test is one predicate, :func:`_pending`, on a single problem or on the
whole batch.  A single point keeps the scalar solver
:func:`spectrum_k0`, which costs less than a batch of one.

General fiber: J is the 5x5 Gram matrix of the modes, R blockdiag(M3, s1,
s2) R^T in the frame where each angle is rotated by its dispersion phase
(see :mod:`latticebound.determinants`).  R rotates each (cos p_i, sin p_i)
mode pair, and G = diag(lam, mu/2, mu/2, mu/2, mu/2) is the scalar mu/2 on
each pair, so G commutes with R: the curves of J are mu/2 s1, mu/2 s2 and
those of the 3x3 even block with weights diag(lam, mu/2, mu/2): one
LAPACK ``dsygvd`` call per distance factors the block, forms L^T G L and
solves it.  One :class:`~latticebound.determinants.FiberGram` per solve
takes the amplitudes, the orientation and the trapezoid nodes from (K,
gamma) once, and the weight matrix is bound once.  Roots between
the floor and the edge are counted from the edge limit of J, whose
log-divergent part has rank one and lies in the even block, by the signs
of two determinants expanded in Python floats, and reported pinned at
1e-13.  On a flat fiber E_K is constant and the states are the
eigenvalues of the interaction, at distances |lam| and |mu|/2 from the band.
A solve whose window over g exceeds COUPLING_MAX = 2^44 raises
:class:`ToleranceError`: there rounding would decide its count.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.linalg.lapack import dsygvd

from .core import ORIGIN, Band, ModelParams, TorusPoint, band_edges
from .determinants import (FactorKind, FiberGram, GramBlocks, factor_value,
                           slope_below)
from .errors import GramMatrixError, ToleranceError
from .integrals import _reduced_integrals_array, calibrate_edge_constants, moments_below

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


@dataclass(frozen=True, slots=True)
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


def _signs_differ(p, q):
    """np.sign(p) != np.sign(q), floats or arrays: True where either is NaN."""
    return ((p > 0.0) != (q > 0.0)) | ((p < 0.0) != (q < 0.0)) | (p != p) | (q != q)


def _chandrupatla(f, a, b, fa, fb, args=(), maxiter=100):
    """Roots of f(x, *args) = 0 bracketed by [a, b], floats or 1-D arrays.

    The elementwise method of T. R. Chandrupatla, Adv. Eng. Softw. 28, 145
    (1997): bisection first, then inverse quadratic interpolation where his
    test allows it, each step kept tol/2 inside the bracket.  ``fa`` and
    ``fb`` are f at a and at b, which every caller already holds, so f is
    evaluated only inside the bracket.  Each element stops at the first
    of, in this order: f zero at the end with the smaller |f| (status 0),
    ends of one sign (-1), a non-finite end or f NaN at both ends (-3), a
    bracket narrower than tol = 4 eps |x| + 1e-15 (0).  This is the order
    of SciPy's elementwise version of the method, whose roots these are bit
    for bit.  Stopped elements leave the active set, and so do their
    entries of ``args``; elements still active after ``maxiter`` iterations
    get status -2.  Returns (x, status, nit): x is the end with the smaller
    |f|, NaN for status -1 and -3.  Floats run a loop of plain branches
    with the arithmetic and the stop order of the array loop, so a float
    and a one-element array give the same bits.
    """
    inf, n = math.inf, 0
    x1, x2, f1, f2 = a, b, fa, fb
    differ = _signs_differ(f1, f2)
    if not isinstance(a, np.ndarray):
        while True:
            xmin, fmin = (x1, f1) if abs(f1) < abs(f2) else (x2, f2)
            dx, tol = abs(x2 - x1), abs(xmin) * (4.0 * _EPS) + 1e-15
            if fmin == 0.0:
                return xmin, 0, n
            if not differ:
                return math.nan, -1, n
            if not (abs(x1) < inf and abs(x2) < inf and (f1 == f1 or f2 == f2)):
                return math.nan, -3, n
            if not dx >= tol:
                return xmin, 0, n
            if n == maxiter:
                return xmin, -2, n
            t = 0.5
            if n:
                xi1, phi1 = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
                # the test fails at f3 = f1 (phi1 = 1), so a step taken
                # never divides by zero
                if 1.0 - math.sqrt(1.0 - xi1) < phi1 < math.sqrt(xi1):
                    t = (f1 / (f1 - f2) * f3 / (f3 - f2)
                         - (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f2 - f3))
                tl = 0.5 * tol / dx
                t = min(max(t, tl), 1.0 - tl)
            xt = x1 + t * (x2 - x1)
            ft = f(xt, *args)
            if (ft > 0.0) != (f1 > 0.0) or (ft < 0.0) != (f1 < 0.0) or ft != ft or f1 != f1:
                x3, f3, x2, f2 = x2, f2, x1, f1
            else:
                x3, f3 = x1, f1
            # xt and the end kept straddle the root, so their signs differ
            x1, f1, differ, n = xt, ft, True, n + 1
    x, status, nit = np.full(a.size, math.nan), np.full(a.size, -2), np.full(a.size, maxiter)
    live = np.arange(a.size)
    while True:
        xmin, fmin = np.where(abs(f1) < abs(f2), (x1, f1), (x2, f2))
        dx, tol = abs(x2 - x1), abs(xmin) * (4.0 * _EPS) + 1e-15
        finite = (abs(x1) < inf) & (abs(x2) < inf) & ((f1 == f1) | (f2 == f2))
        go = (fmin != 0.0) & differ & finite & (dx >= tol)
        if not go.all():
            s = np.where(fmin == 0.0, 0, np.where(differ, np.where(finite, np.where(go, 1, 0), -3), -1))
            done = ~go
            x[live[done]] = np.where(s < 0, math.nan, xmin)[done]
            status[live[done]], nit[live[done]] = s[done], n
            live, xmin, x1, f1, x2, f2, dx, tol = (
                v[go] for v in (live, xmin, x1, f1, x2, f2, dx, tol))
            args = tuple(v[go] for v in args)
            if n:
                x3, f3 = x3[go], f3[go]
            if not live.size:
                return x, status, nit
        if n == maxiter:
            x[live] = xmin
            return x, status, nit
        t = 0.5
        if n:
            xi1, phi1 = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
            alpha = (x3 - x1) / (x2 - x1)
            iqi = ((1.0 - np.sqrt(1.0 - xi1)) < phi1) & (phi1 < np.sqrt(xi1))
            # f3 = f1 fails the test (phi1 = 1); adding (f3 == f1) only keeps
            # that step from dividing by zero
            t = np.where(iqi, f1 / (f1 - f2) * f3 / (f3 - f2)
                         - alpha * f1 / (f3 - f1 + (f3 == f1)) * f2 / (f2 - f3), 0.5)
            tl = 0.5 * tol / dx
            t = np.clip(t, tl, 1.0 - tl)
        xt = x1 + t * (x2 - x1)
        ft = f(xt, *args)
        x3, f3, x2, f2 = np.where(_signs_differ(ft, f1), (x2, f2, x1, f1), (x1, f1, x2, f2))
        # xt and the end kept straddle the root, so their signs differ
        x1, f1, differ, n = xt, ft, True, n + 1


def _stalled(above: bool, what: str, status: int, nit: int) -> ToleranceError:
    """The failure of a crossing of the curve ``what`` below or above the
    band that did not converge: one text for the scalar solve and the
    batch, with no couplings in it."""
    return ToleranceError(f"{('below', 'above')[above]} the band, {what} crossing did not "
                          f"converge (status {status}) in {nit} iterations")


def _curve_crossings(curves: Callable[[float], Sequence[float]], floor: float, window: float,
                     what: Callable[[int], tuple[bool, str]]) -> list[tuple[int, float]]:
    """Distances in [floor, window] where curves cross -1, by row.

    ``curves(d)`` returns the curves at distance d by row; each row is
    below -1 up to some distance and not below it beyond, as the count of
    curves below -1 falls monotonically with d.  So row k crosses -1
    exactly once on [floor, window] when it is below -1 at the floor and
    not below it at the window, and nowhere else: for curves sorted
    ascending these are the rows from the count at the window to the count
    at the floor.
    Each crossing is solved by :func:`_chandrupatla` in t = ln d, from the
    tightest bracket that the distances evaluated so far, for any row, give
    row k.  Every distance is evaluated once, the two ends and at most 100
    iterations per crossing, whose bracket ends are known: at most 2 + 100 n
    for n crossings.  The first crossing that does not converge raises the
    :func:`_stalled` error of ``what(k)``, its side and name.  Returns
    (row, distance) per crossing, by ascending row; :func:`_report` merges
    the crossings of a multiple root.
    """
    lo, hi = math.log(floor), math.log(window)
    memo = {lo: curves(floor), hi: curves(window)}
    roots = []
    for k, (v_lo, v_hi) in enumerate(zip(memo[lo], memo[hi])):
        if not (v_lo < -1.0 and v_hi >= -1.0):
            continue
        t_lo, t_hi = lo, hi
        for t, eta in memo.items():
            if eta[k] < -1.0:
                if t > t_lo:
                    t_lo = t
            elif eta[k] >= -1.0 and t < t_hi:
                t_hi = t

        def residual(t: float) -> float:
            eta = memo.get(t)
            if eta is None:
                eta = memo[t] = curves(math.exp(t))
            return eta[k] + 1.0

        t, status, nit = _chandrupatla(residual, t_lo, t_hi,
                                       memo[t_lo][k] + 1.0, memo[t_hi][k] + 1.0)
        if status:
            raise _stalled(*what(k), status, nit)
        roots.append((k, floor if t == lo else window if t == hi else math.exp(t)))
    return roots


# ---------------------------------------------------------------------------
# the pending root of the zero-fiber main even factor


def _pending(lam, mu, g: float, edge: Sequence[float], floor: Sequence[float]) -> tuple:
    """Whether a main even root is pending between the mesh floor and the edge.

    ``lam`` and ``mu`` are floats or arrays alike; ``edge`` is the
    :func:`calibrate_edge_constants` tuple (slope s, then the limits of a,
    b, c, e, f) and ``floor`` the moments at the mesh floor.  Only the main
    even factor diverges at the edge, and with c + e = 2b it is exactly
    affine in L = -ln d: alpha + beta*L, alpha the factor at the limits and
    beta = s*S-, S- of :func:`slope_below`.  A root is pending when the
    limiting sign, that of S- (s > 0), differs from the measured floor
    sign; it sits at d = exp(alpha / beta).  No root is flagged when the
    model already disagrees with the measured floor sign (untrustworthy
    regime, e.g. on a region boundary) or when S- vanishes to the rounding
    of its terms, S- at (|lam|, |mu|) (on the hyperbola the root has merged
    with the edge, and the sign of S- is rounding noise).  Returns (flag,
    alpha, beta), with only operators that act on floats and arrays alike.
    """
    slope, *limits = edge
    floor_value = factor_value(FactorKind.MAIN_EVEN, floor, lam, mu)
    s_minus = slope_below(lam, mu, g)
    alpha = factor_value(FactorKind.MAIN_EVEN, limits, lam, mu)
    beta = slope * s_minus
    m_floor = alpha - beta * math.log(MESH_FLOOR)
    negative = floor_value < 0.0
    flag = ((floor_value != 0.0)
            & (abs(s_minus) > 8.0 * _EPS * slope_below(abs(lam), abs(mu), g))
            & (m_floor != 0.0) & ((m_floor < 0.0) == negative)
            & ((s_minus < 0.0) != negative))
    return flag, alpha, beta


# ---------------------------------------------------------------------------
# one-sided roots, the mirror and the scalar solve


class _Root(NamedTuple):
    """A root below the band, at distance ``d`` from the lower edge."""

    d: float
    factor: FactorKind
    sector: Sector
    multiplicity: int
    pinned: bool = False


def _merge_found(found: list[_Root]) -> list[_Root]:
    """Merge roots that coincide within MERGE_TOL, ascending in d; a list of
    zero or one root is returned as given."""
    if len(found) < 2:
        return found
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
    """The one place where one-sided roots become a report, for both
    solvers and both oracles: a side's roots within MERGE_TOL are one state
    (:func:`_merge_found`), at e_min - d below the band and at e_max + d
    above it, ascending in z (merged roots come ascending in d)."""
    def placed(roots: list[_Root], edge: float, sign: float) -> tuple[Eigenvalue, ...]:
        return tuple(Eigenvalue(z=edge + sign * r.d, multiplicity=r.multiplicity, sector=r.sector,
                                factor=r.factor, pinned=r.pinned) for r in roots)

    return SpectrumReport(K=K, params=params, band=band,
                          below=placed(_merge_found(below)[::-1], band.e_min, -1.0),
                          above=placed(_merge_found(above), band.e_max, 1.0))


def _solve(K: TorusPoint, params: ModelParams, band: Band, evaluate: Callable[[float], object],
           curves_of: Callable[[Callable[[float], object]], Callable[[float], Sequence[float]]],
           rows: Sequence[tuple], what: Callable[[int], str],
           mirror: Callable[[Sequence[float]], Sequence[float]],
           pending: Callable[[ModelParams, object], list[_Root]]) -> SpectrumReport:
    """The discrete spectrum at fiber K, within |z - edge| <= |lam| + 2|mu| + 1.

    ``evaluate(d)`` gives J at distance d in the fiber's form, and
    ``curves_of(evaluate)`` the curves below the band at the couplings as
    a function of d, by row; ``rows`` holds each row's (factor, sector,
    multiplicity) and ``what(row)`` its name in errors.  ``mirror(eta)``
    gives the rows at (-lam, -mu), whose crossings are the roots above,
    from the rows eta, so one :func:`_curve_crossings` pass brackets the
    rows of both sides with every distance it evaluates.  ``pending(side,
    floor)`` gives one side's pinned roots between the mesh floor and the
    edge from J at the floor, which the pass reuses; :func:`_report` merges
    the roots.  Zero couplings have no states, and a window beyond the
    range raises its :func:`_range_error`.
    """
    if params.lam == 0.0 and params.mu == 0.0:
        return _report(K, params, band, [], [])
    window = _search_window(params.lam, params.mu)
    if exc := _range_error(window, params.g):
        raise exc
    floor = evaluate(MESH_FLOOR)
    below = curves_of(lambda d: floor if d == MESH_FLOOR else evaluate(d))

    def curves(d: float) -> Sequence[float]:
        eta = below(d)
        return eta + mirror(eta)

    n = len(rows)
    sides: tuple[list[_Root], list[_Root]] = ([], [])
    for row, d in _curve_crossings(curves, MESH_FLOOR, window,
                                   lambda row: (row >= n, what(row % n))):
        sides[row >= n].append(_Root(d, *rows[row % n]))
    for found, side in zip(sides, (params, _mirrored(params))):
        found += pending(side, floor)
    return _report(K, params, band, *sides)


# ---------------------------------------------------------------------------
# zero-fiber spectrum

_ZERO_FIBER_FACTORS = (
    (FactorKind.MAIN_EVEN, Sector.EVEN, 1),
    (FactorKind.SUB_EVEN, Sector.EVEN, 1),
    (FactorKind.ODD, Sector.ODD, 2),
)
# (factor, sector, multiplicity) of each row of _k0_curves and _curves_array,
# and its name in errors
_CURVE_ROWS = _ZERO_FIBER_FACTORS[:1] + _ZERO_FIBER_FACTORS
_CURVE_NAMES = tuple(f"{factor.value} curve" for factor, _, _ in _CURVE_ROWS)


def _pinned_root(alpha: float, beta: float) -> _Root:
    """The main even root of :func:`_pending` at exp(alpha / beta), clamped
    to PINNED_MIN.  A beta that underflowed to zero (S- of order 1e-323)
    puts the root at the edge, its limit."""
    return _Root(max(math.exp(alpha / beta), PINNED_MIN) if beta else PINNED_MIN,
                 *_ZERO_FIBER_FACTORS[0], pinned=True)


def _k0_curves(params: ModelParams, moments: Callable[[float], tuple[float, ...]]
               ) -> Callable[[float], tuple[float, float, float, float]]:
    """The four zero-fiber Birman-Schwinger curves as a function of the
    distance, with (lam, mu) bound once: the rows of :func:`_curves_array`
    (main even smaller and larger, sub-even, odd), with its arithmetic on
    floats.

    ``moments(d)`` gives (a, b, c, e, f) at distance d.  Each factor is the
    product of (1 + curve) over its rows.  Main even: the eigenvalues of
    G J with G = diag(lam, mu), J = [[a, sqrt2 b], [sqrt2 b, c + e]], the
    larger in magnitude from the discriminant and the other from the
    determinant.  Sub-even: mu (c - e).  Odd: mu f.
    """
    lam, mu = params.lam, params.mu
    lam_mu2 = 2.0 * lam * mu

    def curves(d: float) -> tuple[float, float, float, float]:
        a, b, c, e, f = moments(d)
        x, y, bb = lam * a, mu * (c + e), lam_mu2 * b * b
        root = math.sqrt(max(0.25 * (x - y) ** 2 + bb, 0.0))
        big = 0.5 * (x + y) + math.copysign(root, x + y)
        small = (x * y - bb) / big if big != 0.0 else 0.0
        if small > big:
            small, big = big, small
        return small, big, mu * (c - e), mu * f
    return curves


def spectrum_k0(params: ModelParams) -> SpectrumReport:
    """Full discrete spectrum at zero fiber via the factored determinant.

    :func:`_solve` on the four rows of :func:`_k0_curves`, with the moments
    of :func:`moments_below` at each distance; the rows at (-lam, -mu) are
    these negated in the order (main even larger, smaller, sub-even, odd).
    Each side's main even factor also gets the pinned root of
    :func:`_pending`.  Odd-factor roots carry multiplicity 2, and the band
    is [0, 4g].
    """
    gamma, edge = params.gamma, calibrate_edge_constants(params.gamma)

    def pending(side: ModelParams, floor: tuple[float, ...]) -> list[_Root]:
        flag, alpha, beta = _pending(side.lam, side.mu, side.g, edge, floor)
        return [_pinned_root(alpha, beta)] if flag else []

    return _solve(ORIGIN, params, Band(0.0, 4.0 * params.g, ORIGIN, TorusPoint(math.pi, math.pi)),
                  lambda d: moments_below(d, gamma), partial(_k0_curves, params), _CURVE_ROWS,
                  _CURVE_NAMES.__getitem__,
                  lambda eta: (-eta[1], -eta[0], -eta[2], -eta[3]), pending)


def _curves_array(lam: np.ndarray, mu: np.ndarray, s) -> np.ndarray:
    """The curves of :func:`_k0_curves` for all three factors, elementwise.

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


def _k0_batch(gamma: float, lams: Sequence[float],
              mus: Sequence[float]) -> list[tuple[list[_Root], list[_Root]] | ToleranceError]:
    """The merged roots below and above of every (lams[i], mus[i]) at zero
    fiber, solved as one batch, or the point's ``ToleranceError``.

    The moments do not depend on the couplings, so the count-first scheme
    of :func:`_curve_crossings` runs on arrays: the four curves of every
    problem at the floor and at its window give each curve's crossing, and
    one call of :func:`_chandrupatla` (Chandrupatla 1997, elementwise in
    t = ln d) solves all crossings at once.  Pending roots (one
    :func:`_pending` call on the arrays) and merging are those of the
    scalar solver.
    The side above at (lam, mu) is the side below at (-lam, -mu), so each
    distinct problem, with -0.0 read as 0.0, is solved once.  Every step is
    elementwise, so a problem's roots do not depend on the other problems
    of the batch.  A point fails with the ``ToleranceError`` that
    :func:`spectrum_k0` raises: the :func:`_range_error` of its window, or
    the :func:`_stalled` error of its first crossing that does not
    converge, by row below the band and then above it.  A gamma that is
    not a positive real and couplings that are not finite raise
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
    g, floor = 1.0 + gamma, moments_below(MESH_FLOOR, gamma)
    lam, mu = problems.real, problems.imag
    window = _search_window(lam, mu)
    beyond = window > COUPLING_MAX * g
    failed = {p: _range_error(window[p], g) for p in np.flatnonzero(beyond).tolist()}
    # problems beyond the range fail, and solve as zero couplings
    lam, mu = np.where(beyond, 0.0, lam), np.where(beyond, 0.0, mu)
    window = np.where(beyond, 1.0, window)
    eta_floor = _curves_array(lam, mu, np.array(floor)[:, None])
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

    # the residual at the bracket ends is the curves at the floor and at the
    # window, bit for bit
    x, status, nit = _chandrupatla(residual, np.full(row.size, t_lo), t_hi,
                                   eta_floor[row, prob] + 1.0, eta_window[row, prob] + 1.0,
                                   args=(lam[prob], mu[prob], row, t_hi, ends))
    found: list[list[_Root]] = [[] for _ in problems]
    ok = status == 0
    for r, p, d in zip(row[ok].tolist(), prob[ok].tolist(),
                       distance(x[ok], t_hi[ok], ends[ok]).tolist()):
        found[p].append(_Root(d, *_CURVE_ROWS[r]))
    # the crossings come by row, so a problem keeps its first stalled row
    stalled: dict[int, tuple[str, int, int]] = {}
    for i in np.flatnonzero(~ok).tolist():
        stalled.setdefault(int(prob[i]), (_CURVE_NAMES[row[i]], int(status[i]), int(nit[i])))
    flag, alpha, beta = _pending(lam, mu, g, calibrate_edge_constants(gamma), floor)
    for p in np.flatnonzero(flag).tolist():
        found[p].append(_pinned_root(float(alpha[p]), float(beta[p])))
    merged = [_merge_found(f) for f in found]
    # a point's window is out of range on both sides or on neither
    return [failed.get(b) or (_stalled(False, *stalled[b]) if b in stalled else
                              _stalled(True, *stalled[a]) if a in stalled else
                              (merged[b], merged[a]))
            for b, a in zip(below, above)]


# ---------------------------------------------------------------------------
# general fiber: eigenvalue-curve counting


def _threshold_count(j: np.ndarray, gmat: np.ndarray) -> tuple[int, list[float]]:
    """Number of Birman-Schwinger curves below -1, and the ascending curves.

    The curves are the eigenvalues of L^T G L with J = L L^T, G = ``gmat``
    the diagonal weight matrix, which holds below the band.  Above it pass
    (-J, -G).  One LAPACK ``dsygvd`` call (the generalized problem G J x =
    eta x, itype 3) factors J, forms L^T G L and solves it.  J and G are
    left as given: the solve reads the floor's J again for its pending
    counts.  A J that is not positive definite raises
    :class:`GramMatrixError`, an eigensolve that does not converge
    :class:`ToleranceError`.
    """
    n = len(j)
    eta, _, info = dsygvd(gmat, j, itype=3, jobz="N")
    if info > n:
        raise GramMatrixError(f"Gram matrix is not positive definite (leading minor {info - n})")
    if info:
        raise ToleranceError(f"Birman-Schwinger eigensolve did not converge (LAPACK info {info})")
    eta = eta.tolist()
    return bisect_left(eta, -1.0), eta


def _fiber_curves(K: TorusPoint, params: ModelParams,
                  blocks: Callable[[float], GramBlocks]) -> Callable[[float], list[float]]:
    """Ascending Birman-Schwinger curves below the band, as a function of
    the distance, with the weights bound once.

    ``blocks(d)`` gives the :meth:`FiberGram.blocks` split (even, s1, s2)
    of J.  G is a scalar on each rotated mode pair, so the curves of J are
    those of the blocks: mu/2 s1, mu/2 s2 and the :func:`_threshold_count`
    curves of the even block with weights diag(lam, mu/2, mu/2).  An even
    block that is not positive definite raises :class:`GramMatrixError`.
    """
    half_mu = 0.5 * params.mu
    gmat = np.diag([params.lam, half_mu, half_mu])

    def curves(d: float) -> list[float]:
        even, s1, s2 = blocks(d)
        try:
            eta = _threshold_count(even, gmat)[1]
        except GramMatrixError as exc:
            raise GramMatrixError(f"below the band at K = ({K.p1}, {K.p2}), gamma = "
                                  f"{params.gamma}, d = {d}: {exc}") from None
        return sorted(eta + [half_mu * s1, half_mu * s2])
    return curves


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
    return _report(K, params, band, below, above)


# R^T u, the rank-one edge slope of J in the rotated frame, on the even block;
# its sine components vanish
_EDGE_MODES = (1.0, _SQRT2, _SQRT2)


def _det3(a: Sequence[float], b: Sequence[float], c: Sequence[float]) -> float:
    """Determinant of the 3x3 matrix with columns a, b and c, by cofactors
    along the first column."""
    return (a[0] * (b[1] * c[2] - b[2] * c[1]) - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


def _pending_count(fiber: FiberGram, params: ModelParams, even_floor: np.ndarray) -> int:
    """Roots between the mesh floor and the edge, from the edge limit of J.

    Near the edge J(d) = J_floor - sigma u u^T (t - t_f) + O(d ln d) in
    t = ln d, t_f = ln MESH_FLOOR, with sigma = 1/(2 pi sqrt(R1 R2)) > 0 and
    u = (1, sqrt2 cos phi1, sqrt2 cos phi2, sqrt2 sin phi1, sqrt2 sin phi2).
    With A = I + G J_floor the matrix determinant lemma makes the model
    determinant exactly affine in t:

        det(I + G J(t)) = det A + sigma (t - t_f) det([[A, G u], [u^T, 0]]),

    and the bordered determinant needs no inverse of a nearly singular A.
    In the rotated frame of :class:`FiberGram` R^T u = (1, sqrt2, sqrt2, 0,
    0), so the sine factors (1 + mu/2 s_i) multiply det A and the bordered
    determinant alike, and both reduce to the even block ``even_floor``.
    The determinant is the product of (1 + curve), the count is monotone in
    d and a rank-one change moves at most one curve across -1, so one root
    is pending exactly when the sign as t -> -inf, that of -det(bordered),
    differs from that of det A: when det A and det(bordered) have the same
    sign.  Both are Python floats: det A by 3x3 cofactors, det(bordered) by
    expansion along its border row (1, sqrt2, sqrt2, 0) into three 3x3
    cofactor determinants.  The border column G u is scaled to unit
    maximum, which keeps the sign.  A bordered determinant within 64 ulp of
    the product of its column norms has no sign, as on a region boundary,
    and counts no root.  That bound covers the rounding: each of the 18
    terms of the expansion, a product of four entries, is rounded at most
    9 times, and the permanent of the absolute entries is at most 4!/4^2 =
    1.5 times the product of the column norms (E. Carlen, E. H. Lieb and
    M. Loss, Methods Appl. Anal. 13, 1 (2006)), about 14 ulp; the rounded
    entries, each within 3 ulp of its column norm (at least 1, from the
    border row), move the determinant by about 20 ulp more (Hadamard).

    With R1 R2 = 0, J diverges like d^(-1/2) and has no such model; the
    count returns 0, although roots can lie between the floor and the edge
    there.  A product R1 R2 that rounds to about 1e-16 instead of 0 (gamma
    = 1, K_i = pi) reads the model at a floor where J still diverges like
    d^(-1/2).  Both can undercount.
    """
    if fiber.r1 * fiber.r2 == 0.0:
        return 0
    lam, half_mu = params.lam, 0.5 * params.mu
    v1, v2, v3 = _EDGE_MODES
    gu = (lam * v1, half_mu * v2, half_mu * v3)
    top = max(abs(gu[0]), abs(gu[1]))
    border = (gu[0] / top, gu[1] / top, gu[2] / top)
    (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = even_floor.tolist()
    # the columns of A = I + G J_floor
    a1 = (1.0 + lam * j00, half_mu * j10, half_mu * j20)
    a2 = (lam * j01, 1.0 + half_mu * j11, half_mu * j21)
    a3 = (lam * j02, half_mu * j12, 1.0 + half_mu * j22)
    det_floor = _det3(a1, a2, a3)
    det_bordered = (v2 * _det3(a1, a3, border) - v1 * _det3(a2, a3, border)
                    - v3 * _det3(a1, a2, border))
    noise = 64.0 * _EPS * (math.hypot(*a1, v1) * math.hypot(*a2, v2)
                           * math.hypot(*a3, v3) * math.hypot(*border))
    if det_floor == 0.0 or abs(det_bordered) <= noise:
        return 0
    return int((det_floor > 0.0) == (det_bordered > 0.0))


_GENERAL_ROWS = ((FactorKind.GENERAL, Sector.MIXED, 1),) * 5


def spectrum_general(K: TorusPoint, params: ModelParams) -> SpectrumReport:
    """Discrete spectrum at an arbitrary fiber.

    :func:`_solve` on the five rows of :func:`_fiber_curves`, with the Gram
    blocks of one :class:`FiberGram` at each distance; the rows at (-lam,
    -mu) are these negated in reverse order.  Roots between the mesh floor
    and the edge are counted from the edge limit of the Gram matrix (see
    :func:`_pending_count`) and pinned at PINNED_MIN.  A flat fiber takes
    :func:`_degenerate_spectrum`.
    """
    band = band_edges(K, params)
    if band.degenerate:
        return _degenerate_spectrum(K, params, band)
    fiber = FiberGram(K, params.gamma)

    def pending(side: ModelParams, floor: GramBlocks) -> list[_Root]:
        return [_Root(PINNED_MIN, *_GENERAL_ROWS[0], pinned=True)] * _pending_count(
            fiber, side, floor[0])

    return _solve(K, params, band, fiber.blocks, partial(_fiber_curves, K, params), _GENERAL_ROWS,
                  "curve {}".format, lambda eta: [-v for v in reversed(eta)], pending)
