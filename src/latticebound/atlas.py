"""Phase atlas: coupling-plane regions, predicted counts, and sweeps.

The (lam, mu) plane splits into regions on which the number of bound states
on each side of the band is constant.  Three families of curves do the
cutting, all scaling linearly in g = 1 + gamma:

* the sign of S+ = 2*mu + lam - lam*mu/g (above) and of
  S- = 2*mu + lam + lam*mu/g (below), together with mu vs +-g, fixes how
  many roots the coupled even-channel determinant contributes (0, 1 or 2);
* |mu| against the decoupled-even threshold t_s adds one root;
* |mu| against the odd-channel threshold t_d adds a double root.

The thresholds are reciprocals of the exact band-edge limits of integral
combinations.  A circulating closed form puts t_s at half the computed
value; `threshold_scan` measures which one the operator actually obeys.

The shift p -> p + (pi, pi) maps the count above the band at (lam, mu) to
the count below it at (-lam, -mu), and S+(lam, mu) = -S-(-lam, -mu), so the
plus family is the minus family read at (-lam, -mu).  Circulating
statements of the count table swap the plus-side sign conditions on S+;
that reading predicts 5 states above the band at (lam, mu) = (1, 10), where
direct diagonalization and the grid oracle find 4.

Sweeps solve every K = 0 point of the grid in-process as one batch and
place each point's roots from the batch (`spectrum._k0_batch`) straight
into its row, with no report per point; labels and counts are
computed once per grid point and shared by its fibers.  A worker pool
serves only the general-fiber points, because a whole batched plane costs
less than starting one worker.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ModelParams, TorusPoint, ORIGIN
from .errors import NUMERICAL_ERRORS, ToleranceError
from .determinants import slope_below
from .integrals import Side, calibrate_edge_constants, watson_integrals_at
from .spectrum import _k0_batch, spectrum_general

BOUNDARY_TOL = 1e-12   # distance from a defining equality that labels "b"


# ---------------------------------------------------------------------------
# thresholds


@dataclass(frozen=True)
class Thresholds:
    """Positive mu-thresholds for the decoupled-even and odd channels."""

    t_s: float
    t_d: float


def binding_thresholds(gamma: float) -> Thresholds:
    """mu levels at which the decoupled channels start binding.

    t_s = 1 / lim (c - e) and t_d = 1 / lim f, both limits taken at the
    lower edge where they are positive; the upper edge gives the same
    numbers with opposite sign, hence the symmetric regions at -t_s, -t_d.
    """
    _, _, _, off_c, off_e, off_f = calibrate_edge_constants(gamma)
    return Thresholds(t_s=1.0 / (off_c - off_e), t_d=1.0 / off_f)


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True, slots=True)
class RegionLabel:
    """Which cell of each region family a coupling pair falls in.

    Labels ending in "b" sit within ``BOUNDARY_TOL`` of a defining
    equality; the label then names the cell whose count survives in the
    closure (smaller count wins: a root absorbed exactly at threshold is not
    a bound state).
    """

    s_region: str
    d_region: str
    c_plus: str
    c_minus: str
    s_plus: float
    s_minus: float
    thresholds: Thresholds


def _axis_region(mu: float, t: float, stem: str) -> str:
    if abs(mu - t) <= BOUNDARY_TOL or abs(mu + t) <= BOUNDARY_TOL:
        return f"{stem}b"
    if mu > t:
        return f"{stem}+"
    if mu < -t:
        return f"{stem}-"
    return stem


def _c_family(s_minus: np.ndarray, mu: np.ndarray, g: float, sign: str) -> list:
    """Coupled-even cell below the band at each point, suffixed with ``sign``:
    C0 = {S- > 0, mu > -g}, C1 = {S- < 0}, C2 = {S- > 0, mu < -g}.  Boundary
    resolution follows closure precedence C0 -> C1 -> C2."""
    outer_mu = mu < -g - BOUNDARY_TOL
    on_s = abs(s_minus) <= BOUNDARY_TOL
    cells = np.select([on_s & outer_mu, on_s, ~(s_minus > 0.0), outer_mu,
                       abs(mu + g) <= BOUNDARY_TOL],
                      [f"C1{sign}b", f"C0{sign}b", f"C1{sign}", f"C2{sign}", f"C0{sign}b"],
                      f"C0{sign}")
    return cells.tolist()


def _grid_labels(lams: list[float], mus: list[float],
                 gamma: float) -> list[tuple[RegionLabel, PredictedCounts]]:
    """The region label and :func:`predicted_counts` at every (lam, mu) of
    the grid, lam outer; the one label builder, which :func:`classify`
    runs at one point.  S+, S- and the coupled-even cells are computed
    elementwise with the scalar arithmetic, the thresholds once, the
    mu-axis regions once per mu, and the counts once per distinct label,
    on which alone they depend."""
    g, thr = 1.0 + gamma, binding_thresholds(gamma)
    lam, mu = np.array(lams)[:, None], np.array(mus)
    # S+ keeps its own expression: as -S-(-lam, -mu) an exact +0.0 would be -0.0
    s_plus, s_minus = 2.0 * mu + lam - lam * mu / g, slope_below(lam, mu, g)
    # above the band: the minus family at (-lam, -mu), where S- = -S+
    c_plus, c_minus = _c_family(-s_plus, -mu, g, "+"), _c_family(s_minus, mu, g, "-")
    axis = [(_axis_region(mu, thr.t_s, "S0"), _axis_region(mu, thr.t_d, "D0")) for mu in mus]
    preds: dict[tuple[tuple[str, str], str, str], PredictedCounts] = {}
    out = []
    for lam_row in zip(s_plus.tolist(), s_minus.tolist(), c_plus, c_minus):
        for regions, sp, sm, cp, cm in zip(axis, *lam_row):
            label = RegionLabel(*regions, cp, cm, sp, sm, thr)
            key = (regions, cp, cm)
            pred = preds.get(key)
            if pred is None:
                pred = preds[key] = predicted_counts(label)
            out.append((label, pred))
    return out


def classify(params: ModelParams) -> RegionLabel:
    """Place (lam, mu) in the three region families."""
    return _grid_labels([params.lam], [params.mu], params.gamma)[0][0]


# ---------------------------------------------------------------------------
# predicted counts


_C_CONTRIB = {"C0": 0, "C1": 1, "C2": 2}


@dataclass(frozen=True, slots=True)
class PredictedCounts:
    """Bound-state counts implied by a region label.

    At zero quasimomentum the counts are exact; at nonzero quasimomentum
    they are lower bounds, except that a side predicting 5 stays exactly 5
    (the interaction has rank five, so no side can exceed it).
    """

    n_below_k0: int
    n_above_k0: int
    parts_below: tuple[int, int, int]   # (coupled-even, decoupled-even, odd)
    parts_above: tuple[int, int, int]
    lower_bound_below_k: int
    lower_bound_above_k: int
    exact_below_all_k: bool
    exact_above_all_k: bool


def predicted_counts(label: RegionLabel) -> PredictedCounts:
    c_above = _C_CONTRIB[label.c_plus[:2]]
    c_below = _C_CONTRIB[label.c_minus[:2]]
    s_above = 1 if label.s_region == "S0+" else 0
    s_below = 1 if label.s_region == "S0-" else 0
    d_above = 2 if label.d_region == "D0+" else 0
    d_below = 2 if label.d_region == "D0-" else 0
    n_above = c_above + s_above + d_above
    n_below = c_below + s_below + d_below
    return PredictedCounts(
        n_below_k0=n_below, n_above_k0=n_above,
        parts_below=(c_below, s_below, d_below),
        parts_above=(c_above, s_above, d_above),
        lower_bound_below_k=n_below, lower_bound_above_k=n_above,
        exact_below_all_k=(n_below == 5), exact_above_all_k=(n_above == 5),
    )


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True, slots=True)
class SweepRow:
    """One (lam, mu, K) evaluation of prediction vs computation."""

    lam: float
    mu: float
    gamma: float
    K: TorusPoint
    label: RegionLabel | None
    pred: PredictedCounts | None
    comp_below: int | None
    comp_above: int | None
    eigs_below: tuple[float, ...]
    eigs_above: tuple[float, ...]
    agree: bool
    error: str


def _expand(report_side) -> tuple[float, ...]:
    return tuple(ev.z for ev in report_side for _ in range(ev.multiplicity))


def _failed_row(lam: float, mu: float, gamma: float, K: TorusPoint,
                exc: Exception) -> SweepRow:
    return SweepRow(lam, mu, gamma, K, None, None, None, None, (), (), False,
                    f"{type(exc).__name__}: {exc}")


def _general_point(task: tuple) -> tuple[tuple[float, ...], tuple[float, ...]] | Exception:
    """The states below and above of one general-fiber solve of a sweep; a
    typed numerical failure is returned."""
    lam, mu, gamma, k1, k2 = task
    try:
        rep = spectrum_general(TorusPoint(k1, k2), ModelParams(gamma, lam, mu))
    except NUMERICAL_ERRORS as exc:
        return exc
    return _expand(rep.below), _expand(rep.above)


def _zero_fiber_states(gamma: float, lams: Sequence[float], mus: Sequence[float]) -> list:
    """The states below and above of every (lams[i], mus[i]) at K = 0, placed
    from the roots of :func:`spectrum._k0_batch`: -d below the band and
    4g + d above it, each repeated by its multiplicity.  The merged roots
    come ascending in d, so the states below are their reverse and those
    above their order, both ascending.  A point that failed keeps its
    ``ToleranceError``."""
    hi = 4.0 * (1.0 + gamma)
    return [point if isinstance(point, ToleranceError) else
            (tuple([-r.d for r in reversed(point[0]) for _ in range(r.multiplicity)]),
             tuple([hi + r.d for r in point[1] for _ in range(r.multiplicity)]))
            for point in _k0_batch(gamma, lams, mus)]


def _row(lam: float, mu: float, gamma: float, K: TorusPoint, zero: bool,
         states, label: RegionLabel, pred: PredictedCounts) -> SweepRow:
    """One sweep row from the states below and above of one solve, or its
    typed numerical failure; ``zero`` is K == ORIGIN."""
    if isinstance(states, NUMERICAL_ERRORS):
        return _failed_row(lam, mu, gamma, K, states)
    below, above = states
    nb, na = len(below), len(above)
    if zero:
        agree = nb == pred.n_below_k0 and na == pred.n_above_k0
    else:
        agree = (nb >= pred.lower_bound_below_k
                 and na >= pred.lower_bound_above_k
                 and (not pred.exact_below_all_k or nb == 5)
                 and (not pred.exact_above_all_k or na == 5))
    return SweepRow(lam, mu, gamma, K, label, pred, nb, na, below, above, agree, "")


def _axis_values(lo: float, hi: float, step: float) -> list[float]:
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("sweep range must be finite")
    if not step > 0.0:
        raise ValueError("sweep step must be positive")
    if hi < lo:
        raise ValueError("empty sweep range")
    n = int(math.floor((hi - lo) / step + 1e-9))
    return [round(lo + i * step, 12) for i in range(n + 1)]


def sweep(lam_range: tuple[float, float], mu_range: tuple[float, float],
          step: float, gamma: float = 1.0,
          K_list: Sequence[TorusPoint] = (ORIGIN,),
          workers: int = 1) -> list[SweepRow]:
    """Evaluate prediction vs computation over a coupling grid.

    Rows come back in row-major order (lam outer, mu inner, then K_list
    order) regardless of worker count, so equal configurations produce
    identical tables. A point's typed numerical failure (``NUMERICAL_ERRORS``)
    lands in its row's error field; any other exception propagates.  The
    K = 0 points are solved in-process as one batch, once however often
    K_list holds the origin; with ``workers > 1`` the pool serves the other
    fibers.  The thresholds and labels are built once per grid point.  A
    gamma that is not a positive real and a range that is not finite raise
    ``ValueError`` before any solve.
    """
    ModelParams(gamma)   # rejects a gamma that is not a positive real
    lams, mus = _axis_values(*lam_range, step), _axis_values(*mu_range, step)
    grid = [(lam, mu) for lam in lams for mu in mus]
    # by position in K_list, not by K: TorusPoint(-0.0, 0.0) == ORIGIN
    fibers = [(K, K == ORIGIN) for K in K_list]
    others = [K for K, zero in fibers if not zero]
    at_zero = (_zero_fiber_states(gamma, *zip(*grid)) if len(others) < len(fibers)
               else [None] * len(grid))
    tasks = [(lam, mu, gamma, K.p1, K.p2) for lam, mu in grid for K in others]
    if workers <= 1 or not tasks:
        general = [_general_point(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(tasks) // (workers * 8))
            general = list(pool.map(_general_point, tasks, chunksize=chunk))
    rest = iter(general)
    return [_row(lam, mu, gamma, K, zero, states if zero else next(rest), label, pred)
            for (lam, mu), (label, pred), states in zip(grid, _grid_labels(lams, mus, gamma),
                                                        at_zero)
            for K, zero in fibers]


# ---------------------------------------------------------------------------
# threshold adjudication


@dataclass(frozen=True)
class ThresholdScanResult:
    """Where the decoupled-even bound state appears on the mu axis."""

    gamma: float
    appearance_mu: float            # mu beyond which a sample binds
    candidate_published: float      # pi g / (2 (4 - pi)), the circulating t_s
    candidate_computed: float
    matches_computed: bool          # the computed candidate is the nearer


def threshold_scan(gamma: float = 1.0) -> ThresholdScanResult:
    """Read the birth of the decoupled-even bound state at lam = 0 off the moments.

    The decoupled even channel binds above the band once 1 + mu (c - e)
    goes negative at some distance.  Above the band c - e < 0, so over 160
    distances from 1e-10 to 2g the first mu with a sign change is
    1 / max(e - c), in closed form.  The computed t_s and the circulating
    closed form pi g / (2 (4 - pi)) differ by a factor two; the scan
    reports whether the moments produce the computed one.
    """
    deltas = np.geomspace(1e-10, 2.0 * (1.0 + gamma), 160).tolist()
    sets = [watson_integrals_at(Side.ABOVE, d, gamma) for d in deltas]
    appearance = 1.0 / max(s.e - s.c for s in sets)
    cand_pub = math.pi * (1.0 + gamma) / (2.0 * (4.0 - math.pi))
    cand_comp = binding_thresholds(gamma).t_s
    return ThresholdScanResult(
        gamma=gamma, appearance_mu=appearance, candidate_published=cand_pub,
        candidate_computed=cand_comp,
        matches_computed=abs(appearance - cand_comp) <= abs(appearance - cand_pub))
