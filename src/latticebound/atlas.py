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
build its rows straight from the batch's one-sided roots
(`spectrum._k0_batch`), with no report per point; labels and counts are
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
from .errors import NUMERICAL_ERRORS
from .integrals import Side, predicted_asymptote, watson_integrals_at
from .spectrum import _k0_batch, spectrum_general

BOUNDARY_TOL = 1e-12   # distance from a defining equality that labels "b"


# ---------------------------------------------------------------------------
# thresholds


@dataclass(frozen=True)
class Thresholds:
    """Positive mu-thresholds for the decoupled-even and odd channels."""

    t_s: float
    t_d: float
    gamma: float


def binding_thresholds(gamma: float) -> Thresholds:
    """mu levels at which the decoupled channels start binding.

    t_s = 1 / lim (c - e) and t_d = 1 / lim f, both limits taken at the
    lower edge where they are positive; the upper edge gives the same
    numbers with opposite sign, hence the symmetric regions at -t_s, -t_d.
    """
    off_c = predicted_asymptote("c", Side.BELOW, gamma).offset
    off_e = predicted_asymptote("e", Side.BELOW, gamma).offset
    off_f = predicted_asymptote("f", Side.BELOW, gamma).offset
    return Thresholds(t_s=1.0 / (off_c - off_e), t_d=1.0 / off_f, gamma=gamma)


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
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


def _c_family(s_minus: float, mu: float, g: float, sign: str) -> str:
    """Coupled-even cell below the band, suffixed with ``sign``: C0 = {S- > 0,
    mu > -g}, C1 = {S- < 0}, C2 = {S- > 0, mu < -g}.  Boundary resolution
    follows closure precedence C0 -> C1 -> C2."""
    inner = s_minus > 0.0   # the C0/C2 side of S- = 0
    outer_mu = mu < -g - BOUNDARY_TOL
    if abs(s_minus) <= BOUNDARY_TOL:
        return f"C1{sign}b" if outer_mu else f"C0{sign}b"
    if not inner:
        return f"C1{sign}"
    if outer_mu:
        return f"C2{sign}"
    return f"C0{sign}b" if abs(mu + g) <= BOUNDARY_TOL else f"C0{sign}"


def _slopes(lam, mu, g):
    """S+ and S- at (lam, mu), floats or arrays alike."""
    return 2.0 * mu + lam - lam * mu / g, 2.0 * mu + lam + lam * mu / g


def classify(params: ModelParams) -> RegionLabel:
    """Place (lam, mu) in the three region families."""
    thr = binding_thresholds(params.gamma)
    g = params.g
    s_plus, s_minus = _slopes(params.lam, params.mu, g)
    return RegionLabel(
        s_region=_axis_region(params.mu, thr.t_s, "S0"),
        d_region=_axis_region(params.mu, thr.t_d, "D0"),
        # above the band: the minus family at (-lam, -mu), where S- = -S+
        # exactly, because rounding to nearest is symmetric
        c_plus=_c_family(-s_plus, -params.mu, g, "+"),
        c_minus=_c_family(s_minus, params.mu, g, "-"),
        s_plus=s_plus, s_minus=s_minus, thresholds=thr,
    )


# ---------------------------------------------------------------------------
# predicted counts


_C_CONTRIB = {"C0": 0, "C1": 1, "C2": 2}


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
    return SweepRow(lam=lam, mu=mu, gamma=gamma, K=K, label=None,
                    pred=None, comp_below=None, comp_above=None,
                    eigs_below=(), eigs_above=(), agree=False,
                    error=f"{type(exc).__name__}: {exc}")


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
    """The states below and above of every (lams[i], mus[i]) at K = 0, read
    from the one-sided roots of :func:`spectrum._k0_batch`: -d below the
    band and 4g + d above it, each repeated by its multiplicity.  A point
    whose side failed to converge gets the ``ToleranceError``."""
    batch = _k0_batch(gamma, lams, mus)
    hi = 4.0 * (1.0 + gamma)
    depths = [[r.d for r in roots for _ in range(r.multiplicity)] for roots in batch.roots]
    return [batch.failure(below, above) or (tuple(sorted(-d for d in depths[below])),
                                            tuple(sorted(hi + d for d in depths[above])))
            for below, above in batch.sides]


def _grid_labels(lams: list[float], mus: list[float], gamma: float,
                 thr: Thresholds) -> list[tuple[RegionLabel, PredictedCounts]]:
    """:func:`classify` and :func:`predicted_counts` at every (lam, mu) of
    the grid, lam outer.  S+ and S- are computed elementwise with the
    scalar arithmetic, the mu-axis regions once per mu, and the counts once
    per distinct label, on which alone they depend."""
    g = 1.0 + gamma
    s_plus, s_minus = (a.tolist() for a in _slopes(np.array(lams)[:, None], np.array(mus), g))
    axis = [(_axis_region(mu, thr.t_s, "S0"), _axis_region(mu, thr.t_d, "D0")) for mu in mus]
    preds: dict[tuple[str, str, str, str], PredictedCounts] = {}
    out = []
    for sp_row, sm_row in zip(s_plus, s_minus):
        for mu, regions, sp, sm in zip(mus, axis, sp_row, sm_row):
            label = RegionLabel(*regions, c_plus=_c_family(-sp, -mu, g, "+"),
                                c_minus=_c_family(sm, mu, g, "-"), s_plus=sp,
                                s_minus=sm, thresholds=thr)
            key = (*regions, label.c_plus, label.c_minus)
            if key not in preds:
                preds[key] = predicted_counts(label)
            out.append((label, preds[key]))
    return out


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
    return SweepRow(lam=lam, mu=mu, gamma=gamma, K=K, label=label,
                    pred=pred, comp_below=nb, comp_above=na,
                    eigs_below=below, eigs_above=above, agree=agree, error="")


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
    zero = [K == ORIGIN for K in K_list]
    thr = binding_thresholds(gamma)
    at_zero = _zero_fiber_states(gamma, *zip(*grid)) if any(zero) else []
    tasks = [(lam, mu, gamma, K.p1, K.p2) for lam, mu in grid
             for K, z in zip(K_list, zero) if not z]
    if workers <= 1 or not tasks:
        general = [_general_point(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(tasks) // (workers * 8))
            general = list(pool.map(_general_point, tasks, chunksize=chunk))
    rest = iter(general)
    return [_row(lam, mu, gamma, K, z, at_zero[i] if z else next(rest), label, pred)
            for i, ((lam, mu), (label, pred)) in enumerate(
                zip(grid, _grid_labels(lams, mus, gamma, thr)))
            for K, z in zip(K_list, zero)]


# ---------------------------------------------------------------------------
# threshold adjudication


@dataclass(frozen=True)
class ThresholdScanResult:
    """Outcome of the mu-axis scan for the decoupled-even threshold."""

    gamma: float
    appearance_mu: float            # first grid mu with a bound state
    candidate_published: float      # pi g / (2 (4 - pi)), the circulating t_s
    candidate_computed: float
    matches_computed: bool          # the computed candidate is the nearer
    mu_step: float


def threshold_scan(gamma: float = 1.0, mu_lo: float = 3.0, mu_hi: float = 8.0,
                   step: float = 1e-3) -> ThresholdScanResult:
    """Scan lam=0 along mu for the birth of the decoupled-even bound state.

    The decoupled even channel binds above the band once 1 + mu*(c-e) goes
    negative near the edge, so the channel's threshold is visible as the mu
    where a sign change first appears.  The computed t_s and the circulating
    closed form pi g / (2 (4 - pi)) differ by a factor two; the scan reports
    whether the integrals produce the computed one.
    """
    deltas = np.geomspace(1e-10, 2.0 * (1.0 + gamma), 160)
    sets = [watson_integrals_at(Side.ABOVE, d, gamma) for d in deltas]
    ce = np.array([s.c - s.e for s in sets])
    mus = np.array(_axis_values(mu_lo, mu_hi, step))
    has_root = ((1.0 + np.outer(mus, ce)) < 0.0).any(axis=1)
    if not has_root.any():
        raise ValueError("no binding threshold inside the scanned mu range")
    appearance = float(mus[int(np.argmax(has_root))])
    cand_pub = math.pi * (1.0 + gamma) / (2.0 * (4.0 - math.pi))
    cand_comp = binding_thresholds(gamma).t_s
    return ThresholdScanResult(
        gamma=gamma, appearance_mu=appearance, candidate_published=cand_pub,
        candidate_computed=cand_comp,
        matches_computed=abs(appearance - cand_comp) <= abs(appearance - cand_pub),
        mu_step=step)
