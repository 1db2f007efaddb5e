"""Phase atlas: coupling-plane regions, predicted counts, and sweeps.

The (lam, mu) plane splits into regions on which the number of bound states
on each side of the band is constant.  Three families of curves do the
cutting, all scaling linearly in g = 1 + gamma:

* the sign of S+ = 2*mu + lam - lam*mu/g (above) and of
  S- = 2*mu + lam + lam*mu/g (below), together with mu vs +-g, fixes how
  many roots the coupled even-channel determinant contributes (0, 1 or 2);
* |mu| against the decoupled-even threshold t_s adds one root;
* |mu| against the odd-channel threshold t_d adds a double root.

The thresholds are reciprocals of band-edge limits of integral
combinations, so they exist in two flavors: the published closed forms and
the exact edge limits this package computes (`ConstantsSource`).  The two
disagree about t_s by a factor of two; `threshold_scan` measures which one
the operator actually obeys.

The shift p -> p + (pi, pi) maps the count above the band at (lam, mu) to
the count below it at (-lam, -mu), and S+(lam, mu) = -S-(-lam, -mu), so the
plus family is the minus family read at (-lam, -mu).  Circulating
statements of the count table swap the plus-side sign conditions on S+;
that reading predicts 5 states above the band at (lam, mu) = (1, 10), where
direct diagonalization and the grid oracle find 4.

Sweeps solve every K = 0 point of the grid in-process as one batch
(`spectrum.spectra_k0`); a worker pool serves only the general-fiber
points, because a whole batched plane costs less than starting one worker.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ModelParams, TorusPoint, ORIGIN
from .determinants import slope_below
from .errors import NUMERICAL_ERRORS
from .integrals import (ConstantsSource, Side, predicted_asymptote,
                        watson_integrals_at)
from .spectrum import SpectrumReport, spectra_k0, spectrum_general

BOUNDARY_TOL = 1e-12   # distance from a defining equality that labels "b"


# ---------------------------------------------------------------------------
# thresholds


@dataclass(frozen=True)
class Thresholds:
    """Positive mu-thresholds for the decoupled-even and odd channels."""

    t_s: float
    t_d: float
    gamma: float
    source: ConstantsSource


def binding_thresholds(gamma: float,
                       source: ConstantsSource = ConstantsSource.COMPUTED,
                       ) -> Thresholds:
    """mu levels at which the decoupled channels start binding.

    t_s = 1 / lim (c - e) and t_d = 1 / lim f, both limits taken at the
    lower edge where they are positive; the upper edge gives the same
    numbers with opposite sign, hence the symmetric regions at -t_s, -t_d.
    """
    off_c = predicted_asymptote("c", Side.BELOW, gamma, source).offset
    off_e = predicted_asymptote("e", Side.BELOW, gamma, source).offset
    off_f = predicted_asymptote("f", Side.BELOW, gamma, source).offset
    return Thresholds(t_s=1.0 / (off_c - off_e), t_d=1.0 / off_f,
                      gamma=gamma, source=source)


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


def classify(params: ModelParams,
             source: ConstantsSource = ConstantsSource.COMPUTED) -> RegionLabel:
    """Place (lam, mu) in the three region families.

    The thresholds t_s and t_d come from the edge constants of ``source``.
    """
    return _classify(params, binding_thresholds(params.gamma, source))


def _classify(params: ModelParams, thr: Thresholds) -> RegionLabel:
    """:func:`classify` with the thresholds given, as a sweep computes them once."""
    g = params.g
    s_plus = 2.0 * params.mu + params.lam - params.lam * params.mu / g
    s_minus = slope_below(params)
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


def _general_point(task: tuple) -> SpectrumReport | Exception:
    """One general-fiber solve of a sweep; a typed numerical failure is returned."""
    lam, mu, gamma, k1, k2 = task
    try:
        return spectrum_general(TorusPoint(k1, k2), ModelParams(gamma, lam, mu))
    except NUMERICAL_ERRORS as exc:
        return exc


def _sweep_row(lam: float, mu: float, gamma: float, K: TorusPoint,
               rep: SpectrumReport | Exception, thr: Thresholds) -> SweepRow:
    if isinstance(rep, NUMERICAL_ERRORS):
        return _failed_row(lam, mu, gamma, K, rep)
    label = _classify(rep.params, thr)
    pred = predicted_counts(label)
    nb, na = rep.n_below, rep.n_above
    if K == ORIGIN:
        agree = nb == pred.n_below_k0 and na == pred.n_above_k0
    else:
        agree = (nb >= pred.lower_bound_below_k
                 and na >= pred.lower_bound_above_k
                 and (not pred.exact_below_all_k or nb == 5)
                 and (not pred.exact_above_all_k or na == 5))
    return SweepRow(lam=lam, mu=mu, gamma=gamma, K=K, label=label,
                    pred=pred, comp_below=nb, comp_above=na,
                    eigs_below=_expand(rep.below),
                    eigs_above=_expand(rep.above),
                    agree=agree, error="")


def _axis_values(lo: float, hi: float, step: float) -> list[float]:
    if step <= 0.0:
        raise ValueError("sweep step must be positive")
    if hi < lo:
        raise ValueError("empty sweep range")
    n = int(math.floor((hi - lo) / step + 1e-9))
    return [round(lo + i * step, 12) for i in range(n + 1)]


def sweep(lam_range: tuple[float, float], mu_range: tuple[float, float],
          step: float, gamma: float = 1.0,
          K_list: Sequence[TorusPoint] = (ORIGIN,),
          source: ConstantsSource = ConstantsSource.COMPUTED,
          workers: int = 1) -> list[SweepRow]:
    """Evaluate prediction vs computation over a coupling grid.

    Rows come back in row-major order (lam outer, mu inner, then K_list
    order) regardless of worker count, so equal configurations produce
    identical tables. A point's typed numerical failure (``NUMERICAL_ERRORS``)
    lands in its row's error field; any other exception propagates.  The
    K = 0 points are solved in-process as one batch; with ``workers > 1``
    the pool serves the other fibers.  The thresholds are built once.
    """
    thr = binding_thresholds(gamma, source)
    points = [(lam, mu, K) for lam in _axis_values(*lam_range, step)
              for mu in _axis_values(*mu_range, step) for K in K_list]
    zero = [(lam, mu) for lam, mu, K in points if K == ORIGIN]
    at_zero = spectra_k0(gamma, [lam for lam, _ in zero], [mu for _, mu in zero])
    tasks = [(lam, mu, gamma, K.p1, K.p2) for lam, mu, K in points if K != ORIGIN]
    if workers <= 1 or not tasks:
        general = [_general_point(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(tasks) // (workers * 8))
            general = list(pool.map(_general_point, tasks, chunksize=chunk))
    reps = iter(at_zero), iter(general)
    return [_sweep_row(lam, mu, gamma, K, next(reps[K != ORIGIN]), thr)
            for lam, mu, K in points]


# ---------------------------------------------------------------------------
# threshold adjudication


@dataclass(frozen=True)
class ThresholdScanResult:
    """Outcome of the mu-axis scan for the decoupled-even threshold."""

    gamma: float
    appearance_mu: float            # first grid mu with a bound state
    candidate_published: float
    candidate_computed: float
    nearest: ConstantsSource
    mu_step: float


def threshold_scan(gamma: float = 1.0, mu_lo: float = 3.0, mu_hi: float = 8.0,
                   step: float = 1e-3) -> ThresholdScanResult:
    """Scan lam=0 along mu for the birth of the decoupled-even bound state.

    The decoupled even channel binds above the band once 1 + mu*(c-e) goes
    negative near the edge, so the channel's threshold is visible as the mu
    where a sign change first appears.  Both closed-form candidates for the
    threshold differ by a factor two; the scan reports which one the
    integrals actually produce.
    """
    deltas = np.geomspace(1e-10, 2.0 * (1.0 + gamma), 160)
    sets = [watson_integrals_at(Side.ABOVE, d, gamma) for d in deltas]
    ce = np.array([s.c - s.e for s in sets])
    mus = np.array(_axis_values(mu_lo, mu_hi, step))
    has_root = ((1.0 + np.outer(mus, ce)) < 0.0).any(axis=1)
    if not has_root.any():
        raise ValueError("no binding threshold inside the scanned mu range")
    appearance = float(mus[int(np.argmax(has_root))])
    cand_pub = binding_thresholds(gamma, ConstantsSource.PUBLISHED).t_s
    cand_comp = binding_thresholds(gamma, ConstantsSource.COMPUTED).t_s
    nearest = (ConstantsSource.PUBLISHED
               if abs(appearance - cand_pub) < abs(appearance - cand_comp)
               else ConstantsSource.COMPUTED)
    return ThresholdScanResult(gamma=gamma, appearance_mu=appearance,
                               candidate_published=cand_pub,
                               candidate_computed=cand_comp,
                               nearest=nearest, mu_step=step)
