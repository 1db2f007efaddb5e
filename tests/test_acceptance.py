"""Acceptance suite: one verdict line per shipped guarantee.

Every test prints a single [PASS]/[FAIL] line (plus [REPORT]/[XFAIL] lines
for quantities that are published without being asserted) and then asserts.
Tolerances are part of the guarantee and appear inline.

Random draws are seeded and rejection-sampled into region interiors: a draw
is accepted only when it keeps a margin from every region boundary and its
continuum spectrum has no state shallower than 0.02 (the grid oracles
resolve bound states only above their discretization scale, and near a
boundary the newborn state is exponentially shallow).
"""

from __future__ import annotations

import io
import math

import numpy as np
import pytest

from latticebound.atlas import (binding_thresholds, classify, predicted_counts,
                                sweep)
from latticebound.cli import emit_csv
from latticebound.core import ORIGIN, ModelParams, TorusPoint
from latticebound.integrals import (Side, predicted_asymptote, watson_integrals,
                                    watson_integrals_at)
from latticebound.oracle import (GridModel, dense_validate, minimax_values,
                                 oracle_counts)
from latticebound.spectrum import FactorKind, spectrum_general, spectrum_k0


def _verdict(num: int, ok: bool, text: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


def expand(evs):
    out = []
    for ev in evs:
        out.extend([ev.z] * ev.multiplicity)
    return out


# ---------------------------------------------------------------------------
# criterion 1: exact moment identities


def test_criterion_1_moment_identities():
    gammas = (0.5, 1.0, 2.0, 3.7)
    worst, combos = 0.0, 0
    for gamma in gammas:
        g = 1.0 + gamma
        for z in (-0.05, -1.3, -6.0, 4 * g + 0.05, 4 * g + 1.3, 4 * g + 6.0):
            s = watson_integrals(z, gamma)
            pairs = (
                (s.a, s.c + s.f),
                (2.0 * g * (s.a - s.b), 1.0 + z * s.a),
                (s.c + s.e, s.b * (2.0 - z / g)),
            )
            for lhs, rhs in pairs:
                worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
            combos += 1
    _verdict(1, combos == 24 and worst < 1e-9,
             f"three moment identities at {combos} (gamma, z) points, "
             f"worst relative residual {worst:.2e} (tol 1e-9)")


# ---------------------------------------------------------------------------
# criterion 2: edge asymptotics and constant adjudication (gamma = 1)


def test_criterion_2_edge_asymptotics(edge_fit):
    gamma, g = 1.0, 2.0
    s = 1.0 / (2.0 * math.pi * g)
    problems = []

    # two-point log-slope fit at distances 1e-3 / 1e-4, both sides
    for side in (Side.BELOW, Side.ABOVE):
        m3 = watson_integrals_at(side, 1e-3, gamma)
        m4 = watson_integrals_at(side, 1e-4, gamma)
        for name in ("a", "b"):
            fit = abs(getattr(m4, name) - getattr(m3, name)) / math.log(10.0)
            if abs(fit - s) / s > 0.01:
                problems.append(f"slope of {name} ({side.value}): {fit:.6f}")

    # offsets of a and b at distance 1e-6 below the band
    near = watson_integrals_at(Side.BELOW, 1e-6, gamma)
    off_a = near.a - s * math.log(1e6)
    off_b = near.b - s * math.log(1e6)
    if abs(off_a - 5.0 * math.log(2.0) * s) > 1e-4:
        problems.append(f"offset of a: {off_a:.8f}")
    if abs(off_b - (5.0 * math.log(2.0) - math.pi) * s) > 1e-4:
        problems.append(f"offset of b: {off_b:.8f}")

    # finite edge limits of f on both sides: the closed forms against the
    # measured four-point fit
    below, above = edge_fit(gamma, Side.BELOW), edge_fit(gamma, Side.ABOVE)
    if abs(predicted_asymptote("f", Side.BELOW, gamma).offset - below["f"][1]) > 1e-6:
        problems.append("f limit below")
    if abs(predicted_asymptote("f", Side.ABOVE, gamma).offset - above["f"][1]) > 1e-6:
        problems.append("f limit above")

    # adjudicate the measured (c - e) limit between the two circulating
    # candidates; the closed form must agree with it
    ce = below["c"][1] - below["e"][1]
    ce_closed = (predicted_asymptote("c", Side.BELOW, gamma).offset
                 - predicted_asymptote("e", Side.BELOW, gamma).offset)
    if abs(ce_closed - ce) > 1e-6:
        problems.append(f"closed-form (c-e) limit {ce_closed:.8f}")
    cand_full = (4.0 - math.pi) / math.pi            # no 1/g factor
    cand_half = (4.0 - math.pi) / (math.pi * g)      # with the 1/g factor
    hit_full = abs(ce - cand_full) < 1e-6
    hit_half = abs(ce - cand_half) < 1e-6
    if hit_full + hit_half != 1:
        problems.append(f"(c-e) limit {ce:.8f} matches {hit_full + hit_half} candidates")

    _verdict(2, not problems,
             f"log slopes within 1% of 1/(2 pi g), a/b offsets within 1e-4, "
             f"f limits within 1e-6; measured (c-e) limit {ce:.8f} matches "
             f"{'(4-pi)/(pi g)' if hit_half else '(4-pi)/pi'} only"
             + (f"; problems: {problems}" if problems else ""))


# ---------------------------------------------------------------------------
# criterion 3: the count table over the coupling plane


CELL_TABLE = [
    # (row, count on the sampled side, three (lam/g, mu/g) interior points)
    ("A", 0, ((-3.0, 0.5), (-4.0, 0.6), (-2.0, -0.5))),
    ("B", 1, ((0.5, 1.5), (-0.5, 2.2), (2.0, 0.5))),
    ("C", 2, ((10.0, 2.0), (8.0, 1.5), (20.0, 2.5))),
    ("E", 4, ((4.0, 3.0), (6.0, 3.2), (10.0, 2.9))),
    ("F", 5, ((3.0, 5.0), (5.0, 4.0), (2.5, 6.0))),
]


def test_criterion_3_count_table():
    failures, checked = [], 0
    for gamma in (0.5, 1.0, 2.0):
        g = 1.0 + gamma
        for row, want, pts in CELL_TABLE:
            for s_, t_ in pts:
                for sign in (1.0, -1.0):
                    params = ModelParams(gamma, sign * s_ * g, sign * t_ * g)
                    pred = predicted_counts(classify(params))
                    rep = spectrum_k0(params)
                    tag = (gamma, row, sign * s_, sign * t_)
                    if (rep.n_below, rep.n_above) != (pred.n_below_k0,
                                                      pred.n_above_k0):
                        failures.append((tag, "prediction mismatch",
                                         rep.n_below, rep.n_above))
                    side_count = rep.n_above if sign > 0 else rep.n_below
                    if side_count != want:
                        failures.append((tag, "table mismatch", side_count))
                    if want == 5:
                        evs = rep.above if sign > 0 else rep.below
                        dbl = [ev for ev in evs if ev.multiplicity == 2
                               and ev.factor is FactorKind.ODD]
                        if len(dbl) != 1:
                            failures.append((tag, "missing odd double"))
                    checked += 1
    _verdict(3, checked == 90 and not failures,
             f"{checked}/90 interior sample points (3 gammas x 10 realizable "
             f"cells x 3 points) reproduce the predicted counts exactly, "
             f"top cells give 5 with the odd double"
             + (f"; failures: {failures[:4]}" if failures else ""))


def test_criterion_3_unrealizable_row():
    # The remaining table row asks for couplings beyond the decoupled-even
    # threshold but short of the odd one.  The computed thresholds order
    # as t_s > t_d (both proportional to g), so that combination has no
    # interior points for either sign; under the alternative published t_s
    # (half as large) the row would be realizable.
    thr = binding_thresholds(1.0)
    print(f"[XFAIL] criterion 3: row pairing the even threshold with the "
          f"odd-threshold complement is empty (t_s = {thr.t_s:.6f} > "
          f"t_d = {thr.t_d:.6f}); both signs unrealizable")
    assert thr.t_s > thr.t_d
    pytest.xfail("count-table row has empty interior under computed thresholds")


# ---------------------------------------------------------------------------
# criterion 4: continuum solver vs discrete oracles


def _interior_draw(rng, need_nonzero: bool = False):
    """Seeded rejection sampler for region-interior coupling draws."""
    for _ in range(100000):
        gamma = float(rng.uniform(0.5, 2.0))
        lam = float(rng.uniform(-12.0, 12.0))
        mu = float(rng.uniform(-12.0, 12.0))
        params = ModelParams(gamma, lam, mu)
        g = params.g
        thr = binding_thresholds(gamma)
        sp = 2.0 * mu + lam - lam * mu / g
        sm = 2.0 * mu + lam + lam * mu / g
        if min(abs(sp), abs(sm)) < 6.0:
            continue
        if min(abs(abs(mu) - g), abs(abs(mu) - thr.t_s),
               abs(abs(mu) - thr.t_d)) < 0.35:
            continue
        rep = spectrum_k0(params)
        if any(ev.pinned for ev in rep.below + rep.above):
            continue
        depths = ([-ev.z for ev in rep.below]
                  + [ev.z - 4.0 * g for ev in rep.above])
        if depths and min(depths) < 0.02:
            continue
        if need_nonzero and not depths:
            continue
        return params
    raise RuntimeError("rejection sampling failed to find an interior draw")


def test_criterion_4_two_oracle_agreement():
    rng = np.random.default_rng(20240817)
    draws = [ModelParams(1.0, 0.0, 10.0), ModelParams(1.0, 0.0, -10.0)]
    while len(draws) < 30:
        draws.append(_interior_draw(rng))

    failures = []
    positions_compared = 0
    clusters_confirmed = 0
    for params in draws:
        cont = spectrum_k0(params)
        grid = oracle_counts(ORIGIN, params, n=256)
        tag = (params.gamma, params.lam, params.mu)
        if (cont.n_below, cont.n_above) != (grid.n_below, grid.n_above):
            failures.append((tag, "count vs grid", cont.n_below, cont.n_above,
                             grid.n_below, grid.n_above))
            continue
        for cont_side, grid_side, edge in ((cont.below, grid.below, 0.0),
                                           (cont.above, grid.above,
                                            4.0 * params.g)):
            for c, q in zip(expand(cont_side), expand(grid_side)):
                if abs(c - edge) >= 0.1:
                    positions_compared += 1
                    if abs(c - q) > 1e-5:
                        failures.append((tag, "position", c, q))
        dense = dense_validate(ORIGIN, params, n=40)
        if (dense.n_below, dense.n_above) != (cont.n_below, cont.n_above):
            failures.append((tag, "count vs dense", dense.n_below,
                             dense.n_above))
            continue
        for cont_evs, dense_evs in ((cont.below, dense.below),
                                    (cont.above, dense.above)):
            for ev in cont_evs:
                if ev.factor is FactorKind.ODD and ev.multiplicity == 2:
                    near = [dv for dv in dense_evs
                            if abs(dv.z - ev.z) <= 1e-3]
                    if len(near) == 1 and near[0].multiplicity == 2:
                        clusters_confirmed += 1
                    else:
                        failures.append((tag, "odd cluster", ev.z))
    _verdict(4, not failures,
             f"30 interior draws: continuum counts match the N=256 jump "
             f"oracle, {positions_compared} positions at depth >= 0.1 agree "
             f"within 1e-5, dense N=40 confirms all counts and "
             f"{clusters_confirmed} double clusters (pair gap < 1e-8)"
             + (f"; failures: {failures[:4]}" if failures else ""))


# ---------------------------------------------------------------------------
# criterion 5: counts never drop when the quasimomentum moves


def test_criterion_5_counts_grow_with_quasimomentum():
    rng = np.random.default_rng(55)
    draws = [ModelParams(1.0, 6.0, 10.0), ModelParams(1.0, 10.0, 8.0),
             ModelParams(1.0, -6.0, -10.0), ModelParams(0.5, 3.75, 9.0)]
    while len(draws) < 20:
        draws.append(_interior_draw(rng, need_nonzero=True))

    failures = []
    fibers_checked = 0
    five_checked = 0
    for params in draws:
        base = spectrum_k0(params)
        nb0, na0 = base.n_below, base.n_above
        tag = (params.gamma, params.lam, params.mu)
        for _ in range(10):
            K = TorusPoint(float(rng.uniform(-np.pi, np.pi)),
                           float(rng.uniform(-np.pi, np.pi)))
            gen = spectrum_general(K, params)
            grid = oracle_counts(K, params, n=128)
            fibers_checked += 1
            for kind, nb, na in (("analytic", gen.n_below, gen.n_above),
                                 ("grid", grid.n_below, grid.n_above)):
                if nb < nb0 or na < na0:
                    failures.append((tag, kind, K.as_tuple(),
                                     (nb, na), (nb0, na0)))
                if (nb0 == 5 and nb != 5) or (na0 == 5 and na != 5):
                    failures.append((tag, kind, K.as_tuple(), "lost a state",
                                     (nb, na)))
            if na0 == 5 or nb0 == 5:
                five_checked += 1
    _verdict(5, not failures,
             f"20 draws x 10 random fibers: both counters report "
             f"n(K) >= n(0) per side ({fibers_checked} fibers), and the "
             f"full five survive at every fiber on exactly-five draws "
             f"({five_checked} fibers)"
             + (f"; failures: {failures[:4]}" if failures else ""))


# ---------------------------------------------------------------------------
# criteria 6 and 8 share the full-plane sweep


@pytest.fixture(scope="module")
def full_sweep_pair():
    rows1 = sweep((-12.0, 12.0), (-12.0, 12.0), 0.5, gamma=1.0, workers=1)
    rows8 = sweep((-12.0, 12.0), (-12.0, 12.0), 0.5, gamma=1.0, workers=8)
    return rows1, rows8


def test_criterion_6_region_constancy(full_sweep_pair):
    _, rows = full_sweep_pair
    thr = binding_thresholds(1.0)
    failures = []
    groups: dict = {}
    interior = 0
    for r in rows:
        if r.comp_below is None:
            failures.append(((r.lam, r.mu), "error row", r.error))
            continue
        lbl = r.label
        margin = min(abs(lbl.s_plus), abs(lbl.s_minus),
                     abs(abs(r.mu) - 2.0), abs(abs(r.mu) - thr.t_s),
                     abs(abs(r.mu) - thr.t_d))
        if margin <= 1e-2:
            continue
        interior += 1
        key = (lbl.s_region, lbl.d_region, lbl.c_plus, lbl.c_minus)
        groups.setdefault(key, set()).add(
            (r.comp_below, r.comp_above, r.pred.n_below_k0,
             r.pred.n_above_k0, r.agree))
    for key, vals in sorted(groups.items()):
        if len(vals) != 1:
            failures.append((key, "non-constant counts", sorted(vals)))
            continue
        (cb, ca, pb, pa, agree), = vals
        if not agree or (cb, ca) != (pb, pa):
            failures.append((key, "prediction mismatch", (cb, ca), (pb, pa)))
    _verdict(6, not failures,
             f"0.5-step sweep over [-12,12]^2: {interior} interior rows fall "
             f"into {len(groups)} regions, each with one computed count pair "
             f"equal to its prediction (boundary margin 1e-2)"
             + (f"; failures: {failures[:4]}" if failures else ""))


# ---------------------------------------------------------------------------
# criterion 7: minimax binding energies are monotone along the fiber axis


def _binding_curves(params: ModelParams, n: int = 128):
    lows, highs = [], []
    for k in range(9):
        K = TorusPoint(k * math.pi / 8.0, 0.0)
        lo, hi = minimax_values(K, params, n=n)
        band = GridModel.build(K, params, n).band
        lows.append(band.e_min - lo)        # depth below, 0 when clamped
        highs.append(hi - band.e_max)       # height above, 0 when clamped
    return np.diff(np.array(lows), axis=0), np.diff(np.array(highs), axis=0)


def test_criterion_7_minimax_monotonicity():
    points = ((-1.0, 0.0), (1.0, 10.0), (-6.0, 0.0), (0.0, -12.0))
    failures = []
    worst = math.inf
    for lam, mu in points:
        d_lo, d_hi = _binding_curves(ModelParams(1.0, lam, mu))
        worst = min(worst, float(d_lo.min()), float(d_hi.min()))
        if (d_lo < -1e-9).any() or (d_hi < -1e-9).any():
            failures.append(((lam, mu), float(d_lo.min()), float(d_hi.min())))
    _verdict(7, not failures,
             f"gamma=1: all five binding energies non-decreasing along "
             f"K1 in [0, pi] (9 samples, 4 coupling points, both sides; "
             f"worst step {worst:+.2e} >= -1e-9)"
             + (f"; failures: {failures}" if failures else ""))
    # other mass ratios: published as a report, not asserted
    for gamma in (0.5, 2.0):
        scale = (1.0 + gamma) / 2.0
        w = math.inf
        for lam, mu in points:
            d_lo, d_hi = _binding_curves(
                ModelParams(gamma, lam * scale, mu * scale))
            w = min(w, float(d_lo.min()), float(d_hi.min()))
        print(f"[REPORT] criterion 7 (gamma={gamma:g}): worst binding step "
              f"{w:+.2e} over the scaled coupling points (not asserted)")


# ---------------------------------------------------------------------------
# criterion 8: sweeps are deterministic across worker counts


def test_criterion_8_deterministic_output(full_sweep_pair):
    rows1, rows8 = full_sweep_pair
    buf1, buf8 = io.StringIO(), io.StringIO()
    emit_csv(rows1, buf1)
    emit_csv(rows8, buf8)
    b1 = buf1.getvalue().encode()
    b8 = buf8.getvalue().encode()
    _verdict(8, b1 == b8,
             f"1-worker and 8-worker full sweeps emit byte-identical CSV "
             f"({len(rows1)} rows, {len(b1)} bytes)")
