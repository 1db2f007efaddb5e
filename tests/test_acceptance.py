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
from concurrent.futures import ProcessPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from latticebound import atlas
from latticebound.atlas import (binding_thresholds, classify, predicted_counts,
                                sweep)
from latticebound.cli import emit_csv
from latticebound.core import ORIGIN, ModelParams, TorusPoint
from latticebound.determinants import interaction_weights
from latticebound.integrals import (Side, predicted_asymptote, watson_integrals,
                                    watson_integrals_at)
from latticebound.oracle import GridModel, dense_validate, minimax_values, oracle_counts
from latticebound.spectrum import MERGE_TOL, FactorKind, spectrum_general, spectrum_k0


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


def _parity_bases(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal even and odd combinations of the grid points k and -k of
    one axis, as columns: q_k = -pi + 2 pi k/n maps to q_(n-k mod n), so
    k = 0 (q = -pi) and k = n/2 (q = 0) are even alone, and each pair k,
    n - k gives one even and one odd column."""
    pairs = np.arange(1, n // 2)
    even, odd = np.zeros((n, n // 2 + 1)), np.zeros((n, n // 2 - 1))
    even[0, 0] = even[n // 2, 1] = 1.0
    even[pairs, pairs + 1] = even[n - pairs, pairs + 1] = math.sqrt(0.5)
    odd[pairs, pairs - 1], odd[n - pairs, pairs - 1] = math.sqrt(0.5), -math.sqrt(0.5)
    return even, odd


def _parity_blocks(model: GridModel) -> dict[str, np.ndarray]:
    """The K = 0 grid matrix in its four parity sectors, by axis parity
    ("eo": even in p1, odd in p2).  At K = 0 each axis's dispersion is even
    in q, and each mode, a product of the axis functions 1, sqrt2 cos and
    sqrt2 sin, has one parity per axis, so the sectors do not couple.  Each
    block is diag(dispersion) + sum g u u^T in the product of one axis basis
    per axis; the dispersion is diagonal there because the columns of an
    axis basis have disjoint supports."""
    n = model.n
    disp, modes = model.diag.reshape(n, n), model.modes.reshape(5, n, n)
    bases = dict(zip("eo", _parity_bases(n)))
    blocks = {}
    for s1, p1 in bases.items():
        for s2, p2 in bases.items():
            h = np.diag(((p1 * p1).T @ disp @ (p2 * p2)).ravel())
            for g, u in zip(interaction_weights(model.params), modes):
                w = (p1.T @ u @ p2).ravel()
                h += g * np.outer(w, w)
            blocks[s1 + s2] = h
    return blocks


def _sector_validate(params: ModelParams, n: int = 40):
    """:func:`dense_validate` at K = 0 from the four parity blocks: the
    states on each side (z and multiplicity, with the same margin, and
    eigenvalues within MERGE_TOL of a cluster's first one clustered), and
    the eigenvalues of each block."""
    model = GridModel.build(ORIGIN, params, n)
    band = model.band
    eigs = {s: np.linalg.eigvalsh(h) for s, h in _parity_blocks(model).items()}
    ev = np.sort(np.concatenate(list(eigs.values())))
    sides = []
    for vals, edge, sign in ((ev[ev < band.e_min - 1e-10 * (1.0 + abs(band.e_min))],
                              band.e_min, -1.0),
                             (ev[ev > band.e_max + 1e-10 * (1.0 + abs(band.e_max))],
                              band.e_max, 1.0)):
        clusters = []
        for v in vals:
            d = abs(v - edge)
            if clusters and abs(d - clusters[-1][0]) <= MERGE_TOL:
                clusters[-1][1] += 1
            else:
                clusters.append([d, 1])
        sides.append([SimpleNamespace(z=edge + sign * d, multiplicity=m) for d, m in clusters])
    below, above = sides
    return SimpleNamespace(below=below, above=above,
                           n_below=sum(s.multiplicity for s in below),
                           n_above=sum(s.multiplicity for s in above)), eigs


def test_parity_blocks_hold_the_spectrum_of_the_grid_matrix():
    # the referee of criterion 4: the union of the four blocks' eigenvalues
    # is the full matrix's (to 8e-14 today), on the two fixed draws and on
    # two with one state on each side
    for params in (ModelParams(1.0, 0.0, 10.0), ModelParams(1.0, 0.0, -10.0),
                   ModelParams(1.0, -3.0, 2.0), ModelParams(1.7, 8.0, -5.5)):
        model = GridModel.build(ORIGIN, params, 40)
        blocks = _parity_blocks(model)
        assert [len(blocks[s]) for s in ("ee", "eo", "oe", "oo")] == [441, 399, 399, 361]
        union = np.sort(np.concatenate([np.linalg.eigvalsh(h) for h in blocks.values()]))
        full = np.linalg.eigvalsh(model.dense_matrix())
        assert np.max(np.abs(union - full)) <= 1e-12, params


def test_criterion_4_two_oracle_agreement():
    rng = np.random.default_rng(20240817)
    fixed = [ModelParams(1.0, 0.0, 10.0), ModelParams(1.0, 0.0, -10.0)]
    draws = list(fixed)
    while len(draws) < 30:
        draws.append(_interior_draw(rng))

    failures = []
    positions_compared = 0
    clusters_confirmed = 0
    widest_gap = 0.0
    for i, params in enumerate(draws):
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
        # the full matrix on the fixed draws, the independent evidence for
        # multiplicity 2; its parity blocks on the others, where the even-odd
        # and odd-even blocks each hold one member of an odd double cluster
        if i < len(fixed):
            dense, blocks = dense_validate(ORIGIN, params, n=40), None
        else:
            dense, blocks = _sector_validate(params, n=40)
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
                    ok = len(near) == 1 and near[0].multiplicity == 2
                    if blocks is not None:
                        pair = [blocks[s][np.abs(blocks[s] - ev.z) <= 1e-3] for s in ("eo", "oe")]
                        ok = ok and all(len(p) == 1 for p in pair)
                        if ok:
                            gap = abs(float(pair[0][0] - pair[1][0]))
                            widest_gap = max(widest_gap, gap)
                            ok = gap <= MERGE_TOL
                    if ok:
                        clusters_confirmed += 1
                    else:
                        failures.append((tag, "odd cluster", ev.z))
    _verdict(4, not failures,
             f"30 interior draws: continuum counts match the N=256 jump "
             f"oracle, {positions_compared} positions at depth >= 0.1 agree "
             f"within 1e-5, dense N=40 (the full matrix on 2 fixed draws, its "
             f"parity blocks on 28) confirms all counts and "
             f"{clusters_confirmed} double clusters (pair gap <= MERGE_TOL = "
             f"{MERGE_TOL:g}, widest {widest_gap:.2e} on the blocks, which hold "
             f"one member each in the even-odd and odd-even sectors)"
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


def _continuum_binding_curves(params: ModelParams, samples: int = 33):
    """Steps of the five binding energies below and above the band along
    K1 in [0, pi], K2 = 0, from the continuum solvers (spectrum_k0 at
    K1 = 0, spectrum_general elsewhere), deepest first; absent states count
    as 0."""
    lows, highs = [], []
    for k in range(samples):
        K = TorusPoint(k * math.pi / (samples - 1), 0.0)
        rep = spectrum_k0(params) if k == 0 else spectrum_general(K, params)
        below = sorted((rep.band.e_min - z for z in expand(rep.below)), reverse=True)
        above = sorted((z - rep.band.e_max for z in expand(rep.above)), reverse=True)
        lows.append(below + [0.0] * (5 - len(below)))
        highs.append(above + [0.0] * (5 - len(above)))
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
    # other mass ratios: asserted on the continuum solvers, whose band edges
    # are exact; the N = 128 grid's reading is published as a report
    failures, worst = [], math.inf
    for gamma in (0.5, 2.0):
        scale = (1.0 + gamma) / 2.0
        w = math.inf
        for lam, mu in points:
            params = ModelParams(gamma, lam * scale, mu * scale)
            d_lo, d_hi = _binding_curves(params)
            w = min(w, float(d_lo.min()), float(d_hi.min()))
            c_lo, c_hi = _continuum_binding_curves(params)
            step = min(float(c_lo.min()), float(c_hi.min()))
            worst = min(worst, step)
            if step < -1e-9 * max(1.0, abs(params.lam) + abs(params.mu)):
                failures.append((gamma, params.lam, params.mu, step))
        print(f"[REPORT] criterion 7 (gamma={gamma:g}): worst binding step "
              f"{w:+.2e} over the scaled coupling points on the N = 128 grid "
              f"(not asserted)")
    _verdict(7, not failures,
             f"gamma=0.5, 2 on the continuum solvers: all five binding energies "
             f"non-decreasing along K1 in [0, pi] (33 samples, 4 scaled coupling "
             f"points, both sides; worst step {worst:+.2e} >= "
             f"-1e-9 max(1, |lam| + |mu|))"
             + (f"; failures: {failures}" if failures else ""))


# ---------------------------------------------------------------------------
# criterion 8: sweeps are deterministic across worker counts


def _csv_bytes(rows) -> bytes:
    buf = io.StringIO()
    emit_csv(rows, buf)
    return buf.getvalue().encode()


def test_criterion_8_deterministic_output(full_sweep_pair, monkeypatch):
    rows1, rows8 = full_sweep_pair
    b1, b8 = _csv_bytes(rows1), _csv_bytes(rows8)
    # K = 0 points never reach the pool: a plane with a nonzero fiber, whose
    # points the pool serves, is swept with workers 1 and 2
    started = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(atlas, "ProcessPoolExecutor", RecordingPool)
    pooled = [sweep((-12.0, 12.0), (-12.0, 12.0), 3.0, gamma=1.0,
                    K_list=(ORIGIN, TorusPoint(1.0, 0.5)), workers=w) for w in (1, 2)]
    p1, p2 = map(_csv_bytes, pooled)
    _verdict(8, b1 == b8 and p1 == p2 and started == [2],
             f"full K = 0 sweeps with workers 1 and 8 emit byte-identical CSV "
             f"({len(rows1)} rows, {len(b1)} bytes; K = 0 points solve in-process, "
             f"so no pool starts), and so do 3-step sweeps with K = (1, 0.5) with "
             f"workers 1 and 2, whose pool serves the nonzero fiber "
             f"({len(pooled[0])} rows, {len(p1)} bytes; pools started: {started})")
