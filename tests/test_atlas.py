"""Region classification, predicted counts, sweeps and threshold adjudication."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from latticebound import atlas, spectrum
from latticebound.atlas import (_axis_values, binding_thresholds, classify,
                                predicted_counts, sweep, threshold_scan)
from latticebound.core import ORIGIN, ModelParams, TorusPoint
from latticebound.errors import DomainError, ToleranceError
from latticebound.oracle import oracle_counts
from latticebound.spectrum import FactorKind, spectrum_k0
from published_table import published_thresholds


def test_threshold_values_by_source():
    comp = binding_thresholds(1.0)
    pub = published_thresholds(1.0)
    assert comp.t_s == pytest.approx(2 * math.pi / (4 - math.pi), rel=1e-6)
    assert pub.t_s == pytest.approx(2 * math.pi / (8 - 2 * math.pi), rel=1e-12)
    # the two sources disagree about t_s by exactly a factor of two
    assert comp.t_s == pytest.approx(2 * pub.t_s, rel=1e-6)
    # ... and agree about the odd threshold
    for thr in (comp, pub):
        assert thr.t_d == pytest.approx(2 * math.pi / (math.pi - 2), rel=1e-6)


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_thresholds_scale_linearly_in_g(gamma):
    g = 1.0 + gamma
    thr = binding_thresholds(gamma)
    assert thr.t_s / g == pytest.approx(math.pi / (4 - math.pi), rel=1e-6)
    assert thr.t_d / g == pytest.approx(math.pi / (math.pi - 2), rel=1e-6)


def test_classify_origin_sits_on_all_boundaries():
    label = classify(ModelParams(1.0, 0.0, 0.0))
    assert (label.s_region, label.d_region) == ("S0", "D0")
    assert (label.c_plus, label.c_minus) == ("C0+b", "C0-b")
    pred = predicted_counts(label)
    assert (pred.n_below_k0, pred.n_above_k0) == (0, 0)


CLASSIFY_CASES = [
    # lam, mu, s, d, c+, c-, below, above
    (1.0, 10.0, "S0+", "D0+", "C1+", "C0-", 0, 4),
    (6.0, 10.0, "S0+", "D0+", "C2+", "C0-", 0, 5),
    (1.0, 6.0, "S0", "D0+", "C1+", "C0-", 0, 3),
    (-1.0, 0.0, "S0", "D0", "C0+", "C1-", 1, 0),
    (0.0, -12.0, "S0-", "D0-", "C0+", "C1-", 4, 0),
    (-6.0, -10.0, "S0-", "D0-", "C0+", "C2-", 5, 0),
    (8.5, 4.0, "S0", "D0", "C2+", "C0-", 0, 2),
    (2.0, -3.0, "S0", "D0", "C0+", "C1-", 1, 0),
]


@pytest.mark.parametrize("lam,mu,s,d,cp,cm,nb,na", CLASSIFY_CASES)
def test_classify_and_predict(lam, mu, s, d, cp, cm, nb, na):
    label = classify(ModelParams(1.0, lam, mu))
    assert (label.s_region, label.d_region) == (s, d)
    assert (label.c_plus, label.c_minus) == (cp, cm)
    pred = predicted_counts(label)
    assert (pred.n_below_k0, pred.n_above_k0) == (nb, na)


def test_predicted_parts_and_exactness():
    pred = predicted_counts(classify(ModelParams(1.0, 6.0, 10.0)))
    assert pred.parts_above == (2, 1, 2)
    assert pred.parts_below == (0, 0, 0)
    assert pred.exact_above_all_k and not pred.exact_below_all_k
    assert pred.lower_bound_above_k == 5


def _flip(label: str) -> str:
    return label.translate(str.maketrans("+-", "-+"))


def _sides(pred):
    return ((pred.n_below_k0, pred.parts_below, pred.lower_bound_below_k,
             pred.exact_below_all_k),
            (pred.n_above_k0, pred.parts_above, pred.lower_bound_above_k,
             pred.exact_above_all_k))


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_labels_and_counts_mirror_under_negated_couplings(gamma):
    # p -> p + (pi, pi) maps the states above the band at (lam, mu) to those
    # below it at (-lam, -mu): labels, S+- and predicted counts mirror bit
    # for bit, on the plane grid, on mu = +-g and on the hyperbolas S+- = 0
    g = 1.0 + gamma
    axis = _axis_values(-12.0, 12.0, 0.5)
    points = [(lam, mu) for lam in axis for mu in axis]
    points += [(lam, sign * g) for lam in axis for sign in (1.0, -1.0)]
    points += [(2.0 * mu / (mu / g - 1.0), mu) for mu in axis if mu != g]      # S+ = 0
    points += [(-2.0 * mu / (1.0 + mu / g), mu) for mu in axis if mu != -g]    # S- = 0
    boundary = 0
    for lam, mu in points:
        a = classify(ModelParams(gamma, lam, mu))
        b = classify(ModelParams(gamma, -lam, -mu))
        assert (b.s_region, b.d_region) == (_flip(a.s_region), _flip(a.d_region))
        assert (b.c_plus, b.c_minus) == (_flip(a.c_minus), _flip(a.c_plus)), (lam, mu)
        assert (b.s_plus, b.s_minus) == (-a.s_minus, -a.s_plus)
        assert _sides(predicted_counts(b)) == _sides(predicted_counts(a))[::-1]
        boundary += a.c_plus.endswith("b") + a.c_minus.endswith("b")
    assert boundary >= 2 * (len(axis) - 1)     # each point of S+- = 0 is one


HYPERBOLA_POINTS = [
    # S+ = 0 with mu > g (gamma = 1): lam = 2*mu/(mu/2 - 1)
    (8.0, 4.0, 1),
    (6.0, 6.0, 3),
    (12.0, 3.0, 1),
    (16.0 / 3.0, 8.0, 4),
    (20.0, 2.5, 1),
]


@pytest.mark.parametrize("lam,mu,na", HYPERBOLA_POINTS)
def test_exchange_hyperbola_boundary(lam, mu, na):
    # exactly on S+ = 0 with mu > g the coupled even channel keeps one of
    # its two roots; the second is absorbed into the edge
    params = ModelParams(1.0, lam, mu)
    label = classify(params)
    assert label.c_plus == "C1+b"
    assert abs(label.s_plus) < 1e-9
    pred = predicted_counts(label)
    assert pred.n_above_k0 == na
    rep = spectrum_k0(params)
    assert (rep.n_below, rep.n_above) == (0, na)
    main_above = sum(ev.multiplicity for ev in rep.above
                     if ev.factor is FactorKind.MAIN_EVEN)
    assert main_above == 1


_PARTS = (FactorKind.MAIN_EVEN, FactorKind.SUB_EVEN, FactorKind.ODD)


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_each_factor_carries_its_predicted_count(gamma):
    # away from every region boundary (S+- = 0, |mu| = t_s, t_d, g) each
    # determinant factor binds exactly the states its region family predicts
    g = 1.0 + gamma
    thr = binding_thresholds(gamma)
    checked = 0
    for lam in _axis_values(-12.0, 12.0, 0.5):
        for mu in _axis_values(-12.0, 12.0, 0.5):
            label = classify(ModelParams(gamma, lam, mu))
            if (min(abs(label.s_plus), abs(label.s_minus)) < 0.25 * g
                    or any(abs(abs(mu) - t) < 0.25 * g for t in (thr.t_s, thr.t_d, g))):
                continue
            pred = predicted_counts(label)
            rep = spectrum_k0(ModelParams(gamma, lam, mu))
            for side, parts in ((rep.below, pred.parts_below),
                                (rep.above, pred.parts_above)):
                got = tuple(sum(ev.multiplicity for ev in side if ev.factor is kind)
                            for kind in _PARTS)
                assert got == parts, (lam, mu)
            checked += 1
    assert checked > 1000


def test_axis_values_are_stable():
    assert _axis_values(-1.0, 1.0, 0.5) == [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert _axis_values(0.0, 0.3, 0.1) == [0.0, 0.1, 0.2, 0.3]
    assert _axis_values(2.0, 2.0, 1.0) == [2.0]
    with pytest.raises(ValueError):
        _axis_values(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        _axis_values(1.0, 0.0, 0.5)


def _row_key(row):
    return (row.lam, row.mu, row.K.p1, row.K.p2, row.comp_below,
            row.comp_above, row.agree, row.error, row.eigs_below,
            row.eigs_above)


def test_sweep_order_and_worker_invariance():
    # the K = 0 points solve in-process as one batch; the pool serves the
    # nonzero fiber, so workers 1 and 2 compare both paths
    fibers = (ORIGIN, TorusPoint(1.0, 0.5))
    rows1 = sweep((-1.0, 1.0), (-1.0, 1.0), 1.0, K_list=fibers, workers=1)
    rows2 = sweep((-1.0, 1.0), (-1.0, 1.0), 1.0, K_list=fibers, workers=2)
    assert len(rows1) == 18
    assert [(r.lam, r.mu, r.K) for r in rows1] == [
        (lam, mu, K) for lam in (-1.0, 0.0, 1.0) for mu in (-1.0, 0.0, 1.0)
        for K in fibers]
    assert [_row_key(r) for r in rows1] == [_row_key(r) for r in rows2]
    assert all(r.agree for r in rows1)
    zero = next(r for r in rows1 if r.lam == 0.0 and r.mu == 0.0)
    assert (zero.comp_below, zero.comp_above) == (0, 0)
    assert zero.eigs_below == () and zero.eigs_above == ()


def test_sweep_covers_nonzero_fibers():
    rows = sweep((6.0, 6.0), (10.0, 10.0), 1.0,
                 K_list=(ORIGIN, TorusPoint(1.0, 0.5)))
    assert len(rows) == 2
    at_zero, at_k = rows
    assert (at_zero.comp_below, at_zero.comp_above) == (0, 5)
    assert (at_k.comp_below, at_k.comp_above) == (0, 5)   # exact-5 region
    assert at_zero.agree and at_k.agree


def test_sweep_reports_failures_per_row(monkeypatch):
    # a typed failure of the general-fiber solver at one fiber fails that
    # row alone; the K = 0 row of the same point still solves
    def inside(K, params):
        raise DomainError(f"injected at K = {K.as_tuple()}")

    monkeypatch.setattr(atlas, "spectrum_general", inside)
    rows = sweep((1.0, 1.0), (10.0, 10.0), 1.0, K_list=(ORIGIN, TorusPoint(1.0, 0.5)))
    assert len(rows) == 2
    assert rows[0].agree and rows[0].error == ""
    assert not rows[1].agree
    assert rows[1].error == "DomainError: injected at K = (1.0, 0.5)"
    assert rows[1].comp_below is None and rows[1].label is None


def test_sweep_lets_programming_errors_propagate(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("injected")

    monkeypatch.setattr(spectrum, "find_root", broken)
    with pytest.raises(TypeError, match="injected"):
        sweep((1.0, 1.0), (10.0, 10.0), 1.0)


def test_sweep_reports_numerical_failures_per_row(monkeypatch):
    # a K = 0 crossing that does not converge fails the row whose sides need
    # it and no other row of the batch: here the crossings with the widest
    # bracket, which belong to (2, 10) below and above
    real = spectrum.find_root

    def stalls_on_the_widest(f, init, **kwargs):
        res = real(f, init, **kwargs)
        widest = init[1] == np.max(init[1])
        res.success = res.success & ~widest
        res.status = np.where(widest, -2, res.status)
        return res

    monkeypatch.setattr(spectrum, "find_root", stalls_on_the_widest)
    rows = sweep((1.0, 2.0), (10.0, 10.0), 1.0)
    assert len(rows) == 2
    assert rows[0].agree and rows[0].error == "" and rows[0].comp_above == 4
    assert not rows[1].agree and rows[1].comp_below is None and rows[1].label is None
    assert rows[1].error.startswith("ToleranceError: ")
    assert "did not converge (status -2)" in rows[1].error


def _plane_points(step: float = 0.5) -> tuple[list[float], list[float]]:
    axis = _axis_values(-12.0, 12.0, step)
    return [lam for lam in axis for _ in axis], [mu for _ in axis for mu in axis]


def _shape(roots):
    return [(r.factor, r.sector, r.multiplicity, r.pinned) for r in roots]


@pytest.mark.parametrize(
    "gamma", [1.0, *np.random.default_rng(17).uniform(0.3, 3.0, 3).round(4).tolist()])
def test_batched_sweep_matches_the_scalar_solver(gamma):
    # gamma = 1 and three random gammas; every K = 0 row of a sweep comes
    # from the batch; the scalar one-sided solver must give the same roots,
    # factors, sectors, multiplicities and pinned flags, with depths within
    # 1e-9 relative, and the scalar report the same counts
    rows = sweep((-12.0, 12.0), (-12.0, 12.0), 0.5, gamma=gamma)
    lams, mus = _plane_points()
    batch = spectrum._k0_batch(gamma, lams, mus)
    assert len(rows) == len(batch) == 2401
    assert not any(isinstance(point, ToleranceError) for point in batch)
    edge, memo, top = spectrum._main_even_edge(gamma), {}, 4.0 * (1.0 + gamma)
    for row, lam, mu, (below, above) in zip(rows, lams, mus, batch):
        ref = spectrum_k0(ModelParams(gamma, lam, mu))
        assert (row.comp_below, row.comp_above) == (ref.n_below, ref.n_above)
        for got, sign, eigs, place in ((below, 1.0, row.eigs_below, lambda d: -d),
                                       (above, -1.0, row.eigs_above, lambda d: top + d)):
            want = spectrum._k0_below(ModelParams(gamma, sign * lam, sign * mu), edge,
                                      spectrum._search_window(lam, mu), memo)
            assert _shape(got) == _shape(want), (lam, mu)
            for a, b in zip(got, want):
                assert abs(a.d - b.d) <= 1e-9 * b.d
            assert eigs == tuple(sorted(place(r.d) for r in got for _ in range(r.multiplicity)))


def test_batch_rows_do_not_depend_on_the_batch():
    # each point's states are bit-identical whether the plane is solved as
    # one batch, in reversed order, or in batches of 7 consecutive points
    # (which split every mirrored pair of one-sided problems)
    lams, mus = _plane_points()
    whole = atlas._zero_fiber_states(1.0, lams, mus)
    backwards = atlas._zero_fiber_states(1.0, lams[::-1], mus[::-1])[::-1]
    sevens = [states for i in range(0, len(lams), 7)
              for states in atlas._zero_fiber_states(1.0, lams[i:i + 7], mus[i:i + 7])]
    assert backwards == whole
    assert sevens == whole


# gamma = 1 on the 49x49 plane, and a random dyadic gamma on a grid of
# step g/4 over [-4g, 4g]^2: both land exactly on lam, mu = +-g
_DYADIC_G = 1.0 + int(np.random.default_rng(29).integers(20, 190)) / 64


@pytest.mark.parametrize("gamma,bound,step", [
    (1.0, 12.0, 0.5), (_DYADIC_G - 1.0, 4.0 * _DYADIC_G, _DYADIC_G / 4.0)])
def test_zero_fiber_rows_match_classify(gamma, bound, step):
    # the rows built from the batch roots carry the labels and counts of
    # classify and predicted_counts, and agree exactly when the computed
    # counts equal the predicted ones; at mu = +-g the S-+ = 0 corners
    # (lam = -+g) take the boundary labels
    g = 1.0 + gamma
    rows = sweep((-bound, bound), (-bound, bound), step, gamma=gamma)
    assert {(-g, g), (g, -g)} <= {(r.lam, r.mu) for r in rows}
    boundary = set()
    for r in rows:
        label = classify(ModelParams(gamma, r.lam, r.mu))
        pred = predicted_counts(label)
        assert (r.label, r.pred) == (label, pred), (r.lam, r.mu)
        assert r.agree == ((r.comp_below, r.comp_above) == (pred.n_below_k0, pred.n_above_k0))
        if abs(r.mu) == g:
            boundary |= {c for c in (label.c_plus, label.c_minus) if c.endswith("b")}
    assert {"C0+b", "C0-b"} <= boundary


def test_zero_fiber_rows_do_not_depend_on_the_fiber_list():
    # the K = 0 rows are bit-identical whatever other fibers the sweep
    # carries; an origin written as (-0.0, 0.0) is a zero fiber too, and
    # its rows keep that K
    grid = ((-3.0, 3.0), (-3.0, 3.0), 1.0)
    alone = sweep(*grid, K_list=(ORIGIN,))
    mixed = sweep(*grid, K_list=(ORIGIN, TorusPoint(1.0, 0.5)))
    assert [repr(r) for r in mixed[::2]] == [repr(r) for r in alone]
    assert all(r.K == TorusPoint(1.0, 0.5) for r in mixed[1::2])
    signed = TorusPoint(-0.0, 0.0)
    twice = sweep(*grid, K_list=(ORIGIN, signed))
    assert [repr(r) for r in twice[::2]] == [repr(r) for r in alone]
    assert [repr(r) for r in twice[1::2]] == [repr(replace(r, K=signed)) for r in alone]
    assert math.copysign(1.0, twice[1].K.p1) == -1.0


@pytest.mark.parametrize("gamma,lam_range,mu_range", [
    (0.0, (1.0, 2.0), (1.0, 2.0)), (-0.5, (1.0, 2.0), (1.0, 2.0)),
    (math.nan, (1.0, 2.0), (1.0, 2.0)), (math.inf, (1.0, 2.0), (1.0, 2.0)),
    (1.0, (math.nan, 2.0), (1.0, 2.0)), (1.0, (-math.inf, 2.0), (1.0, 2.0)),
    (1.0, (1.0, 2.0), (1.0, math.nan)), (1.0, (1.0, 2.0), (1.0, math.inf)),
])
def test_sweep_rejects_invalid_input_before_solving(monkeypatch, gamma, lam_range, mu_range):
    def no_solve(*args, **kwargs):
        raise AssertionError("the sweep started a solve")

    monkeypatch.setattr(atlas, "_k0_batch", no_solve)
    monkeypatch.setattr(atlas, "spectrum_general", no_solve)
    with pytest.raises(ValueError):
        sweep(lam_range, mu_range, 1.0, gamma=gamma, K_list=(ORIGIN, TorusPoint(1.0, 0.5)))


def test_success_rows_have_an_empty_error():
    rows = sweep((-12.0, 12.0), (-12.0, 12.0), 1.0)
    assert len(rows) == 625
    ok = [r for r in rows if r.comp_below is not None]
    assert len(ok) == len(rows)
    assert all(r.error == "" for r in ok)


def test_threshold_scan_adjudicates_the_even_threshold():
    res = threshold_scan()
    assert res.matches_computed
    # 1 / max(e - c) over the samples is the computed t_s to 1e-9: the
    # nearest sample sits 1e-10 from the edge, where c - e is near its limit
    assert res.appearance_mu == pytest.approx(res.candidate_computed, rel=1e-9)
    assert res.candidate_published == pytest.approx(3.659792, abs=1e-5)
    assert res.candidate_computed == pytest.approx(7.319585, abs=1e-5)


@pytest.mark.parametrize("lam,mu", [(1.0, 4.0), (0.0, 5.0)])
def test_published_threshold_predicts_a_state_the_operator_lacks(lam, mu):
    # between the published t_s = pi g / (2 (4 - pi)) = 3.6598 and the
    # computed 7.3196 the published table adds a decoupled-even state above
    # the band; the solver and the grid oracle find only the coupled one
    params = ModelParams(1.0, lam, mu)
    label = classify(params)
    pub = published_thresholds(1.0)
    assert pub.t_s < mu < label.thresholds.t_s
    published = replace(label, s_region=atlas._axis_region(mu, pub.t_s, "S0"),
                        thresholds=pub)
    assert predicted_counts(published).n_above_k0 == 2
    assert predicted_counts(label).n_above_k0 == 1
    assert spectrum_k0(params).n_above == 1
    assert oracle_counts(ORIGIN, params, n=256).n_above == 1
