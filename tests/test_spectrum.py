"""Zero-fiber and general-fiber spectrum solvers against frozen benchmarks.

The reference eigenvalues below were produced by the dense-grid
diagonalization oracle (n = 40, agreeing with n = 256 jump counting) and
frozen; the solver has to reproduce counts exactly and positions to the
printed precision.
"""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpotrf, dsyevd

from latticebound import atlas, core, determinants, integrals, spectrum
from latticebound.core import ORIGIN, ModelParams, TorusPoint
from latticebound.errors import GramMatrixError, ToleranceError
from latticebound.determinants import (FiberGram, factor_value, interaction_weights,
                                       secular_entries)
from latticebound.integrals import Side, calibrate_edge_constants, predicted_asymptote
from latticebound.oracle import dense_validate, oracle_counts
from latticebound.spectrum import (FactorKind, Sector, spectrum_general,
                                   spectrum_k0)


def expand(evs):
    out = []
    for ev in evs:
        out.extend([ev.z] * ev.multiplicity)
    return out


BENCH_COUNTS = [
    # (lam, mu, n_below, n_above) at gamma = 1, zero fiber
    (1.0, 10.0, 0, 4),
    (6.0, 10.0, 0, 5),
    (1.0, 6.0, 0, 3),
    (-1.0, 0.0, 1, 0),
    (0.0, -12.0, 4, 0),
    (-6.0, -10.0, 5, 0),
    (-3.0, 2.0, 1, 1),
    (2.0, -3.0, 1, 0),
]


@pytest.mark.parametrize("lam,mu,nb,na", BENCH_COUNTS)
def test_benchmark_counts(lam, mu, nb, na):
    rep = spectrum_k0(ModelParams(1.0, lam, mu))
    assert (rep.n_below, rep.n_above) == (nb, na)


BENCH_POSITIONS = [
    (1.0, 10.0, [], [9.219394, 9.617496, 9.617496, 10.564420]),
    (6.0, 10.0, [], [8.309735, 9.219394, 9.617496, 9.617496, 11.847621]),
    (1.0, 6.0, [], [8.103857, 8.103857, 9.147453]),
    (0.0, -12.0, [-3.292439, -2.509830, -2.509830, -2.177160], []),
]


@pytest.mark.parametrize("lam,mu,below,above", BENCH_POSITIONS)
def test_benchmark_positions(lam, mu, below, above):
    rep = spectrum_k0(ModelParams(1.0, lam, mu))
    assert expand(rep.below) == pytest.approx(below, abs=2e-6)
    assert expand(rep.above) == pytest.approx(above, abs=2e-6)


def test_shallow_root_below():
    # lam = -1 binds a single state a tenth of a millibandwidth deep
    rep = spectrum_k0(ModelParams(1.0, -1.0, 0.0))
    assert rep.n_above == 0
    assert len(rep.below) == 1
    assert rep.below[0].z == pytest.approx(-0.000111576954699, rel=1e-8)
    assert rep.below[0].factor is FactorKind.MAIN_EVEN
    assert not rep.below[0].pinned


def test_pinned_root_from_edge_model():
    # on this side of the exchange hyperbola the main even factor keeps a
    # root exponentially close to the upper edge: no mesh reaches it, the
    # asymptotic model places it
    rep = spectrum_k0(ModelParams(1.0, 8.5, 4.0))
    assert (rep.n_below, rep.n_above) == (0, 2)
    first, second = rep.above
    assert first.pinned
    assert first.factor is FactorKind.MAIN_EVEN
    assert 0.0 < first.z - 8.0 < 1e-4
    assert not second.pinned
    assert second.z == pytest.approx(13.112050, abs=2e-6)


def test_odd_double_eigenvalue():
    rep = spectrum_k0(ModelParams(1.0, 1.0, 10.0))
    doubles = [ev for ev in rep.above if ev.multiplicity == 2]
    assert len(doubles) == 1
    ev = doubles[0]
    assert ev.sector is Sector.ODD
    assert ev.factor is FactorKind.ODD
    assert ev.z == pytest.approx(9.617496, abs=2e-6)


def test_degenerate_fiber_closed_form():
    # gamma = 1 at the corner fiber: flat dispersion, spectrum from the
    # weights alone: e + lam (simple) and e + mu/2 (fourfold)
    corner = TorusPoint(np.pi, np.pi)
    rep = spectrum_general(corner, ModelParams(1.0, 3.0, 2.0))
    assert rep.band.degenerate
    assert expand(rep.below) == []
    assert expand(rep.above) == pytest.approx([5.0, 5.0, 5.0, 5.0, 7.0])

    rep = spectrum_general(corner, ModelParams(1.0, -3.0, 2.0))
    assert expand(rep.below) == pytest.approx([1.0])
    assert expand(rep.above) == pytest.approx([5.0, 5.0, 5.0, 5.0])

    # lam == mu/2 makes the two levels coincide into a fivefold eigenvalue
    rep = spectrum_general(corner, ModelParams(1.0, 1.0, 2.0))
    assert len(rep.above) == 1
    assert rep.above[0].multiplicity == 5
    assert rep.above[0].z == pytest.approx(5.0)


def test_flat_fiber_matches_dense_diagonalization():
    # gamma = 1, K = (pi, pi): the grid band is flat too, so the dense
    # spectrum on 16 x 16 points is the interaction's up to rounding; seeded
    # couplings with lam = mu/2, opposite signs, lam = 0 and mu = 0
    corner = TorusPoint(math.pi, math.pi)
    rng = np.random.default_rng(53)
    a, b = np.abs(rng.uniform(0.5, 9.0, (2, 4)))
    draws = ([(x, 2.0 * x) for x in rng.uniform(-6.0, 6.0, 3)]
             + [(x, -y) for x, y in zip(a, b)] + [(-x, y) for x, y in zip(a, b)]
             + [(0.0, y) for y in rng.uniform(-9.0, 9.0, 3)]
             + [(x, 0.0) for x in rng.uniform(-9.0, 9.0, 3)]
             + [tuple(rng.uniform(-9.0, 9.0, 2)) for _ in range(4)])
    for lam, mu in draws:
        params = ModelParams(1.0, float(lam), float(mu))
        rep, dense = spectrum_general(corner, params), dense_validate(corner, params, n=16)
        assert rep.band.degenerate
        for got, want in ((rep.below, dense.below), (rep.above, dense.above)):
            assert [ev.multiplicity for ev in got] == [ev.multiplicity for ev in want]
            assert [ev.z for ev in got] == pytest.approx([ev.z for ev in want], abs=1e-12)


def test_flat_fiber_keeps_each_state_on_its_side():
    # lam = 3e-10 repels and mu/2 = -2e-10 attracts: the two levels lie
    # within the merge tolerance of each other, but on opposite sides
    rep = spectrum_general(TorusPoint(math.pi, math.pi), ModelParams(1.0, 3e-10, -4e-10))
    assert [(ev.z, ev.multiplicity) for ev in rep.below] == [(4.0 - 2e-10, 4)]
    assert [(ev.z, ev.multiplicity) for ev in rep.above] == [(4.0 + 3e-10, 1)]
    # a fiber flat to 2e-13 but not exactly: the states sit outside both edges
    rep = spectrum_general(TorusPoint(math.pi - 1e-13, math.pi), ModelParams(1.0, 1e-13, -2e-13))
    assert rep.band.degenerate and rep.band.e_min < rep.band.e_max
    assert [ev.multiplicity for ev in rep.below] == [4]
    assert [ev.multiplicity for ev in rep.above] == [1]
    assert rep.below[0].z < rep.band.e_min and rep.above[0].z > rep.band.e_max


def _huge_draws():
    """The two cases that counted wrong at huge couplings, then seeded
    draws from 1e12 to 1e17 with lam either 0 or of mu's size."""
    rng = np.random.default_rng(61)
    draws = [(0.7241468554370032, 0.0, 2207567270558490.2,
              (0.27308059400458795, 1.045540845788715)),
             (1.0, 1e17, 0.0, (1.0, 0.5)), (1.0, -1e17, 0.0, (1.0, 0.5))]
    for i, e in enumerate(np.repeat(np.arange(12.0, 17.5, 0.5), 6).tolist()):
        gamma = 1.0 if i % 3 == 0 else float(rng.uniform(0.3, 3.0))
        mu = float(rng.choice([-1.0, 1.0]) * 10.0 ** (e + rng.uniform(0.0, 0.5)))
        lam = 0.0 if i % 2 else float(rng.choice([-1.0, 1.0]) * abs(mu) * rng.uniform(0.1, 2.0))
        draws.append((gamma, lam, mu, tuple(rng.uniform(-math.pi, math.pi, 2).tolist())))
    return draws


def test_huge_couplings_count_right_or_fail_typed():
    # beyond a window of 2^44 g rounding would decide a count, so the K = 0
    # scalar and batch solvers and the general one raise ToleranceError
    # there; every report they give holds no state on a side that no
    # coupling of its sign binds, at most four per side at lam = 0 (G has
    # rank four), and at K at least as many per side as at K = 0
    raised = 0
    for gamma, lam, mu, k in _huge_draws():
        params = ModelParams(gamma, lam, mu)
        in_range = spectrum._search_window(lam, mu) <= spectrum.COUPLING_MAX * params.g
        point = spectrum._k0_batch(gamma, [lam], [mu])[0]
        try:
            k0 = spectrum_k0(params)
            rep = spectrum_general(TorusPoint(*k), params)
        except ToleranceError:
            assert not in_range and isinstance(point, ToleranceError)
            raised += 1
            continue
        assert in_range
        assert [sum(r.multiplicity for r in side) for side in point] == [k0.n_below, k0.n_above]
        for r in (k0, rep):
            assert not (lam >= 0.0 and mu >= 0.0 and r.n_below)
            assert not (lam <= 0.0 and mu <= 0.0 and r.n_above)
            assert lam != 0.0 or max(r.n_below, r.n_above) <= 4
        assert rep.n_below >= k0.n_below and rep.n_above >= k0.n_above
    assert 3 <= raised < len(_huge_draws())


@pytest.mark.parametrize("lam,mu", [(1.0, 10.0), (0.0, -12.0), (-3.0, 2.0)])
def test_zero_fiber_paths_agree(lam, mu):
    # the factored scan and the Birman-Schwinger curve counter must coincide
    params = ModelParams(1.0, lam, mu)
    fast = spectrum_k0(params)
    slow = spectrum_general(ORIGIN, params)
    assert (fast.n_below, fast.n_above) == (slow.n_below, slow.n_above)
    assert expand(fast.below) == pytest.approx(expand(slow.below), abs=5e-9)
    assert expand(fast.above) == pytest.approx(expand(slow.above), abs=5e-9)


def _on_the_hyperbola(gamma, mu, rel):
    """(gamma, lam, mu) with lam a relative ``rel`` off the S- = 0 hyperbola."""
    g = 1.0 + gamma
    return gamma, -2.0 * mu * g / (g + mu) * (1.0 + rel), mu


ZERO_FIBER_COUPLINGS = [
    # generic, pinned states and the near-hyperbola fibers of gamma = 0.990739
    (1.0, 1.0, 10.0), (1.0, 6.0, 10.0), (1.0, 0.0, -12.0), (1.0, -3.0, 2.0),
    (0.5, 3.75, 9.0), (2.0, -7.0, 4.0), (1.5, -4.0, 8.0), (0.7, 10.0, -3.0),
    (2.5, -11.0, -9.0), (1.2, 5.0, 5.0), (0.8, -2.0, -6.0), (1.0, 8.5, 4.0),
    (0.990739, -12.0, 1.5), (0.990739, 4.0, -1.0),
    # weak couplings: the edge model changes sign beyond any fixed depth
    (2.0, 1e-5, 0.0), (2.0, 1e-8, 0.0), (1.0, 0.0, 1e-6), (1.0, -1e-7, 0.0),
    (0.5, 0.0, -1e-9), (1.0, 3e-5, -2e-5), (2.0, 1.06e-163, 0.0),
    # next to the S- = 0 hyperbola, on both sides, and on it
    _on_the_hyperbola(1.0, 1.5, 1e-2), _on_the_hyperbola(1.0, 1.5, -1e-2),
    _on_the_hyperbola(1.0, 1.5, 1e-4), _on_the_hyperbola(1.0, 1.5, -1e-4),
    _on_the_hyperbola(1.0, 1.5, 1e-8), _on_the_hyperbola(0.6, -0.8, 1e-3),
    _on_the_hyperbola(0.6, -0.8, -1e-3), _on_the_hyperbola(2.2, 5.0, 1e-6),
    _on_the_hyperbola(2.2, 5.0, -1e-6), _on_the_hyperbola(1.0, 1.5, 0.0),
]


@pytest.mark.parametrize("gamma,lam,mu", ZERO_FIBER_COUPLINGS)
def test_general_solver_reproduces_the_zero_fiber_solver(gamma, lam, mu):
    # the two solvers share no Gram matrix, curve or edge model: the same
    # states, multiplicities and pinned flags, and the unpinned positions
    params = ModelParams(gamma, lam, mu)
    fast, slow = spectrum_k0(params), spectrum_general(ORIGIN, params)
    for a, b in ((fast.below, slow.below), (fast.above, slow.above)):
        assert [(ev.multiplicity, ev.pinned) for ev in a] == \
            [(ev.multiplicity, ev.pinned) for ev in b]
        for x, y in zip(a, b):
            if not x.pinned:
                assert y.z == pytest.approx(x.z, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("params,K", [
    (ModelParams(2.0, 1e-5, 0.0), ORIGIN),
    (ModelParams(2.0, 1e-8, 0.0), ORIGIN),
    (ModelParams(2.0, 1.06e-163, 0.0), ORIGIN),
    (ModelParams(1.0, 0.0, 1e-6), TorusPoint(0.5, 0.3)),
    (ModelParams(1.0, 0.0, 1e-6), ORIGIN),
])
def test_weak_coupling_keeps_its_edge_state(params, K):
    # the rank-one edge model of det(I + G J) changes sign near
    # ln d = -1/(coupling * sigma), beyond any fixed depth: the count reads
    # its t -> -inf limit.  At K = (0.5, 0.3) a count of 0 would also fall
    # below the count at K = 0, against the paper's lower bound
    rep = spectrum_general(K, params)
    assert (rep.n_below, rep.n_above) == (0, 1)
    assert rep.above[0].pinned
    k0 = spectrum_k0(params)
    assert (k0.n_below, k0.n_above) == (0, 1)


@pytest.mark.parametrize("lam,mu", [(6.0, 10.0), (-6.0, -10.0), (-3.0, 2.0),
                                    (3.5, -2.0)])
def test_k0_solve_evaluates_each_distance_once(monkeypatch, lam, mu):
    # the moments below the band do not depend on (lam, mu), so all three
    # factors and both sides of one solve share every evaluation, the
    # floor and the window included
    ts = []
    inner = integrals._reduced_integrals

    def counting(t):
        ts.append(t)
        return inner(t)

    monkeypatch.setattr(integrals, "_reduced_integrals", counting)
    params = ModelParams(1.2345, lam, mu)
    rep = spectrum_k0(params)
    assert rep.n_below + rep.n_above > 0
    assert len(ts) == len(set(ts))
    assert spectrum.MESH_FLOOR / params.g in ts
    assert (abs(lam) + 2.0 * abs(mu) + 1.0) / params.g in ts
    assert len(ts) <= 60


def test_shallow_k0_root_sits_on_the_sign_change():
    # a state a hair above the 1e-10 floor: the former scan polished it with
    # an absolute 1e-13 tolerance and reported it 5.6e-6 relative off, where
    # the factor reads -3.9e-7 on both sides
    params = ModelParams(1.0, -10.5, -3.5)
    rep = spectrum_k0(params)
    shallow = rep.below[-1]
    assert shallow.factor is FactorKind.MAIN_EVEN and not shallow.pinned
    d = -shallow.z
    assert 1e-10 < d < 1.1e-10
    lo, hi = (factor_value(FactorKind.MAIN_EVEN, integrals.moments_below(d * (1.0 + r), 1.0),
                           params.lam, params.mu)
              for r in (-1e-9, 1e-9))
    assert lo * hi < 0.0


@pytest.mark.parametrize("K,lam,mu", [
    (TorusPoint(1.0, 0.5), 6.0, 10.0),
    (TorusPoint(0.7, -2.1), -3.0, 2.0),
    (TorusPoint(-2.5, 0.7), 10.0, -3.0),
])
def test_general_solve_integrates_each_distance_once(monkeypatch, K, lam, mu):
    # J below the band does not depend on (lam, mu), so both sides of one
    # solve share every Gram matrix; the last two fibers have states on both
    deltas = []
    inner = FiberGram.blocks

    def counting(fiber, delta):
        deltas.append(delta)
        return inner(fiber, delta)

    monkeypatch.setattr(FiberGram, "blocks", counting)
    rep = spectrum_general(K, ModelParams(1.0, lam, mu))
    assert rep.n_below + rep.n_above > 0
    assert deltas and len(deltas) == len(set(deltas))


@pytest.mark.parametrize("K,lam,mu", [
    (TorusPoint(1.0, 0.5), 6.0, 10.0),
    (TorusPoint(0.7, -2.1), -3.0, 2.0),
    (TorusPoint(-2.5, 0.7), 10.0, -3.0),
])
def test_general_solve_integrates_few_distances(monkeypatch, K, lam, mu):
    # the window, the floor and one engine solve per crossing: the former
    # 139-point mesh scan with bisected jumps took about 240
    calls = []
    inner = FiberGram.blocks

    def counting(fiber, delta):
        calls.append(delta)
        return inner(fiber, delta)

    monkeypatch.setattr(FiberGram, "blocks", counting)
    spectrum_general(K, ModelParams(1.0, lam, mu))
    assert calls and len(calls) <= 60


@pytest.mark.parametrize("K,lam,mu", [
    (TorusPoint(1.0, 0.5), 6.0, 10.0),
    (TorusPoint(0.7, -2.1), -3.0, 2.0),
    (TorusPoint(math.pi, 0.7), 10.0, -3.0),
])
def test_general_solve_computes_the_amplitudes_at_most_twice(monkeypatch, K, lam, mu):
    # (R1, R2, phi1, phi2) depend on (K, gamma) alone: the band edges take
    # them once and the solve's FiberGram once, and every distance reuses them
    calls = []
    real = core.pair_amplitudes

    def counting(K, gamma):
        calls.append(K)
        return real(K, gamma)

    holders = [m for name, m in list(sys.modules.items())
               if name.startswith("latticebound") and vars(m).get("pair_amplitudes") is real]
    assert core in holders and determinants in holders
    for module in holders:
        monkeypatch.setattr(module, "pair_amplitudes", counting)
    rep = spectrum_general(K, ModelParams(1.0, lam, mu))
    assert rep.n_below + rep.n_above > 0
    assert 1 <= len(calls) <= 2


def _gram_draws(n, seed):
    """(K, params, d) over the fibers, couplings and distances of general
    solves: lam = 0, mu = 0, couplings near 1e-6 and R1 R2 = 0 (gamma = 1,
    K_i = pi) among them."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        gamma = 1.0 if i % 4 == 0 else float(rng.uniform(0.2, 4.0))
        k = rng.uniform(-math.pi, math.pi, 2)
        if i % 7 == 0:
            gamma, k[i % 2] = 1.0, math.pi
        K = TorusPoint(float(k[0]), float(k[1]))
        d = float(np.exp(rng.uniform(math.log(1e-10), math.log(40.0))))
        lam, mu = rng.uniform(-12.0, 12.0, 2) * (1e-6 if i % 5 == 1 else 1.0)
        lam, mu = (0.0 if i % 6 == 2 else lam), (0.0 if i % 6 == 3 else mu)
        yield K, ModelParams(gamma, float(lam), float(mu)), d


def test_block_curves_are_the_curves_of_the_gram_matrix():
    # G is a scalar on each rotated (cos, sin) mode pair, so the curves of
    # the five-mode J and of its parity blocks agree
    worst = 0.0
    for K, params, d in _gram_draws(2000, 23):
        curves = spectrum._fiber_curves(K, params, FiberGram(K, params.gamma).blocks)(d)
        j = secular_entries(K, params.gamma, Side.BELOW, d)
        ref = spectrum._threshold_count(j, np.diag(interaction_weights(params)))[1]
        assert curves == sorted(curves)
        scale = np.max(np.abs(ref))
        err = np.max(np.abs(np.array(curves) - ref))
        assert err <= 1e-13 * scale, (K, params, d)
        worst = max(worst, err / scale if scale else 0.0)
    assert worst > 0.0


def _cholesky_curves(j, gvec):
    """The curves by dpotrf, L^T G L and dsyevd: the route that the one
    dsygvd call of _threshold_count replaced."""
    chol, info = dpotrf(j, lower=1)
    assert info == 0
    return dsyevd((chol.T * gvec) @ chol, compute_v=0)[0].tolist()


def test_threshold_count_matches_the_cholesky_route():
    # on the even block the general solver reads and on the five-mode J the
    # grid oracle's form reads
    worst = 0.0
    for K, params, d in _gram_draws(2000, 31):
        gvec = interaction_weights(params)
        for j, g in ((FiberGram(K, params.gamma).blocks(d)[0], gvec[:3]),
                     (secular_entries(K, params.gamma, Side.BELOW, d), gvec)):
            n, eta = spectrum._threshold_count(j, np.diag(g))
            ref = _cholesky_curves(j, g)
            scale = max(map(abs, ref))
            err = max(abs(x - y) for x, y in zip(eta, ref))
            assert eta == sorted(eta) and n == sum(v < -1.0 for v in eta)
            assert err <= 1e-13 * scale, (K, params, d)
            worst = max(worst, err / scale if scale else 0.0)
    assert worst > 0.0


def test_negated_weights_give_the_negated_curves():
    # above the band the curves are those of (-J, -G): negating G negates
    # every curve and reverses their order, bit for bit
    for K, params, d in _gram_draws(3000, 37):
        even, gmat = FiberGram(K, params.gamma).blocks(d)[0], np.diag(interaction_weights(params)[:3])
        eta = spectrum._threshold_count(even, gmat)[1]
        assert spectrum._threshold_count(even, -gmat)[1] == [-v for v in reversed(eta)]
        # at zero fiber the rows at (-lam, -mu) are those at (lam, mu)
        # negated, in the order (main even larger, smaller, sub-even, odd)
        moments = integrals.moments_below(d, params.gamma)
        small, big, sub, odd = spectrum._k0_curves(params, lambda d: moments)(d)
        mirrored = spectrum._k0_curves(spectrum._mirrored(params), lambda d: moments)(d)
        assert [v.hex() for v in mirrored] == [(-v).hex() for v in (big, small, sub, odd)]


def test_eigensolve_that_does_not_converge_is_a_typed_error(monkeypatch):
    # LAPACK reports 1 <= info <= n when the eigensolve does not converge
    monkeypatch.setattr(spectrum, "dsygvd", lambda *a, **k: (np.zeros(3), None, 2))
    with pytest.raises(ToleranceError, match="did not converge"):
        spectrum._threshold_count(np.eye(3), np.diag([6.0, 5.0, 5.0]))


def test_even_block_that_is_not_positive_definite_is_a_typed_error(monkeypatch):
    K, params = TorusPoint(1.0, 0.5), ModelParams(1.0, 6.0, 10.0)
    bad = (np.diag([1.0, -1e-3, 1.0]), 0.1, 0.1)
    with pytest.raises(GramMatrixError, match=r"K = \(1\.0, 0\.5\), gamma = 1\.0, d = 0\.25: "
                                              r".*not positive definite \(leading minor 2\)"):
        spectrum._fiber_curves(K, params, lambda d: bad)(0.25)
    monkeypatch.setattr(FiberGram, "blocks", lambda fiber, d: bad)
    with pytest.raises(GramMatrixError, match="not positive definite"):
        spectrum_general(K, params)


# ---------------------------------------------------------------------------
# the crossing engine on synthetic sorted curves


def _crossings(curves):
    """The crossing distances of ``curves`` on [MESH_FLOOR, 10], and the
    number of distances the engine evaluated."""
    used = []

    def counted(d):
        used.append(d)
        return curves(d)

    pairs = spectrum._curve_crossings(counted, spectrum.MESH_FLOOR, 10.0,
                                      lambda k: (False, f"synthetic {k}"))
    return [d for _, d in pairs], len(used)


def _log_curve(d0, slope):
    """A curve increasing in d that crosses -1 at d0."""
    return lambda d: -1.0 + slope * math.log(d / d0)


def test_crossings_none():
    roots, used = _crossings(lambda d: np.array([-0.5, 0.3]))
    assert roots == [] and used == 2


def test_crossings_one():
    c = _log_curve(0.37, 0.2)
    roots, _ = _crossings(lambda d: np.array([c(d), 0.5]))
    assert roots == [pytest.approx(0.37, rel=1e-13)]


def test_crossings_double_root_merges():
    # two curves through -1 at the same distance: a double root
    c1, c2 = _log_curve(0.37, 0.05), _log_curve(0.37, 0.3)
    roots, _ = _crossings(lambda d: np.sort([c1(d), c2(d), 2.0]))
    assert len(roots) == 2
    merged = spectrum._merge_found([
        spectrum._Root(d, FactorKind.GENERAL, Sector.MIXED, 1) for d in roots])
    assert [(r.d, r.multiplicity) for r in merged] == [(pytest.approx(0.37, rel=1e-13), 2)]


def test_report_merges_and_places_the_roots_it_is_given():
    # unsorted and unmerged roots, as the grid oracles hand them over: the
    # two within MERGE_TOL are one state, and each side is ascending in z
    def root(d):
        return spectrum._Root(d, FactorKind.GENERAL, Sector.MIXED, 1)

    band = core.Band(-1.0, 7.0, ORIGIN, TorusPoint(math.pi, math.pi))
    roots = [root(0.5), root(0.25 + 0.5 * spectrum.MERGE_TOL), root(0.25), root(0.75)]
    rep = spectrum._report(ORIGIN, ModelParams(1.0, 1.0, 1.0), band, roots, roots[::-1])
    assert [(ev.z, ev.multiplicity) for ev in rep.below] == [(-1.75, 1), (-1.5, 1), (-1.25, 2)]
    assert [(ev.z, ev.multiplicity) for ev in rep.above] == [(7.25, 2), (7.5, 1), (7.75, 1)]
    assert (rep.n_below, rep.n_above) == (4, 4)


def test_merge_found_returns_short_lists_as_given():
    # zero or one root needs no sort and no merge: the list itself comes back
    empty = []
    one = [spectrum._Root(0.37, FactorKind.ODD, Sector.ODD, 2, pinned=False)]
    assert spectrum._merge_found(empty) is empty
    assert spectrum._merge_found(one) is one
    assert one == [spectrum._Root(0.37, FactorKind.ODD, Sector.ODD, 2)]


def test_crossings_next_to_the_floor():
    d0 = spectrum.MESH_FLOOR + 5e-13
    c = _log_curve(d0, 0.01)
    roots, _ = _crossings(lambda d: np.array([-5.0, c(d), 0.0]))
    assert roots == [pytest.approx(d0, rel=1e-13, abs=0.0)]


def test_curve_passes_stay_within_their_bound(monkeypatch):
    # with no budget to stop it, a pass is bounded by its structure: the two
    # ends, then at most 100 iterations per crossing curve; the draws
    # span couplings from 1e-9 to 1e12 and include R1 R2 = 0 fibers
    passes = []
    inner = spectrum._curve_crossings

    def counting(curves, floor, window, what):
        used = []

        def counted(d):
            used.append(d)
            return curves(d)

        roots = inner(counted, floor, window, what)
        passes.append((len(used), len(roots)))
        return roots

    monkeypatch.setattr(spectrum, "_curve_crossings", counting)
    rng = np.random.default_rng(41)
    for i in range(48):
        gamma = float(rng.uniform(0.2, 4.0))
        lam, mu = rng.choice([-1.0, 1.0], 2) * 10.0 ** rng.uniform(-9.0, 12.0, 2)
        lam, mu = (0.0 if i % 8 == 3 else lam), (0.0 if i % 8 == 5 else mu)
        params = ModelParams(gamma, float(lam), float(mu))
        k = rng.uniform(-math.pi, math.pi, 2)
        if i % 6 == 0:
            params, k[i % 2] = ModelParams(1.0, params.lam, params.mu), math.pi
        spectrum_k0(params)
        spectrum_general(TorusPoint(float(k[0]), float(k[1])), params)
    assert len(passes) >= 48 * 2
    assert any(n for _, n in passes)
    for used, crossings in passes:
        assert used <= 2 + 100 * crossings


def test_crossing_that_does_not_converge_is_a_tolerance_error(monkeypatch):
    # a crossing that runs out of iterations fails typed, with the
    # engine's status and iteration count
    monkeypatch.setattr(spectrum, "_chandrupatla", lambda f, a, b, fa, fb: (a, -2, 100))
    c = _log_curve(0.37, 0.2)
    with pytest.raises(ToleranceError, match=r"did not converge \(status -2\) in 100 iterations"):
        _crossings(lambda d: np.array([c(d)]))


@st.composite
def _curve_ends(draw):
    """Ascending curves at the floor and at the window: values at -1, one
    ulp off it and anywhere near it, so that rounding can also make the
    count rise with the distance."""
    n = draw(st.integers(1, 5))
    value = st.one_of(st.sampled_from([-1.0, math.nextafter(-1.0, -math.inf),
                                       math.nextafter(-1.0, math.inf)]),
                      st.floats(-4.0, 2.0))
    rows = st.lists(value, min_size=n, max_size=n).map(sorted)
    return draw(rows), draw(rows)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(ends=_curve_ends())
@example(ends=([-2.0, -1.0, 0.5], [-3.0, -2.0, 0.5]))
@example(ends=([-2.0, math.nextafter(-1.0, -math.inf)], [-2.0, -1.0]))
def test_row_selection_is_the_count_range_on_ascending_curves(ends):
    # the rows below -1 at the floor and not below it at the window are,
    # for ascending curves, the rows from the count at the window to the
    # count at the floor, none where the count rises with d (the first
    # example).  Between the ends the curves run linearly in ln d, so they
    # stay ascending and each selected row crosses -1 once
    at_floor, at_window = ends
    floor, window = spectrum.MESH_FLOOR, 10.0
    lo, hi = math.log(floor), math.log(window)

    def curves(d):
        if d in (floor, window):
            return at_floor if d == floor else at_window
        w = (math.log(d) - lo) / (hi - lo)
        return [a + w * (b - a) for a, b in zip(at_floor, at_window)]

    def count(eta):
        return sum(v < -1.0 for v in eta)

    pairs = spectrum._curve_crossings(curves, floor, window, lambda k: (False, f"curve {k}"))
    assert [k for k, _ in pairs] == list(range(count(at_window), count(at_floor)))
    assert all(floor <= d <= window for _, d in pairs)


def test_main_even_edge_is_the_predicted_asymptote():
    # one closed form serves the solvers' edge models and the region
    # thresholds: the same bits for gamma from 1e-300 to GAMMA_MAX
    gammas = [1e-300, *np.logspace(-299.0, 99.0, 399).tolist(), core.GAMMA_MAX]
    for gamma in gammas:
        slope, *limits = calibrate_edge_constants(gamma)
        edge = dict(zip("abcef", limits))
        models = {q: predicted_asymptote(q, Side.BELOW, gamma) for q in "abce"}
        assert [edge[q].hex() for q in "abce"] == \
            [models[q].offset.hex() for q in "abce"], gamma
        assert {m.log_slope.hex() for m in models.values()} == {slope.hex()}, gamma
        thresholds = atlas.binding_thresholds(gamma)
        assert (thresholds.t_s.hex(), thresholds.t_d.hex()) == \
            ((1.0 / (edge["c"] - edge["e"])).hex(), (1.0 / edge["f"]).hex()), gamma


# ---------------------------------------------------------------------------
# the one zero-fiber pass against the former pass per factor


def _count_range_crossings(curves, floor, window):
    """The former pass: one crossing of ascending ``curves`` for each k from
    the count at the window to the count at the floor, with its own memo."""
    lo, hi = math.log(floor), math.log(window)
    ends = {lo: floor, hi: window}
    memo = {}

    def at(t):
        if t not in memo:
            memo[t] = curves(ends[t] if t in ends else math.exp(t))
        return memo[t]

    roots = []
    for k in range(sum(v < -1.0 for v in at(hi)), sum(v < -1.0 for v in at(lo))):
        t_lo = max(t for t, eta in memo.items() if eta[k] < -1.0)
        t_hi = min(t for t, eta in memo.items() if eta[k] >= -1.0)
        t, status, _ = spectrum._chandrupatla(lambda t: at(t)[k] + 1.0, t_lo, t_hi,
                                              memo[t_lo][k] + 1.0, memo[t_hi][k] + 1.0)
        assert status == 0
        roots.append(ends[t] if t in ends else math.exp(t))
    return roots


def _three_pass_k0_below(params):
    """The former scalar solve below the band at zero fiber: one pass per
    determinant factor over its own ascending curves, then the pending
    root, merged; the edge models straight from predicted_asymptote."""
    gamma, lam, mu = params.gamma, params.lam, params.mu
    memo = {}

    def moments(d):
        if d not in memo:
            memo[d] = integrals.moments_below(d, gamma)
        return memo[d]

    def main_even(d):
        a, b, c, e, _ = moments(d)
        x, y, bb = lam * a, mu * (c + e), 2.0 * lam * mu * b * b
        root = math.sqrt(max(0.25 * (x - y) ** 2 + bb, 0.0))
        big = 0.5 * (x + y) + math.copysign(root, x + y)
        small = (x * y - bb) / big if big != 0.0 else 0.0
        return (small, big) if small <= big else (big, small)

    def sub_even(d):
        _, _, c, e, _ = moments(d)
        return (mu * (c - e),)

    def odd(d):
        return (mu * moments(d)[4],)

    window = spectrum._search_window(lam, mu)
    found = [spectrum._Root(d, kind, sector, mult)
             for curves, (kind, sector, mult) in zip((main_even, sub_even, odd),
                                                     spectrum._ZERO_FIBER_FACTORS)
             for d in _count_range_crossings(curves, spectrum.MESH_FLOOR, window)]
    models = {q: predicted_asymptote(q, Side.BELOW, gamma) for q in "abcef"}
    edge = (models["a"].log_slope, *(m.offset for m in models.values()))
    flag, alpha, beta = spectrum._pending(lam, mu, params.g, edge, moments(spectrum.MESH_FLOOR))
    if flag:
        found.append(spectrum._pinned_root(alpha, beta))
    return spectrum._merge_found(found)


def _k0_reference_draws():
    """The zero-fiber couplings above, then 3,000 seeded draws: one in five
    scaled by 1e-3 and one in seven by 1e4."""
    rng = np.random.default_rng(67)
    draws = list(ZERO_FIBER_COUPLINGS)
    for i in range(3000):
        gamma = float(rng.uniform(0.2, 4.0))
        scale = 1e-3 if i % 5 == 0 else 1e4 if i % 7 == 0 else 1.0
        lam, mu = (float(x) * scale for x in rng.uniform(-12.0, 12.0, 2))
        draws.append((gamma, lam, mu))
    return draws


def _on_a_curve(params, d):
    """Whether some zero-fiber curve is -1 at d to within 64 ulp of its value."""
    eta = spectrum._k0_curves(params, lambda d: integrals.moments_below(d, params.gamma))(d)
    return any(abs(v + 1.0) <= 64.0 * spectrum._EPS * abs(v) for v in eta)


def test_one_pass_over_the_rows_is_the_pass_per_factor(scalar_sides):
    # the same states with the same multiplicities, factors, sectors and
    # pinned flags on each side.  The brackets differ, so the depths may
    # move: by at most 1e-12 of the depth, unless the crossing's curve is
    # -1 to rounding at both depths, where floats do not resolve it to
    # 1e-12 (a shallow odd root, where mu f is flat, moves by 1.6e-11)
    states, unresolved, kinds = 0, 0, set()
    for gamma, lam, mu in _k0_reference_draws():
        _, *sides = scalar_sides(spectrum_k0, ModelParams(gamma, lam, mu))
        for sign, got in zip((1.0, -1.0), sides):
            params = ModelParams(gamma, sign * lam, sign * mu)
            want = _three_pass_k0_below(params)
            assert [(r.multiplicity, r.factor, r.sector, r.pinned) for r in got] == \
                [(r.multiplicity, r.factor, r.sector, r.pinned) for r in want], params
            for a, b in zip(got, want):
                if abs(a.d - b.d) > 1e-12 * b.d:
                    assert _on_a_curve(params, a.d) and _on_a_curve(params, b.d), (params, a, b)
                    unresolved += 1
            states += len(got)
            kinds |= {(r.factor, r.pinned) for r in got}
    assert states > 5000 and unresolved <= states // 1000
    assert kinds == {(kind, False) for kind, _, _ in spectrum._ZERO_FIBER_FACTORS} | {
        (FactorKind.MAIN_EVEN, True)}


def _two_pass(curves, rows, pending, params):
    """The former scalar solve: one :func:`spectrum._curve_crossings` pass per
    side, below the band at (lam, mu) and at (-lam, -mu), over that side's
    own ``rows``, tagged as the solver tags them, then the side's
    ``pending(p)`` roots, merged.  ``curves(p)`` gives the rows at
    couplings p as a function of the distance."""
    window = spectrum._search_window(params.lam, params.mu)
    sides = []
    for p in (params, spectrum._mirrored(params)):
        crossings = spectrum._curve_crossings(curves(p), spectrum.MESH_FLOOR, window,
                                              lambda k: (False, f"curve {k}"))
        found = [spectrum._Root(d, *rows[row]) for row, d in crossings]
        sides.append(spectrum._merge_found(found + pending(p)))
    return sides


def _two_pass_k0(params):
    """The former zero-fiber solve; both sides share one memo of moments."""
    gamma = params.gamma
    edge, memo = calibrate_edge_constants(gamma), {}

    def moments(d):
        if d not in memo:
            memo[d] = integrals.moments_below(d, gamma)
        return memo[d]

    def pending(p):
        flag, alpha, beta = spectrum._pending(p.lam, p.mu, p.g, edge, moments(spectrum.MESH_FLOOR))
        return [spectrum._pinned_root(alpha, beta)] if flag else []

    return _two_pass(lambda p: spectrum._k0_curves(p, moments), spectrum._CURVE_ROWS, pending,
                     params)


def _two_pass_general(K, params):
    """The former general-fiber solve; both sides share one memo of blocks."""
    fiber, memo = FiberGram(K, params.gamma), {}

    def blocks(d):
        if d not in memo:
            memo[d] = fiber.blocks(d)
        return memo[d]

    def pending(p):
        count = spectrum._pending_count(fiber, p, blocks(spectrum.MESH_FLOOR)[0])
        return [spectrum._Root(spectrum.PINNED_MIN, *spectrum._GENERAL_ROWS[0], pinned=True)] * count

    return _two_pass(lambda p: spectrum._fiber_curves(K, p, blocks), spectrum._GENERAL_ROWS,
                     pending, params)


def _fiber_reference_draws(n, seed):
    """Seeded general fibers: one in five couplings scaled by 1e-3, one in
    six at gamma = 1 on a line K_i = pi, where R1 R2 is 1.5e-32, not 0."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        gamma = float(rng.uniform(0.2, 4.0))
        k = rng.uniform(-math.pi, math.pi, 2)
        if i % 6 == 0:
            gamma, k[i % 2] = 1.0, math.pi
        scale = 1e-3 if i % 5 == 0 else 1.0
        lam, mu = (float(x) * scale for x in rng.uniform(-12.0, 12.0, 2))
        yield TorusPoint(float(k[0]), float(k[1])), ModelParams(gamma, lam, mu)


@pytest.mark.parametrize("fiber", ["zero", "general"])
def test_one_pass_for_both_sides_is_the_pass_per_side(fiber, scalar_sides):
    # the same states with the same factors, sectors, multiplicities and
    # pinned flags on each side.  The one pass brackets each side's rows
    # also with the other side's distances, so the depths may move: by at
    # most 1e-13 of the depth, unless the crossing's curve is -1 to
    # rounding at both depths, where floats do not resolve it to 1e-13
    if fiber == "zero":
        cases = [(ORIGIN, ModelParams(*draw)) for draw in _k0_reference_draws()]
    else:
        cases = list(_fiber_reference_draws(500, 71))
    states, moved, unresolved, pinned = 0, 0, 0, 0
    for K, params in cases:
        if fiber == "zero":
            _, *got = scalar_sides(spectrum_k0, params)
            want = _two_pass_k0(params)
            curves = [spectrum._k0_curves(p, lambda d: integrals.moments_below(d, p.gamma))
                      for p in (params, spectrum._mirrored(params))]
        else:
            _, *got = scalar_sides(spectrum_general, K, params)
            want = _two_pass_general(K, params)
            curves = [spectrum._fiber_curves(K, p, FiberGram(K, p.gamma).blocks)
                      for p in (params, spectrum._mirrored(params))]
        for a_side, b_side, side_curves in zip(got, want, curves):
            assert [r._replace(d=0.0) for r in a_side] == [r._replace(d=0.0) for r in b_side], \
                (K, params)
            for a, b in zip(a_side, b_side):
                moved += a.d != b.d
                if abs(a.d - b.d) > 1e-13 * b.d:
                    assert all(any(abs(v + 1.0) <= 64.0 * spectrum._EPS * abs(v)
                                   for v in side_curves(d)) for d in (a.d, b.d)), \
                        (K, params, a, b)
                    unresolved += 1
            states += len(a_side)
            pinned += sum(r.pinned for r in a_side)
    assert states > (5000 if fiber == "zero" else 500) and pinned and moved
    assert unresolved <= states // 1000


# ---------------------------------------------------------------------------
# the root engine against SciPy's elementwise Chandrupatla


def _reference_roots(f, a, b, args=(), maxiter=100):
    """scipy.optimize.elementwise.find_root with the engine's tolerances, as
    (x, status, nit); imported here only, as a reference."""
    from scipy.optimize.elementwise import find_root
    res = find_root(f, (a, b), args=args, maxiter=maxiter,
                    tolerances=dict(xatol=1e-15, xrtol=4 * spectrum._EPS, fatol=0.0, frtol=0.0))
    return res.x, res.status, res.nit


def _bits(x):
    return np.asarray(x, dtype=float).reshape(-1).view(np.int64).tolist()


def _cubic(x, r, c, p):
    u = x - r
    return c * u + p * u * u * u


def _saturating(x, r, c, p):
    # decreasing, flat far from r: many steps are bisections
    u = x - r
    return -c * u / (1.0 + p * abs(u))


def _synthetic_brackets(n, seed):
    """Seeded brackets of the synthetic families: root r, scales c and p,
    one in ten ends exactly at r and one in fifty of one sign."""
    rng = np.random.default_rng(seed)
    r = rng.uniform(-20.0, 5.0, n)
    c, p = 10.0 ** rng.uniform(-3.0, 3.0, n), 10.0 ** rng.uniform(-3.0, 2.0, n)
    a, b = r - rng.uniform(1e-3, 25.0, n), r + rng.uniform(1e-3, 25.0, n)
    a[::20], b[10::20] = r[::20], r[10::20]
    b[7::50] = a[7::50] - 1.0
    swap = rng.random(n) < 0.3
    return np.where(swap, b, a), np.where(swap, a, b), r, c, p


def _solve(f, a, b, args=(), maxiter=100):
    """The engine on [a, b], handed f at both ends as its callers do."""
    return spectrum._chandrupatla(f, a, b, f(a, *args), f(b, *args), args, maxiter)


def _family(x, r, c, p, kind):
    return np.where(kind == 0, _cubic(x, r, c, p),
                    np.where(kind == 1, c * np.expm1(p * (x - r) / 10.0),
                             np.where(kind == 2, c * (x - r), _saturating(x, r, c, p))))


def test_engine_matches_scipy_on_synthetic_brackets():
    a, b, r, c, p = _synthetic_brackets(2000, 5)
    kind = np.arange(2000) % 4
    x, status, nit = _solve(_family, a, b, args=(r, c, p, kind))
    ref_x, ref_status, ref_nit = _reference_roots(_family, a, b, args=(r, c, p, kind))
    assert _bits(x) == _bits(ref_x)
    assert status.tolist() == ref_status.tolist()
    assert nit.tolist() == ref_nit.tolist()
    # every kind of stop occurs: exact zeros at an end, one-sign brackets, convergence
    assert {0, -1} == set(status.tolist())
    assert np.count_nonzero((nit == 0) & (status == 0)) >= 190
    assert 0 < nit.max() <= 100


def test_engine_matches_scipy_on_the_plane_residual(monkeypatch):
    calls = []
    real = spectrum._chandrupatla

    def recording(f, a, b, fa, fb, args=()):
        calls.append((f, a, b, fa, fb, args))
        return real(f, a, b, fa, fb, args)

    monkeypatch.setattr(spectrum, "_chandrupatla", recording)
    axis = [-12.0 + 0.5 * i for i in range(49)]
    spectrum._k0_batch(1.0, [lam for lam in axis for _ in axis], [mu for _ in axis for mu in axis])
    (f, a, b, fa, fb, args), = calls
    # the batch hands the engine the residual at the bracket ends, bit for bit
    assert _bits(fa) == _bits(f(a, *args)) and _bits(fb) == _bits(f(b, *args))
    x, status, nit = real(f, a, b, fa, fb, args)
    ref_x, ref_status, ref_nit = _reference_roots(f, a, b, args)
    assert a.size > 2000 and not status.any()
    assert _bits(x) == _bits(ref_x)
    assert status.tolist() == ref_status.tolist() and nit.tolist() == ref_nit.tolist()


@pytest.mark.parametrize("family", [_cubic, _saturating])
def test_engine_gives_floats_and_one_element_arrays_the_same_bits(family):
    a, b, r, c, p = _synthetic_brackets(300, 6)
    for i in range(300):
        point = (a[i], b[i], r[i], c[i], p[i])
        x, status, nit = _solve(family, *(float(v) for v in point[:2]),
                                args=tuple(float(v) for v in point[2:]))
        assert isinstance(x, float)
        ax, astatus, anit = _solve(family, *(np.array([v]) for v in point[:2]),
                                   args=tuple(np.array([v]) for v in point[2:]))
        assert _bits(x) == _bits(ax) and [status, nit] == [astatus[0], anit[0]]


def test_engine_takes_numpy_float_values():
    # curves may come as np.float64, whose comparisons give np.bool_: the
    # float path must not subtract them, and gives the bits of Python floats
    for d0, slope in [(0.37, 0.2), (1e-9, 0.01), (3.0, 5.0)]:
        curve = _log_curve(d0, slope)
        root = _solve(lambda t: curve(math.exp(t)) + 1.0, -23.0, 3.0)
        numpy_root = _solve(lambda t: np.float64(curve(math.exp(t))) + 1.0,
                            np.float64(-23.0), np.float64(3.0))
        assert root[1] == 0 and numpy_root[1:] == root[1:]
        assert _bits(numpy_root[0]) == _bits(root[0])
        assert root[0] == pytest.approx(math.log(d0), rel=1e-14, abs=1e-14)


@pytest.mark.parametrize("f,a,b,maxiter,status", [
    (lambda x: x * x + 1.0, -1.0, 2.0, 100, -1),       # ends of one sign
    (lambda x: x - 0.3, -math.inf, 2.0, 100, -3),      # an end that is not finite
    (lambda x: x * math.nan, -1.0, 2.0, 100, -3),      # f NaN at both ends
    (lambda x: x * x * x - 0.3, -1.0, 2.0, 3, -2),     # out of iterations
    (lambda x: x - 0.25, -1.0, 2.0, 100, 0),           # converged
    # the order of the tests: f zero at an end, then one sign, then finiteness
    (lambda x: x - 2.0, -math.inf, 2.0, 100, 0),
    (lambda x: x * x + 1.0, -math.inf, 2.0, 100, -1),
])
def test_engine_statuses(f, a, b, maxiter, status):
    ref_x, ref_status, ref_nit = _reference_roots(f, np.array([a]), np.array([b]),
                                                  maxiter=maxiter)
    assert ref_status.tolist() == [status]
    for got in (_solve(f, a, b, maxiter=maxiter),
                _solve(f, np.array([a]), np.array([b]), maxiter=maxiter)):
        x, s, nit = got
        assert _bits(x) == _bits(ref_x)
        assert int(np.asarray(s).reshape(-1)[0]) == status
        assert int(np.asarray(nit).reshape(-1)[0]) == int(ref_nit[0])
    assert math.isnan(ref_x[0]) == (status in (-1, -3))


def test_zero_coupling_is_empty(scalar_sides):
    params = ModelParams(1.0, 0.0, 0.0)
    assert spectrum_k0(params).n_below == 0
    assert spectrum_k0(params).n_above == 0
    rep = spectrum_general(TorusPoint(0.7, -1.1), params)
    assert rep.below == () and rep.above == ()
    # a batch with no crossing to solve, whose one problem (-0.0 read as
    # 0.0, the same list on every side) has the scalar solver's empty
    # roots, and an empty batch
    batch = spectrum._k0_batch(1.0, [0.0, -0.0], [0.0, 0.0])
    assert batch == [([], []), ([], [])]
    (a, b), (c, d) = batch
    assert a is b is c is d
    assert a == scalar_sides(spectrum_k0, ModelParams(1.0, 0.0, 0.0))[1]
    assert spectrum._k0_batch(1.0, [], []) == []


def test_rank_bound_on_random_draws():
    rng = np.random.default_rng(7)
    for _ in range(8):
        gamma = float(rng.uniform(0.3, 3.0))
        lam = float(rng.uniform(-9, 9))
        mu = float(rng.uniform(-9, 9))
        rep = spectrum_k0(ModelParams(gamma, lam, mu))
        assert rep.n_below + rep.n_above <= 5
        for ev in rep.below:
            assert ev.z < 0.0
        for ev in rep.above:
            assert ev.z > 4.0 * (1.0 + gamma)


# ---------------------------------------------------------------------------
# roots between the mesh floor and the edge


def _pending_bits(gamma, lams, mus):
    """The pinned depths below the band of the batch and of the scalar
    solver, by index, as hex strings (equal strings are equal bits).  The
    batch pins the roots of :func:`spectrum._pending` on arrays; the scalar
    solver's are the pinned states of the public reports, at z = -d."""
    mask = {}
    for i, (below, _) in enumerate(spectrum._k0_batch(gamma, lams, mus)):
        pinned = [r for r in below if r.pinned]
        assert len(pinned) <= 1
        if pinned:
            mask[i] = pinned[0].d.hex()
    scalar = {}
    for i, (lam, mu) in enumerate(zip(lams, mus)):
        pinned = [ev for ev in spectrum_k0(ModelParams(gamma, lam, mu)).below if ev.pinned]
        assert len(pinned) <= 1
        if pinned:
            assert pinned[0].factor is FactorKind.MAIN_EVEN
            scalar[i] = (-pinned[0].z).hex()
    return mask, scalar


def _on_the_hyperbola(mu, g):
    """lam with S- = 2 mu + lam + lam mu / g = 0, to rounding."""
    return -2.0 * mu / (1.0 + mu / g)


def _pending_count_by_det(fiber, params, even_floor):
    """The general-fiber pending count through np.linalg.det on the 4x4
    bordered matrix: the form the float expansion replaced."""
    if fiber.r1 * fiber.r2 == 0.0:
        return 0
    modes = np.array([1.0, math.sqrt(2.0), math.sqrt(2.0)])
    gvec = interaction_weights(params)[:3]
    gu = gvec * modes
    bordered = np.zeros((4, 4))
    bordered[:3, :3] = np.eye(3) + gvec[:, None] * even_floor
    bordered[:3, 3] = gu / np.max(np.abs(gu))
    bordered[3, :3] = modes
    det_floor = float(np.linalg.det(bordered[:3, :3]))
    det_bordered = float(np.linalg.det(bordered))
    noise = 64.0 * sys.float_info.epsilon * float(np.prod(np.linalg.norm(bordered, axis=0)))
    if det_floor == 0.0 or abs(det_bordered) <= noise:
        return 0
    return int((det_floor > 0.0) == (det_bordered > 0.0))


def test_pending_count_matches_the_determinant_route():
    # floors with lam = 0, mu = 0, couplings near 1e-6, gamma = 1 with
    # K_i = pi, and couplings within 1e-3 of the K = 0 hyperbola S- = 0 at
    # fibers down to 1e-6 from K = 0, where pending roots are born
    rng = np.random.default_rng(29)
    pending = 0
    for i in range(3000):
        kind = i % 6
        gamma = 1.0 if kind == 3 else float(rng.uniform(0.2, 4.0))
        k = rng.uniform(-math.pi, math.pi, 2)
        lam, mu = (float(x) for x in rng.uniform(-12.0, 12.0, 2))
        if kind == 0:
            lam = 0.0
        elif kind == 1:
            mu = 0.0
        elif kind == 2:
            lam, mu = 1e-6 * lam, 1e-6 * mu
        elif kind == 3:
            k[i % 2] = math.pi
        else:
            k *= 10.0 ** rng.uniform(-6.0, 0.0)
            lam = -2.0 * mu / (1.0 + mu / (1.0 + gamma)) + float(rng.uniform(-1e-3, 1e-3))
        K, params = TorusPoint(float(k[0]), float(k[1])), ModelParams(gamma, lam, mu)
        fiber = FiberGram(K, gamma)
        floor = fiber.blocks(spectrum.MESH_FLOOR)[0]
        count = spectrum._pending_count(fiber, params, floor)
        assert count == _pending_count_by_det(fiber, params, floor), (K, params)
        pending += count
    assert pending > 500


@pytest.mark.parametrize(
    "gamma", [1.0, *np.random.default_rng(23).uniform(0.3, 3.0, 2).round(4).tolist()])
def test_pending_mask_matches_the_scalar_test(gamma):
    # every one-sided problem of the 49x49 plane, and problems on and next to
    # the S- = 0 hyperbola, where pending roots are born
    g = 1.0 + gamma
    axis = [-12.0 + 0.5 * i for i in range(49)]
    lams, mus = [lam for lam in axis for _ in axis], [mu for _ in axis for mu in axis]
    mask, scalar = _pending_bits(gamma, lams, mus)
    assert mask == scalar
    assert len(scalar) > 10
    near = [mu for mu in np.linspace(-12.0, 12.0, 97).tolist() if abs(1.0 + mu / g) > 0.05]
    lams = [_on_the_hyperbola(mu, g) * (1.0 + eps)
            for eps in (0.0, 1e-12, -1e-12, 1e-3, -1e-3, 1e-2, -1e-2) for mu in near]
    mask, scalar = _pending_bits(gamma, lams, near * 7)
    assert mask == scalar
    assert len(scalar) > 100


@st.composite
def _hyperbola_batches(draw):
    gamma = draw(st.floats(0.3, 3.0))
    g = 1.0 + gamma
    lams, mus = [], []
    for _ in range(draw(st.integers(1, 6))):
        mu = draw(st.floats(-12.0, 12.0))
        if draw(st.booleans()):
            assume(abs(1.0 + mu / g) > 1e-3)
            lam = _on_the_hyperbola(mu, g)
            # on it, a few ulp off it, or a small relative step off it
            lam = draw(st.sampled_from([
                lam, math.nextafter(lam, math.inf), math.nextafter(lam, -math.inf),
                lam * (1.0 + draw(st.floats(-0.05, 0.05)))]))
        else:
            lam = draw(st.floats(-12.0, 12.0))
        lams.append(lam)
        mus.append(mu)
    return gamma, lams, mus


@settings(derandomize=True, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(batch=_hyperbola_batches())
def test_pending_mask_matches_the_scalar_test_on_draws(batch):
    mask, scalar = _pending_bits(*batch)
    assert mask == scalar


def _flags(gamma, lams, mus):
    """Indices flagged by the pending predicate on each problem alone, with
    floats, and on all of them at once, with arrays."""
    g, edge = 1.0 + gamma, calibrate_edge_constants(gamma)
    floor = integrals.moments_below(spectrum.MESH_FLOOR, gamma)
    scalar = []
    for i, (lam, mu) in enumerate(zip(lams, mus)):
        flag = spectrum._pending(lam, mu, g, edge, floor)[0]
        assert isinstance(flag, bool)
        if flag:
            scalar.append(i)
    batch = spectrum._pending(np.array(lams, dtype=float), np.array(mus, dtype=float), g,
                              edge, floor)
    return scalar, np.flatnonzero(batch[0]).tolist()


@pytest.mark.parametrize("gamma", [1.0, 0.4137])
def test_pending_predicate_flags_the_same_problems_on_floats_and_arrays(gamma):
    # the 49x49 plane; seeded draws, two thirds of them on or next to the
    # S- = 0 hyperbola, where S- is about 0 and pending roots are born; and
    # the weakest couplings, where at lam = -5e-324 beta = s S- underflows
    # to -0.0 and the sign is read from S-
    axis = [-12.0 + 0.5 * i for i in range(49)]
    scalar, array = _flags(gamma, [lam for lam in axis for _ in axis],
                           [mu for _ in axis for mu in axis])
    assert scalar == array and len(scalar) > 10
    rng = np.random.default_rng(41)
    mus = rng.uniform(-12.0, 12.0, 600).tolist()
    lams = rng.uniform(-12.0, 12.0, 600).tolist()
    offsets = [0.0, 1e-15, -1e-12, 1e-3, -1e-3, 1e-2, -1e-2, 0.1]
    for i in range(400):
        lams[i] = _on_the_hyperbola(mus[i], 1.0 + gamma) * (1.0 + offsets[i % 8])
    weak = [-5e-324, 5e-324, -1e-300, 1e-300]
    scalar, array = _flags(gamma, lams + weak, mus + [0.0] * 4)
    assert scalar == array and len(scalar) > 50
    assert [i - 600 for i in scalar if i >= 600] == [0, 2]


def _no_solve(*args, **kwargs):
    raise AssertionError("the batch started a solve")


@pytest.mark.parametrize("gamma,lam,mu", [
    (0.0, 1.0, 1.0), (-1.0, 1.0, 1.0), (math.nan, 1.0, 1.0), (math.inf, 1.0, 1.0),
    (1.0, math.nan, 1.0), (1.0, -math.inf, 1.0), (1.0, 1.0, math.nan), (1.0, 1.0, math.inf),
])
def test_batch_rejects_invalid_input_before_solving(monkeypatch, gamma, lam, mu):
    monkeypatch.setattr(spectrum, "_chandrupatla", _no_solve)
    monkeypatch.setattr(spectrum, "moments_below", _no_solve)
    with pytest.raises(ValueError):
        spectrum._k0_batch(gamma, [0.5, lam], [2.0, mu])


@pytest.mark.parametrize("lam,mu", [(-12.0, 1.5), (-4.0, 1.0), (4.0, -1.0),
                                    (12.0, -1.5)])
def test_deep_main_even_root_near_the_hyperbola(lam, mu):
    # S+- = 0.021*g here: the coupled-even root born at the hyperbola sits
    # near exp(-1200), far beyond the smallest double; it is pinned
    rep = spectrum_k0(ModelParams(0.990739, lam, mu))
    assert (rep.n_below, rep.n_above) == (1, 1)
    assert sum(ev.pinned for ev in rep.below + rep.above) == 1


@pytest.mark.parametrize("lam", [-1e-300, -5e-324])
def test_weakest_attraction_binds_at_the_edge(lam, scalar_sides):
    # in two dimensions any on-site attraction binds; at -5e-324 the edge
    # slope of the main even factor underflows to -0.0, and the root is
    # still pinned at the edge instead of dividing by zero
    rep, scalar_below, _ = scalar_sides(spectrum_k0, ModelParams(1.0, lam, 0.0))
    assert [(ev.z, ev.pinned) for ev in rep.below] == [(-spectrum.PINNED_MIN, True)]
    assert rep.above == ()
    # the batch finds the same pinned root, bit for bit, and none above
    (below, above), = spectrum._k0_batch(1.0, [lam], [0.0])
    assert below == scalar_below
    assert above == scalar_sides(spectrum_k0, ModelParams(1.0, -lam, -0.0))[1] == []


def test_general_root_just_below_the_mesh_floor():
    # the same operator at gamma = 1.7444216 has this state at depth 1.36e-10
    g = 1.7444216
    rep = spectrum_general(TorusPoint(-0.3186271, -2.4640171),
                           ModelParams(1.0 / g, 8.5705965 / g, -1.5233105 / g))
    assert (rep.n_below, rep.n_above) == (1, 1)


@pytest.mark.parametrize("fiber,counts", [
    ((1.7643986693978828, -2.699552663958448, 1.1526904383849335,
      1.392606564482814, -0.7448033237218419), (1, 1)),
    ((2.7160006573687174, -10.01378023079775, -9.14416667675874,
      1.5708728613412886, -0.31932214261349534), (3, 0)),
    ((0.5124771208443804, 0.26463857474420394, -0.2190780853321037,
      2.4514790935616046, -1.9234492530627816), (1, 0)),
])
def test_deep_general_roots_match_the_oracle(fiber, counts):
    params, K = ModelParams(*fiber[:3]), TorusPoint(*fiber[3:])
    rep = spectrum_general(K, params)
    grid = oracle_counts(K, params, n=256)
    assert (rep.n_below, rep.n_above) == (grid.n_below, grid.n_above) == counts


@pytest.mark.parametrize("lam,mu", [(2.0, -1.0), (0.0, -2.0), (4.0, 4.0)])
def test_flat_direction_fiber_has_no_edge_model_states(lam, mu):
    # gamma = 1, K1 = pi: R1 = 0, J diverges like d**-0.5 and the count at
    # the mesh floor is already the edge limit
    K, params = TorusPoint(math.pi, 0.0), ModelParams(1.0, lam, mu)
    rep = spectrum_general(K, params)
    dense = dense_validate(K, params, n=48)
    assert (rep.n_below, rep.n_above) == (dense.n_below, dense.n_above)


# gamma = 1 on the lines K_i = pi: R_i is 1.22e-16 in floats, not 0
FLAT_LINE_CASES = [(TorusPoint(math.pi, 1.369), ModelParams(1.0, 0.0, -3.26e-6)),
                   (TorusPoint(math.pi, 0.5), ModelParams(1.0, -1e-6, -1e-6))]


@pytest.mark.parametrize("K,params", FLAT_LINE_CASES)
def test_flat_line_curves_stay_below_minus_one_past_the_floor(K, params):
    fiber = FiberGram(K, params.gamma)
    assert 0.0 < min(fiber.r1, fiber.r2) < 1e-15
    curves = spectrum._fiber_curves(K, params, fiber.blocks)
    assert [sum(v < -1.0 for v in curves(d)) for d in (1e-14, 1e-16, 1e-18, 1e-20, 1e-22)] \
        == [3] * 5
    # the pending count reads the log-edge model at the floor, where J still
    # diverges like d**-0.5, and finds one of the three
    assert spectrum_general(K, params).n_below == 1


@pytest.mark.xfail(strict=True, reason="the pending count reads the log-edge model at "
                   "a floor 1e6 times R_i = 1.22e-16, where J still diverges like "
                   "d**-0.5")
@pytest.mark.parametrize("K,params", FLAT_LINE_CASES)
def test_flat_line_counts_every_curve_below_minus_one(K, params):
    assert spectrum_general(K, params).n_below == 3


# ---------------------------------------------------------------------------
# where the states sit: the Weyl enclosure


def _weyl_bounds(rep):
    """V has the eigenvalues lam, mu/2 and 0, so by Weyl's inequality every
    state lies in [e_min + min(lam, mu/2, 0), e_max + max(lam, mu/2, 0)]."""
    lam, half_mu = rep.params.lam, 0.5 * rep.params.mu
    return rep.band.e_min + min(lam, half_mu, 0.0), rep.band.e_max + max(lam, half_mu, 0.0)


_couplings = st.one_of(
    st.just(0.0), st.floats(-12.0, 12.0),
    st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from([-1.0, 1.0]),
              st.floats(-15.0, 12.5)))


@settings(derandomize=True, deadline=None, max_examples=400,
          suppress_health_check=[HealthCheck.too_slow])
@given(gamma=st.floats(0.2, 4.0), lam=_couplings, mu=_couplings,
       K=st.one_of(st.just(ORIGIN),
                   st.builds(TorusPoint, st.floats(-math.pi, math.pi),
                             st.floats(-math.pi, math.pi)),
                   st.builds(TorusPoint, st.just(math.pi), st.floats(-math.pi, math.pi))))
@example(gamma=1.0, lam=-1e-15, mu=0.0, K=TorusPoint(1.0, 0.5))
def test_states_lie_in_the_weyl_enclosure(gamma, lam, mu, K):
    # up to |lam| + 2|mu| of about 1e13, near COUPLING_MAX; a pinned state
    # sits at PINNED_MIN, its documented clamp, even where the bound is
    # closer to the band (lam = -1e-15 has its state at depth 1e-13)
    params = ModelParams(gamma, lam, mu)
    rep = spectrum_k0(params) if K == ORIGIN else spectrum_general(K, params)
    lo, hi = _weyl_bounds(rep)
    for evs, edge, sign, bound in ((rep.below, rep.band.e_min, -1.0, lo),
                                   (rep.above, rep.band.e_max, 1.0, hi)):
        for ev in evs:
            clamped = (ev.pinned and ev.z == edge + sign * spectrum.PINNED_MIN
                       and sign * (bound - edge) < spectrum.PINNED_MIN)
            assert lo <= ev.z <= hi or clamped, (ev, lo, hi)


@pytest.mark.parametrize("lam,mu", [(-3.0, 2.0), (2.0, -10.0), (-0.5, 6.0), (9.0, -1.0)])
def test_flat_fiber_meets_the_weyl_bound(lam, mu):
    # couplings of both signs, so each side has its deepest state
    rep = spectrum_general(TorusPoint(math.pi, math.pi), ModelParams(1.0, lam, mu))
    lo, hi = _weyl_bounds(rep)
    assert rep.band.degenerate
    assert rep.below[0].z == lo and rep.above[-1].z == hi

