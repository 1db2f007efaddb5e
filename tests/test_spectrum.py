"""Zero-fiber and general-fiber spectrum solvers against frozen benchmarks.

The reference eigenvalues below were produced by the dense-grid
diagonalization oracle (n = 40, agreeing with n = 256 jump counting) and
frozen; the solver has to reproduce counts exactly and positions to the
printed precision.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from latticebound import integrals, spectrum
from latticebound.core import ORIGIN, ModelParams, TorusPoint
from latticebound.errors import GramMatrixError, ToleranceError
from latticebound.determinants import (factor_value, gram_blocks, interaction_weights,
                                       secular_entries)
from latticebound.integrals import Side, watson_integrals_at
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
    lo, hi = (factor_value(FactorKind.MAIN_EVEN,
                           watson_integrals_at(Side.BELOW, d * (1.0 + r), 1.0), params)
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
    inner = spectrum.gram_blocks

    def counting(K, gamma, delta):
        deltas.append(delta)
        return inner(K, gamma, delta)

    monkeypatch.setattr(spectrum, "gram_blocks", counting)
    rep = spectrum_general(K, ModelParams(1.0, lam, mu))
    assert rep.n_below + rep.n_above > 0
    assert deltas and len(deltas) == len(set(deltas))


@pytest.mark.parametrize("K,lam,mu", [
    (TorusPoint(1.0, 0.5), 6.0, 10.0),
    (TorusPoint(0.7, -2.1), -3.0, 2.0),
    (TorusPoint(-2.5, 0.7), 10.0, -3.0),
])
def test_general_solve_integrates_few_distances(monkeypatch, K, lam, mu):
    # the window, the floor and one Brent solve per crossing: the former
    # 139-point mesh scan with bisected jumps took about 240
    calls = []
    inner = spectrum.gram_blocks

    def counting(K, gamma, delta):
        calls.append(delta)
        return inner(K, gamma, delta)

    monkeypatch.setattr(spectrum, "gram_blocks", counting)
    spectrum_general(K, ModelParams(1.0, lam, mu))
    assert calls and len(calls) <= 60


def test_block_curves_are_the_curves_of_the_gram_matrix():
    # G is a scalar on each rotated (cos, sin) mode pair, so the curves of
    # the five-mode J and of its parity blocks agree; the draws cover
    # lam = 0, mu = 0, couplings near 1e-6 and R1 R2 = 0 (gamma = 1, K_i = pi)
    rng = np.random.default_rng(23)
    worst = 0.0
    for i in range(2000):
        gamma = 1.0 if i % 4 == 0 else float(rng.uniform(0.2, 4.0))
        k = rng.uniform(-math.pi, math.pi, 2)
        if i % 7 == 0:
            gamma, k[i % 2] = 1.0, math.pi
        K = TorusPoint(float(k[0]), float(k[1]))
        d = float(np.exp(rng.uniform(math.log(1e-10), math.log(40.0))))
        lam, mu = rng.uniform(-12.0, 12.0, 2) * (1e-6 if i % 5 == 1 else 1.0)
        lam, mu = (0.0 if i % 6 == 2 else lam), (0.0 if i % 6 == 3 else mu)
        params = ModelParams(gamma, float(lam), float(mu))
        curves = spectrum._fiber_curves(K, params, d, gram_blocks(K, gamma, d))
        j = secular_entries(K, gamma, Side.BELOW, d)
        ref = spectrum._threshold_count(j, interaction_weights(params))[1]
        assert curves == sorted(curves)
        scale = np.max(np.abs(ref))
        err = np.max(np.abs(np.array(curves) - ref))
        assert err <= 1e-13 * scale, (K, params, d)
        worst = max(worst, err / scale if scale else 0.0)
    assert worst > 0.0


def test_even_block_that_is_not_positive_definite_is_a_typed_error(monkeypatch):
    K, params = TorusPoint(1.0, 0.5), ModelParams(1.0, 6.0, 10.0)
    bad = (np.diag([1.0, -1e-3, 1.0]), 0.1, 0.1)
    with pytest.raises(GramMatrixError, match=r"K = \(1\.0, 0\.5\), gamma = 1\.0, d = 0\.25"):
        spectrum._fiber_curves(K, params, 0.25, bad)
    monkeypatch.setattr(spectrum, "gram_blocks", lambda K, gamma, d: bad)
    with pytest.raises(GramMatrixError, match="not positive definite"):
        spectrum_general(K, params)


# ---------------------------------------------------------------------------
# the crossing engine on synthetic sorted curves


def _crossings(curves):
    """The crossings of ``curves`` on [MESH_FLOOR, 10], and the number of
    distances the engine evaluated."""
    used = []

    def counted(d):
        used.append(d)
        return curves(d)

    return spectrum._curve_crossings(counted, spectrum.MESH_FLOOR, 10.0, "synthetic"), len(used)


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


def test_crossings_next_to_the_floor():
    d0 = spectrum.MESH_FLOOR + 5e-13
    c = _log_curve(d0, 0.01)
    roots, _ = _crossings(lambda d: np.array([-5.0, c(d), 0.0]))
    assert roots == [pytest.approx(d0, rel=1e-13, abs=0.0)]


def test_curve_passes_stay_within_their_bound(monkeypatch):
    # with no budget to stop it, a pass is bounded by its structure: the two
    # ends, then at most 100 Brent iterations per crossing curve; the draws
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
    assert len(passes) >= 48 * 8
    assert any(n for _, n in passes)
    for used, crossings in passes:
        assert used <= 2 + 100 * crossings


def test_crossing_that_does_not_converge_is_a_tolerance_error(monkeypatch):
    # a Brent solve that runs out of iterations fails typed, not as the
    # bare RuntimeError that brentq raises by default
    monkeypatch.setattr(spectrum, "brentq", lambda f, a, b, **kwargs: (
        a, SimpleNamespace(converged=False, iterations=100)))
    c = _log_curve(0.37, 0.2)
    with pytest.raises(ToleranceError):
        _crossings(lambda d: np.array([c(d)]))


def _scalar_roots(gamma, lam, mu):
    """The scalar solver's merged roots below the band at zero fiber."""
    return spectrum._k0_below(ModelParams(gamma, lam, mu), spectrum._main_even_edge(gamma),
                              spectrum._search_window(lam, mu), {})


def test_zero_coupling_is_empty():
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
    assert a == _scalar_roots(1.0, 0.0, 0.0)
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
    """The pending depths of the batch mask and of the scalar test, by
    index, as hex strings (equal strings are equal bits)."""
    edge = spectrum._main_even_edge(gamma)
    floor = watson_integrals_at(Side.BELOW, spectrum.MESH_FLOOR, gamma)
    mask = spectrum._pending_depths(gamma, np.array(lams, dtype=float),
                                    np.array(mus, dtype=float), edge, floor)
    scalar = {}
    for i, (lam, mu) in enumerate(zip(lams, mus)):
        roots = spectrum._pending_root(ModelParams(gamma, lam, mu), edge, floor)
        assert len(roots) <= 1
        if roots:
            assert roots[0].pinned and roots[0].factor is FactorKind.MAIN_EVEN
            scalar[i] = roots[0].d.hex()
    return {i: d.hex() for i, d in mask.items()}, scalar


def _on_the_hyperbola(mu, g):
    """lam with S- = 2 mu + lam + lam mu / g = 0, to rounding."""
    return -2.0 * mu / (1.0 + mu / g)


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
    edge = spectrum._main_even_edge(gamma)
    floor = watson_integrals_at(Side.BELOW, spectrum.MESH_FLOOR, gamma)
    scalar = []
    for i, (lam, mu) in enumerate(zip(lams, mus)):
        flag = spectrum._pending(ModelParams(gamma, lam, mu), edge, floor)[0]
        assert isinstance(flag, bool)
        if flag:
            scalar.append(i)
    batch = SimpleNamespace(lam=np.array(lams, dtype=float), mu=np.array(mus, dtype=float),
                            g=1.0 + gamma)
    return scalar, np.flatnonzero(spectrum._pending(batch, edge, floor)[0]).tolist()


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
    monkeypatch.setattr(spectrum, "find_root", _no_solve)
    monkeypatch.setattr(spectrum, "watson_integrals_at", _no_solve)
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
def test_weakest_attraction_binds_at_the_edge(lam):
    # in two dimensions any on-site attraction binds; at -5e-324 the edge
    # slope of the main even factor underflows to -0.0, and the root is
    # still pinned at the edge instead of dividing by zero
    rep = spectrum_k0(ModelParams(1.0, lam, 0.0))
    assert [(ev.z, ev.pinned) for ev in rep.below] == [(-spectrum.PINNED_MIN, True)]
    assert rep.above == ()
    # the batch finds the same pinned root, bit for bit, and none above
    (below, above), = spectrum._k0_batch(1.0, [lam], [0.0])
    assert below == _scalar_roots(1.0, lam, 0.0)
    assert above == _scalar_roots(1.0, -lam, -0.0) == []


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
