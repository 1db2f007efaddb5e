"""Grid-discretization oracles: jump counting, dense diagonalization, minimax.

These are the independent checks the analytic solver is measured against, so
they get their own correctness tests: exact mode orthonormality on the grid,
agreement with the dense matrix, and agreement with the frozen benchmarks.
"""

from __future__ import annotations

import numpy as np
import pytest

from latticebound import spectrum
from latticebound.core import ORIGIN, ModelParams, TorusPoint
from latticebound.errors import BudgetExceeded
from latticebound.oracle import (GRID_FLOOR, MESH_LIMIT, GridModel, dense_validate,
                                 minimax_values, oracle_counts)
from latticebound.spectrum import spectrum_general, spectrum_k0


def expand(evs):
    out = []
    for ev in evs:
        out.extend([ev.z] * ev.multiplicity)
    return out


def test_grid_modes_are_orthonormal():
    # uniform trapezoid quadrature is exact for low trigonometric degree
    model = GridModel.build(TorusPoint(0.9, -2.2), ModelParams(1.7, 1.0, 1.0), 32)
    gram = model.modes @ model.modes.T
    assert np.allclose(gram, np.eye(5), atol=1e-12)


def test_grid_band_is_exact_at_zero_fiber():
    model = GridModel.build(ORIGIN, ModelParams(1.0, 0.0, 0.0), 64)
    assert model.band.e_min == pytest.approx(0.0, abs=1e-14)
    assert model.band.e_max == pytest.approx(8.0, abs=1e-14)


@pytest.mark.parametrize("lam,mu,nb,na", [
    (1.0, 10.0, 0, 4),
    (0.0, -12.0, 4, 0),
    (-6.0, -10.0, 5, 0),
    (-3.0, 2.0, 1, 1),
    (8.5, 4.0, 0, 2),
])
def test_jump_counts_match_solver(lam, mu, nb, na):
    params = ModelParams(1.0, lam, mu)
    rep = oracle_counts(ORIGIN, params, n=256)
    assert (rep.n_below, rep.n_above) == (nb, na)
    assert (rep.n_below, rep.n_above) == (
        spectrum_k0(params).n_below, spectrum_k0(params).n_above)


@pytest.mark.parametrize("lam,mu", [(1.0, 10.0), (0.0, -12.0)])
def test_dense_agrees_with_jump_counting(lam, mu):
    params = ModelParams(1.0, lam, mu)
    dense = dense_validate(ORIGIN, params, n=40)
    jumps = oracle_counts(ORIGIN, params, n=40)
    assert (dense.n_below, dense.n_above) == (jumps.n_below, jumps.n_above)
    assert expand(dense.below) == pytest.approx(expand(jumps.below), abs=1e-7)
    assert expand(dense.above) == pytest.approx(expand(jumps.above), abs=1e-7)


def test_dense_resolves_double_eigenvalue_as_cluster():
    rep = dense_validate(ORIGIN, ModelParams(1.0, 1.0, 10.0), n=40)
    mults = sorted(ev.multiplicity for ev in rep.above)
    assert mults == [1, 1, 2]


def test_dense_free_operator_is_purely_diagonal():
    params = ModelParams(0.8, 0.0, 0.0)
    model = GridModel.build(TorusPoint(0.4, 1.3), params, 20)
    ev = np.linalg.eigvalsh(model.dense_matrix())
    assert ev == pytest.approx(np.sort(model.diag), abs=1e-12)
    rep = dense_validate(TorusPoint(0.4, 1.3), params, n=20)
    assert rep.below == () and rep.above == ()


def test_general_fiber_against_analytic_counter():
    params = ModelParams(1.0, 6.0, 10.0)
    K = TorusPoint(1.0, 0.5)
    grid = oracle_counts(K, params, n=128)
    analytic = spectrum_general(K, params)
    assert (grid.n_below, grid.n_above) == (analytic.n_below, analytic.n_above)


def test_minimax_values_clamp_to_band_edges():
    params = ModelParams(1.0, 1.0, 10.0)
    lo, hi = minimax_values(ORIGIN, params, n=128)
    assert lo == pytest.approx(np.zeros(5), abs=1e-12)      # nothing below
    assert hi[:4] == pytest.approx([10.564420, 9.617496, 9.617496, 9.219394],
                                   abs=1e-5)
    assert hi[4] == pytest.approx(8.0, abs=1e-12)           # clamped


def test_binding_energies_grow_along_the_fiber_axis():
    # moving K1 from 0 to pi narrows the band faster than the levels move:
    # every above-band binding energy E_n - E_max is non-decreasing
    params = ModelParams(1.0, 1.0, 10.0)
    n = 64
    bindings = []
    for k in range(9):
        K = TorusPoint(k * np.pi / 8.0, 0.0)
        _, hi = minimax_values(K, params, n=n)
        e_max = GridModel.build(K, params, n).band.e_max
        bindings.append(hi - e_max)
    steps = np.diff(np.array(bindings), axis=0)
    assert (steps >= -1e-9).all()


def test_grid_refinement_reaches_frozen_positions():
    params = ModelParams(1.0, 0.0, -12.0)
    deepest = -3.292439
    for n in (128, 256):
        rep = oracle_counts(ORIGIN, params, n=n)
        assert rep.below[0].z == pytest.approx(deepest, abs=5e-7)


@pytest.mark.parametrize("lam", [1e5, 1e17])
def test_too_wide_a_window_fails_before_any_grid_work(monkeypatch, lam):
    # the mesh of a 1e5 window has about 400,000 distances per side; the
    # check reads its length in closed form, so no mesh, grid or secular
    # matrix is built.  Beyond about 4.5e15 the mesh itself never ends
    calls = []
    for name in ("build", "secular"):
        inner = GridModel.__dict__[name]
        fn = inner.__func__ if isinstance(inner, classmethod) else inner

        def counting(*args, fn=fn, name=name):
            calls.append(name)
            return fn(*args)

        monkeypatch.setattr(GridModel, name, classmethod(counting)
                            if isinstance(inner, classmethod) else counting)
    monkeypatch.setattr(spectrum, "_delta_mesh", lambda *args: calls.append("mesh"))
    with pytest.raises(BudgetExceeded, match="more than 20000"):
        oracle_counts(TorusPoint(0.4, 1.3), ModelParams(1.0, lam, 0.0), n=16)
    assert calls == []


def test_mesh_size_in_closed_form():
    # the closed-form length against the mesh itself, from the narrowest
    # window to past the limit
    for window in [0.3, 1.0, 1.1, 1.25, 1.2500001, 1.3, 2.0, 37.0, 37.123,
                   4990.0, 4991.0, 4992.625, 5000.0]:
        size = spectrum._delta_mesh_size(window, GRID_FLOOR)
        assert abs(size - len(spectrum._delta_mesh(window, GRID_FLOOR))) < 2.0, window
    assert spectrum._delta_mesh_size(4990.0, GRID_FLOOR) <= MESH_LIMIT
    assert spectrum._delta_mesh_size(5000.0, GRID_FLOOR) > MESH_LIMIT


def test_grid_size_limits():
    params = ModelParams(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        GridModel.build(ORIGIN, params, 8)
    with pytest.raises(ValueError):
        oracle_counts(ORIGIN, params, n=12)
    with pytest.raises(ValueError):
        dense_validate(ORIGIN, params, n=60)
    # the band mirror p -> p + (pi, pi) needs an even grid
    with pytest.raises(ValueError, match="even"):
        GridModel.build(ORIGIN, params, 17)
    with pytest.raises(ValueError, match="even"):
        oracle_counts(ORIGIN, params, n=65)
    with pytest.raises(ValueError, match="even"):
        dense_validate(ORIGIN, params, n=33)


def _random_fibers(seed, count):
    rng = np.random.default_rng(seed)
    return [(TorusPoint(*rng.uniform(-np.pi, np.pi, 2)),
             ModelParams(rng.uniform(0.5, 2.0), 1.0, 1.0)) for _ in range(count)]


@pytest.mark.parametrize("n", [16, 64, 256])
def test_separable_secular_matches_the_direct_sum(n):
    # the per-axis form against the N^2-term sum over the flat grid, both at
    # the distance d below the band, down to the oracle's 1e-11 floor
    for K, params in _random_fibers(n, 4):
        model = GridModel.build(K, params, n)
        flat = (model.de1[:, None] + model.de2[None, :]).ravel()
        for d in (1e-11, 1e-8, 1e-5, 0.01, 0.37, 2.5, 20.0):
            direct = (model.modes * (1.0 / (flat + d))) @ model.modes.T
            got = model.secular(d)
            assert np.abs(got - direct).max() <= 1e-13 * np.abs(direct).max()


@pytest.mark.parametrize("n", [16, 64, 256])
def test_secular_mirror_identity(n):
    # p -> p + (pi, pi) maps the even grid onto itself, reflects the band
    # and flips the four trigonometric modes: J(e_max + d) = -P J(e_min - d) P;
    # the side above is summed directly at z = e_max + d
    P = np.diag([1.0, -1.0, -1.0, -1.0, -1.0])
    for K, params in _random_fibers(n + 1, 4):
        model = GridModel.build(K, params, n)
        band = model.band
        for d in (0.01, 0.37, 2.5, 20.0):
            z = band.e_max + d
            above = (model.modes * (1.0 / (model.diag - z))) @ model.modes.T
            mirrored = -P @ model.secular(d) @ P
            assert np.abs(above - mirrored).max() <= 1e-12 * np.abs(above).max()


def test_oracle_solve_evaluates_each_distance_once(monkeypatch):
    # both sides count below the band through the mirror and share one memo
    # of Gram matrices, so every distance is evaluated exactly once per call
    distances = []
    secular = GridModel.secular

    def counted(self, d):
        distances.append(d)
        return secular(self, d)

    monkeypatch.setattr(GridModel, "secular", counted)
    for K, params in [(TorusPoint(0.7, -1.2), ModelParams(1.0, -3.0, 2.0)),
                      (TorusPoint(2.1, 0.4), ModelParams(0.6, 5.0, -4.0)),
                      (TorusPoint(-1.0, 2.5), ModelParams(1.5, -8.0, 6.0))]:
        distances.clear()
        rep = oracle_counts(K, params, n=64)
        assert rep.n_below > 0 and rep.n_above > 0
        assert len(distances) == len(set(distances))
