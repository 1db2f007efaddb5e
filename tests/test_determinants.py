import math

import numpy as np
import pytest

from latticebound.core import ORIGIN, ModelParams, TorusPoint, dispersion
from latticebound.determinants import (FactorKind, _entries_from_nodes,
                                       _pair_coefficients, factor_value,
                                       interaction_weights, secular_det,
                                       secular_entries, slope_below)
from latticebound.errors import DomainError
from latticebound.integrals import geometric_panels, panel_nodes, watson_integrals


def modes(p1, p2):
    """The five interaction modes at (p1, p2); accepts arrays, shape (5, ...)."""
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    n = 1.0 / (2 * np.pi)
    r = math.sqrt(2.0) * n
    return np.stack([np.full(np.broadcast(p1, p2).shape, n),
                     r * np.cos(p1), r * np.cos(p2), r * np.sin(p1), r * np.sin(p2)])


def kernel(p1, p2, q1, q2, params):
    """Difference kernel of the interaction, v(p - q)."""
    return (params.lam + params.mu * (np.cos(np.asarray(p1) - q1)
                                      + np.cos(np.asarray(p2) - q2))) / (2 * np.pi) ** 2


def brute_secular(z, K, params, n=600):
    """Direct Riemann-sum Gram matrix of the five modes against the resolvent."""
    q = -np.pi + 2 * np.pi * np.arange(n) / n
    p1, p2 = np.meshgrid(q, q, indexing="ij")
    e = ((1 - np.cos(p1)) + (1 - np.cos(p2))
         + params.gamma * ((1 - np.cos(K.p1 - p1)) + (1 - np.cos(K.p2 - p2))))
    m = modes(p1, p2).reshape(5, -1)
    w = 1.0 / (e.ravel() - z)
    return (m * w) @ m.T * (2 * np.pi / n) ** 2


def loop_entries(x, w, delta, r1, r2, tab):
    """Reference for ``_entries_from_nodes``: one integrand per mode pair."""
    m = delta + 2.0 * r1 * np.sin(0.5 * x) ** 2
    amag = m + r2
    root = np.sqrt(m * (m + 2.0 * r2))
    denom = root * (amag + root)
    t1 = r2 / denom
    t2 = amag / denom
    ts = 1.0 / (amag + root)
    cq = np.cos(x)
    out = np.empty((5, 5))
    for k, (i, j) in enumerate(zip(*np.triu_indices(5))):
        x0, x1c, x2c, y0, y1c, z0 = tab[k]
        p = x0 + x1c * cq + x2c * cq * cq
        q = y0 + y1c * cq
        val = w @ ((p + z0) * t2 + p * ts + q * t1)
        out[i, j] = out[j, i] = val / math.pi
    return out


def test_mode_normalization():
    # the five interaction modes are orthonormal on the torus
    n = 400
    q = -np.pi + 2 * np.pi * np.arange(n) / n
    p1, p2 = np.meshgrid(q, q, indexing="ij")
    m = modes(p1, p2).reshape(5, -1)
    gram = m @ m.T * (2 * np.pi / n) ** 2
    np.testing.assert_allclose(gram, np.eye(5), atol=1e-12)


def test_kernel_matches_weighted_modes():
    rng = np.random.default_rng(5)
    params = ModelParams(1.0, 1.7, -2.3)
    w = interaction_weights(params)
    for _ in range(10):
        p1, p2, q1, q2 = rng.uniform(-np.pi, np.pi, 4)
        lhs = kernel(p1, p2, q1, q2, params)
        mp = modes(p1, p2)
        mq = modes(q1, q2)
        assert lhs == pytest.approx(float((w * mp * mq).sum()), abs=1e-14)


def test_entries_match_brute_force_integration():
    rng = np.random.default_rng(17)
    for _ in range(6):
        gamma = float(rng.choice([0.5, 1.0, 2.0]))
        params = ModelParams(gamma=gamma)
        K = TorusPoint(*rng.uniform(-math.pi, math.pi, 2))
        from latticebound.core import band_edges
        band = band_edges(K, params)
        z = band.e_min - float(rng.uniform(0.5, 2.0))
        j, est = secular_entries(z, K, params)
        jb = brute_secular(z, K, params)
        np.testing.assert_allclose(j, jb, rtol=1e-9, atol=1e-11)
        assert est < 1e-9
        z2 = band.e_max + float(rng.uniform(0.5, 2.0))
        j2, _ = secular_entries(z2, K, params)
        np.testing.assert_allclose(j2, brute_secular(z2, K, params),
                                   rtol=1e-9, atol=1e-11)


def test_zero_fiber_entries_reduce_to_moments():
    params = ModelParams(gamma=1.3)
    z = -0.9
    s = watson_integrals(z, params.gamma)
    j, _ = secular_entries(z, ORIGIN, params)
    assert j[0, 0] == pytest.approx(s.a, rel=1e-10)
    assert j[0, 1] == pytest.approx(math.sqrt(2) * s.b, rel=1e-10)
    assert j[1, 1] == pytest.approx(2 * s.c, rel=1e-10)
    assert j[1, 2] == pytest.approx(2 * s.e, rel=1e-10)
    assert j[3, 3] == pytest.approx(2 * s.f, rel=1e-10)
    assert j[3, 4] == pytest.approx(0.0, abs=1e-12)


def test_factorization_product_matches_full_determinant():
    rng = np.random.default_rng(23)
    for _ in range(12):
        gamma = float(rng.choice([0.5, 1.0, 2.0]))
        lam = float(rng.uniform(-8, 8))
        mu = float(rng.uniform(-8, 8))
        params = ModelParams(gamma, lam, mu)
        side = rng.integers(0, 2)
        z = (-float(rng.uniform(0.05, 3.0)) if side == 0
             else 4 * params.g + float(rng.uniform(0.05, 3.0)))
        full = secular_det(z, ORIGIN, params)
        s = watson_integrals(z, params.gamma)
        parts = (factor_value(FactorKind.MAIN_EVEN, s, params)
                 * factor_value(FactorKind.SUB_EVEN, s, params)
                 * factor_value(FactorKind.ODD, s, params) ** 2)
        assert full == pytest.approx(parts, rel=1e-9, abs=1e-12)


def test_odd_factor_is_a_perfect_square():
    # the odd channel contributes twice: its determinant factor is
    # (1 + mu*f)^2, so it touches zero at a double root instead of changing sign
    params = ModelParams(1.0, 0.0, -12.0)
    zs = np.linspace(-3.5, -0.2, 61)
    vals = np.array([factor_value(FactorKind.ODD, watson_integrals(z, params.gamma),
                                  params) ** 2 for z in zs])
    assert (vals >= 0).all()
    lin = np.array([1.0 + params.mu * watson_integrals(z, params.gamma).f
                    for z in zs])
    assert vals == pytest.approx(lin ** 2, rel=1e-12)
    # the linear factor itself crosses exactly once in this window
    assert (np.diff(np.sign(lin)) != 0).sum() == 1


def test_interface_slopes():
    params = ModelParams(1.0, 2.0, 3.0)
    g = params.g
    assert slope_below(params) == pytest.approx(2 * 3 + 2 + 2 * 3 / g)


def test_rejects_band_interior():
    params = ModelParams(1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        secular_det(2.0, ORIGIN, params)
    with pytest.raises(DomainError):
        secular_entries(1.0, TorusPoint(0.3, 0.1), params)


def test_degenerate_fiber_entries():
    # gamma=1 corner fiber: dispersion is constant 4, entries collapse to
    # a scalar resolvent times the identity
    params = ModelParams(1.0, 1.0, 1.0)
    K = TorusPoint(math.pi, math.pi)
    z = 6.0
    j, _ = secular_entries(z, K, params)
    np.testing.assert_allclose(j, np.eye(5) / (4.0 - z), atol=1e-12)


def test_entries_stable_down_to_tiny_distances():
    params = ModelParams(gamma=1.0)
    K = TorusPoint(0.9, -0.4)
    from latticebound.core import band_edges
    band = band_edges(K, params)
    prev = None
    for d in (1e-6, 1e-9, 1e-12):
        j, est = secular_entries(band.e_max + d, K, params,
                                 side="above", delta=d)
        assert np.isfinite(j).all()
        assert est < 1e-7 * max(1.0, float(np.abs(j).max()))
        if prev is not None:
            # the log-divergent channel keeps growing monotonically
            assert abs(j[0, 0]) > abs(prev[0, 0])
        prev = j
    with pytest.raises(ValueError):
        secular_entries(band.e_max + 1e-6, K, params, side="upper", delta=1e-6)


def test_entry_array_matches_the_per_pair_loop_exactly():
    # the (15, N) integrand array rounds every entry as the per-pair loop does
    rng = np.random.default_rng(29)
    for _ in range(20):
        delta = float(10.0 ** rng.uniform(-12, 1))
        r1 = float(rng.uniform(0.2, 2.0))
        r2 = float(rng.uniform(0.0, r1))
        c1, s1, c2, s2 = (f(a) for a in rng.uniform(-math.pi, math.pi, 2)
                          for f in (math.cos, math.sin))
        tab = _pair_coefficients(c1, s1, c2, s2)
        layer = math.sqrt(2.0 * delta / r1) if r1 > delta else math.pi
        level = int(rng.integers(0, 3))
        bp = geometric_panels(math.pi, min(layer, math.pi) / 4.0 ** level)
        x, w = panel_nodes(bp, int(rng.choice([16, 32, 64, 128])))
        np.testing.assert_array_equal(
            _entries_from_nodes(x, w, delta, r1, r2, tab),
            loop_entries(x, w, delta, r1, r2, tab))
