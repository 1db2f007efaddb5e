import math

import numpy as np
import pytest

from latticebound.core import (ORIGIN, ModelParams, TorusPoint, band_edges,
                               pair_amplitudes)
from latticebound.determinants import (F2_SERIES_SWITCH, FactorKind, factor_value,
                                       gram_blocks, interaction_weights, secular_det,
                                       secular_entries, slope_below)
from latticebound.errors import DomainError
from latticebound.integrals import Side, watson_integrals
from panel_rule import pair_coefficients, panel_gram


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
        band = band_edges(K, params)
        z = band.e_min - float(rng.uniform(0.5, 2.0))
        j = secular_entries(K, gamma, Side.BELOW, band.e_min - z)
        jb = brute_secular(z, K, params)
        np.testing.assert_allclose(j, jb, rtol=1e-9, atol=1e-11)
        z2 = band.e_max + float(rng.uniform(0.5, 2.0))
        j2 = secular_entries(K, gamma, Side.ABOVE, z2 - band.e_max)
        np.testing.assert_allclose(j2, brute_secular(z2, K, params),
                                   rtol=1e-9, atol=1e-11)


def test_zero_fiber_entries_reduce_to_moments():
    params = ModelParams(gamma=1.3)
    z = -0.9
    s = watson_integrals(z, params.gamma)
    j = secular_entries(ORIGIN, params.gamma, Side.BELOW, -z)
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


def test_zero_fiber_determinant_matches_its_factors_next_to_the_edge():
    # secular_det reads the distance from z against the band edges; at K = 0
    # the lower edge is exactly 0, so d = -z keeps every digit down to the
    # 1e-10 floor (a lower edge off by one rounding moved det by 6e-7 there).
    # Above the band z = 4g + d cannot carry d, so only the side below runs
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(3000):
        gamma = float(rng.uniform(0.2, 4.0))
        lam, mu = (float(x) for x in rng.uniform(-12.0, 12.0, 2))
        params = ModelParams(gamma, lam, mu)
        z = -float(np.exp(rng.uniform(math.log(1e-10), math.log(30.0))))
        s = watson_integrals(z, gamma)
        parts = (factor_value(FactorKind.MAIN_EVEN, s, params)
                 * factor_value(FactorKind.SUB_EVEN, s, params)
                 * factor_value(FactorKind.ODD, s, params) ** 2)
        err = abs(secular_det(z, ORIGIN, params) - parts) / max(1.0, abs(parts))
        worst = max(worst, err)
    assert worst <= 1e-11


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
        secular_det(1.0, TorusPoint(0.3, 0.1), params)


def test_degenerate_fiber_entries():
    # gamma=1 corner fiber: dispersion is constant 4, entries collapse to
    # a scalar resolvent times the identity
    params = ModelParams(1.0, 1.0, 1.0)
    K = TorusPoint(math.pi, math.pi)
    z = 6.0
    j = secular_entries(K, params.gamma, Side.ABOVE, z - band_edges(K, params).e_max)
    np.testing.assert_allclose(j, np.eye(5) / (4.0 - z), atol=1e-12)


def test_entries_stable_down_to_tiny_distances():
    K = TorusPoint(0.9, -0.4)
    prev = None
    for d in (1e-6, 1e-9, 1e-12):
        j = secular_entries(K, 1.0, "above", d)
        assert np.isfinite(j).all()
        if prev is not None:
            # the log-divergent channel keeps growing monotonically
            assert abs(j[0, 0]) > abs(prev[0, 0])
        prev = j
    with pytest.raises(ValueError):
        secular_entries(K, 1.0, "upper", 1e-6)


def test_entries_are_the_rotated_parity_blocks():
    # cos p_i = cos phi_i cos x_i - sin phi_i sin x_i and sin p_i = sin phi_i
    # cos x_i + cos phi_i sin x_i with x_i = p_i - phi_i; above the band the
    # matrix is -P J P, P = diag(1, -1, -1, -1, -1)
    rng = np.random.default_rng(29)
    flip = np.diag([1.0, -1.0, -1.0, -1.0, -1.0])
    for _ in range(200):
        gamma = float(rng.uniform(0.2, 4.0))
        K = TorusPoint(*rng.uniform(-math.pi, math.pi, 2))
        d = float(np.exp(rng.uniform(math.log(1e-10), math.log(40.0))))
        _, _, f1, f2 = pair_amplitudes(K, gamma)
        rot = np.eye(5)
        for i, f in ((1, f1), (2, f2)):
            rot[[i, i, i + 2, i + 2], [i, i + 2, i, i + 2]] = (
                math.cos(f), -math.sin(f), math.sin(f), math.cos(f))
        even, s1, s2 = gram_blocks(K, gamma, d)
        block = np.zeros((5, 5))
        block[:3, :3], block[3, 3], block[4, 4] = even, s1, s2
        below = rot @ block @ rot.T
        for side, ref in ((Side.BELOW, below), (Side.ABOVE, -flip @ below @ flip)):
            j = secular_entries(K, gamma, side, d)
            np.testing.assert_allclose(j, ref, rtol=0.0, atol=4e-16 * np.max(np.abs(ref)))


# ---------------------------------------------------------------------------
# the closed-form Gram matrix against independent references

RATIOS = (1.0, 0.3, 1e-2, 1e-4, 1e-8, 0.0)


def fiber_with_ratio(gamma, ratio, small_first):
    """A fiber with R_min/R_max near ``ratio`` and nonzero phases, or None.

    The larger amplitude sits at K_i = 0.7; the smaller one at the K_j that
    gives ratio * R_max, which exists only down to |1 - gamma| / R_max.
    """
    r_big = math.sqrt(1.0 + gamma * gamma + 2.0 * gamma * math.cos(0.7))
    c = ((ratio * r_big) ** 2 - 1.0 - gamma * gamma) / (2.0 * gamma)
    if c < -1.0:
        return None
    k_small = -math.acos(min(c, 1.0))
    return TorusPoint(k_small, 0.7) if small_first else TorusPoint(0.7, k_small)


@pytest.mark.parametrize("gamma", (0.5, 1.0, 2.0))
def test_gram_matrix_matches_the_panel_rule(gamma):
    # all 15 entries on both sides, to 1e-13 of the largest, from the edge
    # out to distance 30, with the smaller amplitude first and second; below
    # gamma = 1 and above it the smallest amplitude is |1 - gamma|, at K_i = pi
    params = ModelParams(gamma)
    fibers = [fiber_with_ratio(gamma, r, first) for r in RATIOS for first in (True, False)]
    fibers = [K for K in fibers if K is not None]
    if gamma != 1.0:
        fibers += [TorusPoint(math.pi, 0.7), TorusPoint(0.7, math.pi)]
    assert len(fibers) == (12 if gamma == 1.0 else 4)
    worst = 0.0
    for K in fibers:
        for delta in np.logspace(-12, math.log10(30.0), 15):
            for side in Side:
                j = secular_entries(K, gamma, side, float(delta))
                ref = panel_gram(K, params, side, float(delta))
                worst = max(worst, np.max(np.abs(j - ref)) / np.max(np.abs(ref)))
    assert worst <= 1e-13


def test_gram_matrix_matches_the_grid_sum():
    # the plain torus mean of psi_i psi_j / (E_K - z) uses no reduction; at
    # distance 0.5 and beyond it converges exponentially.  Fibers with
    # R1 > R2, R1 < R2 and R2 = 0 (gamma = 1, K2 = pi)
    for gamma, k in ((2.0, (0.4, 2.2)), (2.0, (2.2, 0.4)), (1.0, (0.9, math.pi))):
        params, K = ModelParams(gamma), TorusPoint(*k)
        band = band_edges(K, params)
        for d in (0.5, 3.0):
            for side, z in ((Side.BELOW, band.e_min - d), (Side.ABOVE, band.e_max + d)):
                grid = brute_secular(z, K, params, n=128)
                j = secular_entries(K, gamma, side, d)
                assert np.max(np.abs(j - grid)) <= 1e-13 * np.max(np.abs(grid))


def _mp_gram(K, params, delta):
    """J below the band to 40 digits: the reduced outer-angle integrals in
    mpmath, combined by the mode-pair table with the larger amplitude outside."""
    import mpmath as mp

    mp.mp.dps = 40
    r1, r2, f1, f2 = pair_amplitudes(K, params.gamma)
    perm = None
    if r2 > r1:
        r1, r2, f1, f2 = r2, r1, f2, f1
        perm = [0, 2, 1, 4, 3]
    d, a, b = mp.mpf(delta), mp.mpf(r1), mp.mpf(r2)

    def basis(x):
        m = d + 2 * a * mp.sin(x / 2) ** 2
        amag = m + b
        root = mp.sqrt(m * (m + 2 * b))
        den = root * (amag + root)
        c = mp.cos(x)
        return (1 / root, c / root, c * c / root, b / den, c * b / den, amag / den)

    breaks = [mp.mpf(0)] + [min(mp.sqrt(d / a), mp.pi / 8) * 4 ** k for k in range(30)
                            if min(mp.sqrt(d / a), mp.pi / 8) * 4 ** k < mp.pi]
    w = [mp.quad(lambda x, k=k: basis(x)[k], breaks + [mp.pi]) / mp.pi for k in range(6)]
    tab = pair_coefficients(math.cos(f1), math.sin(f1), math.cos(f2), math.sin(f2))
    vals = [float(mp.fsum(mp.mpf(float(t)) * wk for t, wk in zip(row, w))) for row in tab]
    out = np.empty((5, 5))
    out[np.triu_indices(5)] = vals
    out[np.tril_indices(5, -1)] = out.T[np.tril_indices(5, -1)]
    return out if perm is None else out[np.ix_(perm, perm)]


@pytest.mark.parametrize("gamma,k,delta", [
    (1.0, (math.pi - 2e-4, 0.7), 1e-12),   # R_min/R_max ~ 1e-4 at the edge: the F2 series
    (2.0, (0.7, 2.9), 0.9),                # just inside the Carlson regime, F2 closed form
    (1.0, (math.pi - 1.4e-3, math.pi - 1.4e-3), 30.0),   # tiny amplitudes far out: the rule
])
def test_gram_matrix_corners_against_40_digit_quadrature(gamma, k, delta):
    params, K = ModelParams(gamma), TorusPoint(*k)
    ref = _mp_gram(K, params, delta)
    j = secular_entries(K, gamma, Side.BELOW, delta)
    assert np.max(np.abs(j - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_double_pole_integral_on_both_sides_of_the_switch():
    # F2 by its closed form and by its series agree with a 40-digit
    # quadrature across the switch, the series down to eps = 1e-9 where the
    # closed form loses about 1/eps ulp
    import mpmath as mp

    from latticebound.determinants import _double_pole, elliprf, elliprj

    mp.mp.dps = 40
    for q1 in (3.5, 2e12):
        for eps in (1e-9, 0.5 * F2_SERIES_SWITCH, F2_SERIES_SWITCH, 0.7):
            q2 = 1.0 + eps
            ref = mp.quad(lambda s: 1 / ((s + 1) ** 2 * mp.sqrt(s * (s + q1) * (s + q2))),
                          [0, 1e-12, 1e-6, 1e-3, 1, 1e3, 1e6, mp.inf])
            b0 = 2.0 * float(elliprf(0.0, q1, q2))
            b1 = (2.0 / 3.0) * float(elliprj(0.0, q1, q2, 1.0))
            assert _double_pole(q1, eps, b0, b1) == pytest.approx(float(ref), rel=4e-15)
