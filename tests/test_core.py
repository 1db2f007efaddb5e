import math

import numpy as np
import pytest

from latticebound.core import (GAMMA_MAX, ORIGIN, Band, ModelParams, TorusPoint,
                               band_edges, dispersion, epsilon,
                               gradient_norm, pair_amplitudes, wrap)
from latticebound.spectrum import spectrum_k0


def test_wrap_range_and_periodicity():
    for x in (-9.0, -math.pi, -1e-9, 0.0, 0.3, math.pi - 1e-9, 7.5, 100.0):
        w = wrap(x)
        assert -math.pi <= w < math.pi
        assert math.isclose(math.cos(w), math.cos(x), abs_tol=1e-12)
        assert math.isclose(math.sin(w), math.sin(x), abs_tol=1e-12)


def test_toruspoint_canonicalizes():
    p = TorusPoint(3.0 * math.pi, -math.pi)
    assert p.p1 == pytest.approx(-math.pi)
    assert p.p2 == pytest.approx(-math.pi)
    q = TorusPoint(0.5, 0.25) - TorusPoint(1.0, -0.25)
    assert q.as_tuple() == pytest.approx((-0.5, 0.5))
    assert (-TorusPoint(0.5, 0.5)).as_tuple() == pytest.approx((-0.5, -0.5))


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(gamma=0.0)
    with pytest.raises(ValueError):
        ModelParams(gamma=-1.0)
    with pytest.raises(ValueError):
        ModelParams(gamma=1.0, lam=float("nan"))
    assert ModelParams(gamma=0.5).g == 1.5


@pytest.mark.parametrize("k", [(math.inf, 0.0), (0.0, -math.inf), (math.nan, 0.0)])
def test_toruspoint_rejects_non_finite_coordinates(k):
    with pytest.raises(ValueError, match="K must be finite"):
        TorusPoint(*k)


def test_gamma_beyond_its_range_is_rejected():
    # at GAMMA_MAX the band edges stay finite; beyond it gamma is rejected
    # before (1 - gamma)^2 can overflow
    band = band_edges(TorusPoint(1.0, 2.0), ModelParams(GAMMA_MAX))
    assert math.isfinite(band.e_min) and math.isfinite(band.e_max)
    for gamma in (1e300, math.inf):
        with pytest.raises(ValueError, match="gamma must be in"):
            ModelParams(gamma)


def test_dispersion_values():
    params = ModelParams(gamma=1.0)
    assert epsilon(ORIGIN) == 0.0
    assert epsilon(TorusPoint(math.pi, math.pi)) == pytest.approx(4.0)
    assert dispersion(ORIGIN, ORIGIN, params) == 0.0
    # at K=0 the symbol is g * eps(p)
    p = TorusPoint(0.7, -1.2)
    for gamma in (0.5, 1.0, 2.0):
        pr = ModelParams(gamma=gamma)
        assert dispersion(ORIGIN, p, pr) == pytest.approx((1 + gamma) * epsilon(p))


def test_amplitude_form_matches_dispersion():
    rng = np.random.default_rng(3)
    for _ in range(20):
        gamma = float(rng.uniform(0.3, 3.0))
        K = TorusPoint(*rng.uniform(-math.pi, math.pi, 2))
        p = TorusPoint(*rng.uniform(-math.pi, math.pi, 2))
        params = ModelParams(gamma=gamma)
        r1, r2, f1, f2 = pair_amplitudes(K, gamma)
        closed = (2.0 * params.g - r1 * math.cos(p.p1 - f1)
                  - r2 * math.cos(p.p2 - f2))
        assert dispersion(K, p, params) == pytest.approx(closed, abs=1e-12)


@pytest.mark.parametrize("theta", [1e-3, 1e-6, 1e-8])
def test_small_amplitudes_against_40_digits(theta):
    # near gamma = 1, K_i = pi the form 1 + gamma^2 + 2 gamma cos K_i cancels
    # (R2 came out exactly 0 at theta = 1e-8); amplitudes and phases must
    # match |1 + gamma e^{iK}| and its argument to a few ulp
    import mpmath as mp
    mp.mp.dps = 40
    K = TorusPoint(0.3, math.pi - theta)
    got = pair_amplitudes(K, 1.0)
    for i, k in enumerate(K.as_tuple()):
        w = 1 + mp.expj(mp.mpf(k))
        assert abs(got[i] - abs(w)) <= 4e-16 * abs(w)
        assert abs(got[2 + i] - mp.arg(w)) <= 4e-16 * abs(mp.arg(w))


def test_band_edges_match_closed_form():
    rng = np.random.default_rng(11)
    for _ in range(15):
        gamma = float(rng.choice([0.5, 1.0, 1.7]))
        params = ModelParams(gamma=gamma)
        K = TorusPoint(*rng.uniform(-math.pi, math.pi, 2))
        band = band_edges(K, params)
        r1, r2, _, _ = pair_amplitudes(K, gamma)
        lo, hi = 2.0 * params.g - r1 - r2, 2.0 * params.g + r1 + r2
        assert band.e_min == pytest.approx(lo, abs=1e-9)
        assert band.e_max == pytest.approx(hi, abs=1e-9)
        # extrema are critical points
        assert gradient_norm(K, band.argmin, params) < 1e-6
        assert gradient_norm(K, band.argmax, params) < 1e-6


def test_band_at_zero_fiber():
    for gamma in (0.5, 1.0, 2.0):
        band = band_edges(ORIGIN, ModelParams(gamma=gamma))
        assert band.e_min == pytest.approx(0.0, abs=1e-12)
        assert band.e_max == pytest.approx(4.0 * (1 + gamma), abs=1e-12)
        assert not band.degenerate


def test_zero_fiber_edges_are_exact():
    # g - R_i is computed without cancellation, so at K = 0 the edges are
    # exactly 0 and 4g, not off by a rounding of R_i = g; the zero-fiber
    # solver writes that band in closed form, and it must be band_edges'
    # to the bit, from gamma = 1e-300 to GAMMA_MAX
    gammas = np.random.default_rng(1).uniform(0.05, 20.0, 300).tolist()
    gammas += (10.0 ** np.random.default_rng(2).uniform(-3.0, 3.0, 300)).tolist()
    for gamma in gammas + [1e-300, GAMMA_MAX]:
        params = ModelParams(gamma=gamma)
        band = band_edges(ORIGIN, params)
        assert (band.e_min, band.e_max) == (0.0, 4.0 * (1.0 + gamma))
        k0_band = spectrum_k0(params).band
        assert k0_band == band
        assert (k0_band.e_min.hex(), k0_band.e_max.hex()) == (band.e_min.hex(),
                                                              band.e_max.hex())


def test_degenerate_corner():
    # equal masses at the corner fiber: the dispersion is identically 4
    band = band_edges(TorusPoint(math.pi, math.pi), ModelParams(gamma=1.0))
    assert band.degenerate
    assert band.e_min == pytest.approx(4.0, abs=1e-12)
    assert band.e_max == pytest.approx(4.0, abs=1e-12)
    # slightly off the corner the band reopens
    band2 = band_edges(TorusPoint(math.pi - 0.1, math.pi), ModelParams(gamma=1.0))
    assert band2.width > 0.01


def test_band_is_tight_against_dense_sampling():
    params = ModelParams(gamma=0.8)
    K = TorusPoint(1.3, -2.1)
    band = band_edges(K, params)
    q = np.linspace(-math.pi, math.pi, 241)
    vals = [dispersion(K, TorusPoint(a, b), params) for a in q for b in q[:7]]
    assert min(vals) >= band.e_min - 1e-9
    assert max(vals) <= band.e_max + 1e-9
