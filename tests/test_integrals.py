import math
import sys

import numpy as np
import pytest

from latticebound import integrals
from latticebound.errors import DomainError
from latticebound.integrals import (SERIES_SWITCH, Side, predicted_asymptote,
                                    watson_integrals, watson_integrals_at,
                                    watson_integrals_grid)
from published_table import published_asymptote

GAMMAS = (0.5, 1.0, 1.5, 2.0)


def band_top(gamma):
    return 4.0 * (1.0 + gamma)


# ---------------------------------------------------------------------------
# basic evaluation


def test_rejects_energies_in_band():
    with pytest.raises(DomainError):
        watson_integrals(1.0, 1.0)
    with pytest.raises(DomainError):
        watson_integrals(0.0, 1.0)          # closed band includes the edge
    with pytest.raises(DomainError):
        watson_integrals(band_top(1.0), 1.0)
    with pytest.raises(DomainError):
        watson_integrals_at(Side.BELOW, 0.0, 1.0)
    with pytest.raises(DomainError):
        watson_integrals_at(Side.BELOW, -1e-3, 1.0)
    with pytest.raises(DomainError):                 # delta/g underflows to 0
        watson_integrals_at(Side.BELOW, 5e-324, 1.0)


def test_agrees_with_plain_grid_summation():
    # same five moments from an independent 2D Riemann sum
    # the moments above the band come from the mirror identity; the grid
    # sum evaluates them directly
    for gamma, z in ((1.0, -0.8), (0.5, -2.5), (2.0, band_top(2.0) + 1.3),
                     (1.0, band_top(1.0) + 0.8), (0.5, band_top(0.5) + 2.5)):
        s = watson_integrals(z, gamma)
        sg = watson_integrals_grid(z, gamma, n=512)
        np.testing.assert_allclose(s.as_array(), sg.as_array(),
                                   rtol=1e-10, atol=1e-12)


def test_signs_outside_band():
    s = watson_integrals(-0.4, 1.0)
    assert s.a > 0 and s.c > 0 and s.f > 0
    t = watson_integrals(band_top(1.0) + 0.4, 1.0)
    assert t.a < 0 and t.c < 0 and t.f < 0


def test_moment_identities_full_combination_grid():
    # a = c + f, 2g(a-b) = 1 + z a, c + e = b(2 - z/g); 24 (gamma, z, side)
    count = 0
    for gamma in GAMMAS:
        g = 1.0 + gamma
        for z in (-0.7, -3.1, band_top(gamma) + 0.9,
                  band_top(gamma) + 2.3, -0.05, band_top(gamma) + 0.05):
            s = watson_integrals(z, gamma)
            scale = max(1.0, abs(s.a))
            assert abs(s.a - (s.c + s.f)) / scale < 1e-9
            assert abs(2 * g * (s.a - s.b) - (1 + z * s.a)) / scale < 1e-9
            assert abs(s.c + s.e - s.b * (2 - z / g)) / scale < 1e-9
            count += 1
    assert count == 24


def test_reflection_about_band_center():
    # z -> 4g - z flips a,c,e,f and fixes b
    for gamma in (0.7, 1.0):
        g = 1.0 + gamma
        for dz in (0.3, 1.7):
            lo = watson_integrals(-dz, gamma)
            hi = watson_integrals(4 * g + dz, gamma)
            assert hi.a == pytest.approx(-lo.a, rel=1e-11)
            assert hi.c == pytest.approx(-lo.c, rel=1e-11)
            assert hi.e == pytest.approx(-lo.e, rel=1e-10, abs=1e-13)
            assert hi.f == pytest.approx(-lo.f, rel=1e-11)
            assert hi.b == pytest.approx(lo.b, rel=1e-11)


def test_monotonicity_in_z():
    zs = (-2.0, -1.0, -0.3)
    for name in "abcef":
        vals = [getattr(watson_integrals(z, 1.0), name) for z in zs]
        assert vals[0] < vals[1] < vals[2], name
    # above the band a,c,e,f keep increasing; b is even about the band
    # center (b(z) = b(4g - z)), so there it decreases
    top = band_top(1.0)
    zs = (top + 0.3, top + 1.0, top + 2.0)
    for name in "acef":
        vals = [getattr(watson_integrals(z, 1.0), name) for z in zs]
        assert vals[0] < vals[1] < vals[2], name
    bvals = [watson_integrals(z, 1.0).b for z in zs]
    assert bvals[0] > bvals[1] > bvals[2]


def test_delta_parametrization_avoids_cancellation():
    d = 1e-9
    s = watson_integrals_at(Side.ABOVE, d, 1.0)
    assert s.z == pytest.approx(8.0 + d)
    assert s.a < 0
    # log-divergent moment keeps growing as the edge is approached
    s2 = watson_integrals_at(Side.ABOVE, 1e-12, 1.0)
    assert abs(s2.a) > abs(s.a)


# ---------------------------------------------------------------------------
# the closed forms against the panel quadrature they replaced


@pytest.mark.parametrize("gamma", (0.3, 1.0, 2.5))
def test_closed_form_matches_the_panel_quadrature(gamma, moment_quadrature):
    g = 1.0 + gamma
    for d in np.logspace(-12, 3, 200) * g:
        for side in Side:
            got = watson_integrals_at(side, float(d), gamma).as_array()
            ref = moment_quadrature(side, float(d), gamma)
            rel = np.abs(got - ref) / np.abs(ref)
            assert rel.max() <= 1e-12, (d, side, rel)


@pytest.mark.parametrize("gamma", (0.3, 1.0, 2.5))
def test_series_switch_is_continuous(gamma):
    # m = 4/eps^2 just above the switch takes the elliptic forms, just below
    # it the power series
    g = 1.0 + gamma
    lo, hi = (watson_integrals_at(
        Side.BELOW, g * (2.0 / math.sqrt(SERIES_SWITCH * f) - 2.0), gamma).as_array()
        for f in (1.0 - 1e-13, 1.0 + 1e-13))
    assert (np.abs(hi - lo) / np.abs(lo)).max() <= 1e-12


def test_array_moments_match_the_scalar_closed_form():
    # the batch twin repeats the elliptic arithmetic bit for bit; its series
    # sums by Horner instead of a matrix product, within 4 ulp
    t = np.geomspace(1e-14, 1e4, 2000)
    got = integrals._reduced_integrals_array(t)
    want = np.array([integrals._reduced_integrals(float(x)) for x in t]).T
    series = (2.0 / (2.0 + t)) ** 2 < SERIES_SWITCH
    assert 0 < series.sum() < t.size
    assert np.array_equal(got[:, ~series], want[:, ~series])
    assert np.all(np.abs(got - want) <= 4 * sys.float_info.epsilon * np.abs(want))


@pytest.mark.parametrize("gamma", (0.3, 1.0, 2.5))
def test_moments_converge_to_the_edge_models(gamma):
    # the models drop terms of order d ln d
    g = 1.0 + gamma
    for d in np.logspace(-14, -6, 33):
        d = float(d)
        for side in Side:
            s = watson_integrals_at(side, d, gamma)
            for which in "abcef":
                model = predicted_asymptote(which, side, gamma).value_at(d)
                assert abs(getattr(s, which) - model) <= d * abs(math.log(d)) / g ** 2


EXTREME_DISTANCES = (1e-300, 1e-250, 1e100, 1e160, 1e300)
PARITY = {Side.BELOW: np.ones(5), Side.ABOVE: np.array([-1.0, 1.0, -1.0, -1.0, -1.0])}


@pytest.mark.parametrize("gamma", (0.3, 1.0, 2.5))
@pytest.mark.parametrize("d", EXTREME_DISTANCES)
def test_moments_at_extreme_distances(gamma, d):
    g = 1.0 + gamma
    for side in Side:
        got = watson_integrals_at(side, d, gamma).as_array()
        assert np.all(np.isfinite(got))
        assert np.all(PARITY[side] * got >= 0.0)        # below the band all >= 0
        if d < 1.0:
            model = [predicted_asymptote(w, side, gamma).value_at(d) for w in "abcef"]
            assert got == pytest.approx(model, rel=1e-13)
            continue
        # leading terms in 1/eps; tiny b and e may underflow to zero
        r = 1.0 / (2.0 + d / g)
        lead = PARITY[side] * np.array([r, r * r / 2, r / 2, r ** 3 / 2, r / 2]) / g
        for value, expected in zip(got, lead):
            if abs(expected) >= sys.float_info.min:
                assert value == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# edge asymptotics


def test_published_constants_table():
    g = 2.0
    a = published_asymptote("a", Side.BELOW, 1.0)
    assert a.log_slope == pytest.approx(1 / (2 * math.pi * g))
    assert a.offset == pytest.approx(5 * math.log(2) / (2 * math.pi * g))
    f = published_asymptote("f", Side.BELOW, 1.0)
    assert f.log_slope == 0.0
    assert f.offset == pytest.approx((math.pi - 2) / (math.pi * g))
    f_hi = published_asymptote("f", Side.ABOVE, 1.0)
    assert f_hi.offset == pytest.approx(-(math.pi - 2) / (math.pi * g))


@pytest.mark.parametrize("gamma", (0.5, 1.0, 2.0))
def test_calibrated_constants_match_closed_forms(gamma, edge_fit):
    # the closed forms against the measured four-point fit, both sides
    for side in Side:
        for which, (slope, offset) in edge_fit(gamma, side).items():
            model = predicted_asymptote(which, side, gamma)
            assert model.log_slope == pytest.approx(slope, abs=1e-9), (which, side)
            assert model.offset == pytest.approx(offset, abs=1e-8), (which, side)
    g = 1.0 + gamma
    a = predicted_asymptote("a", Side.BELOW, gamma)
    b = predicted_asymptote("b", Side.BELOW, gamma)
    # the familiar 5 ln 2 forms are the gamma=1 specialization
    if gamma == 1.0:
        assert a.offset == pytest.approx(5 * math.log(2) / (2 * math.pi * g),
                                         abs=1e-8)
        assert b.offset == pytest.approx((5 * math.log(2) - math.pi)
                                         / (2 * math.pi * g), abs=1e-8)


def test_asymptote_model_tracks_integrals_near_edge():
    for side in Side:
        for which in "abcef":
            model = predicted_asymptote(which, side, 1.0)
            for d in (1e-7, 1e-9):
                measured = getattr(watson_integrals_at(side, d, 1.0), which)
                assert measured == pytest.approx(model.value_at(d),
                                                 rel=1e-5, abs=1e-7)


def test_decoupled_combination_adjudication():
    # lim (c - e) below: two circulating candidates a factor two apart;
    # the computed limit must match exactly one of them
    g = 2.0
    c = predicted_asymptote("c", Side.BELOW, 1.0)
    e = predicted_asymptote("e", Side.BELOW, 1.0)
    measured = c.offset - e.offset
    cand_half = (8 - 2 * math.pi) / (2 * math.pi * g)
    cand_full = (8 - 2 * math.pi) / (math.pi * g)
    hits = [abs(measured - cand) < 1e-6 for cand in (cand_half, cand_full)]
    assert hits == [True, False]


def test_calibration_report_contents():
    # computed minus published edge models, every moment and side (gamma = 1)
    slip, off = {}, {}
    for which in "abcef":
        for side in Side:
            comp = predicted_asymptote(which, side, 1.0)
            pub = published_asymptote(which, side, 1.0)
            slip[(which, side)] = comp.log_slope - pub.log_slope
            off[(which, side)] = comp.offset - pub.offset
    assert len(slip) == 10                      # five moments, two sides
    # slopes agree except for the reference table's sign slip on b above
    for key, d in slip.items():
        if key == ("b", Side.ABOVE):
            continue
        assert abs(d) < 1e-8, key
    assert slip[("b", Side.ABOVE)] == pytest.approx(
        -1.0 / (math.pi * 2.0), abs=1e-6)      # -2s at g = 2
    # a, b, f offsets agree below the band (gamma = 1)
    for which in "abf":
        assert abs(off[(which, Side.BELOW)]) < 1e-6
    # c and e offsets genuinely differ from the reference table
    assert abs(off[("c", Side.BELOW)]) > 1e-3
    assert abs(off[("e", Side.BELOW)]) > 1e-3

