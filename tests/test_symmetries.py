"""Exact symmetries of the operator as property tests.

The solvers build in one symmetry, the mirror (lam, mu) -> (-lam, -mu) that
reflects the band.  The others hold for the operator but the code does not
use them, so they check it:

* particle swap: spec(gamma, lam, mu, K) = gamma * spec(1/gamma, lam/gamma,
  mu/gamma, K), on both solvers, in position and in count;
* K -> -K, (K1, K2) -> (-K1, K2) and (K1, K2) -> (K2, K1), on the
  general-fiber solver.

Draws lean towards region boundaries: within 0.05*g of the hyperbolas
S+- = 2*mu + lam -+ lam*mu/g = 0 and of |mu| = t_s, t_d.  States are
compared when they lie at least 1e-8 outside the band.  Closer to the edge
the solvers decide from their 1e-10 mesh floor and their edge models, and a
state at depth d in one problem sits at depth d/gamma in the swapped one,
on the other side of that floor; counts compare every state.
"""

from __future__ import annotations

import math

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from latticebound.atlas import binding_thresholds
from latticebound.core import ModelParams, TorusPoint
from latticebound.spectrum import spectrum_general, spectrum_k0

DEPTH = 1e-8
Z_TOL = 1e-8

PROPERTY = settings(derandomize=True, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def couplings(draw) -> ModelParams:
    gamma = draw(st.floats(0.3, 3.0))
    g = 1.0 + gamma
    near = draw(st.sampled_from(["none", "S+", "S-", "t_s", "t_d"]))
    offset = draw(st.floats(-0.05, 0.05)) * g
    if near in ("S+", "S-"):
        # S+- is linear in lam at fixed mu: S+- = lam*(1 -+ mu/g) + 2*mu
        mu = draw(st.floats(-12.0, 12.0))
        slope = 1.0 - mu / g if near == "S+" else 1.0 + mu / g
        assume(abs(slope) > 0.1)
        lam = (offset - 2.0 * mu) / slope
        assume(abs(lam) <= 12.0)
    elif near in ("t_s", "t_d"):
        thr = binding_thresholds(gamma)
        t = thr.t_s if near == "t_s" else thr.t_d
        mu = draw(st.sampled_from([-1.0, 1.0])) * t + offset
        lam = draw(st.floats(-12.0, 12.0))
    else:
        lam = draw(st.floats(-12.0, 12.0))
        mu = draw(st.floats(-12.0, 12.0))
    return ModelParams(gamma, lam, mu)


fibers = st.builds(TorusPoint, st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi))


def _levels(evs, scale: float) -> list[float]:
    return [scale * ev.z for ev in evs for _ in range(ev.multiplicity)]


def _unmatched(rep_a, rep_b, scale_b: float = 1.0) -> list[str]:
    """States of rep_a at least DEPTH outside the band with no partner in
    rep_b (positions of rep_b times scale_b)."""
    missing = []
    for name, edge, sgn in (("below", rep_a.band.e_min, -1.0),
                            ("above", rep_a.band.e_max, 1.0)):
        partners = _levels(getattr(rep_b, name), scale_b)
        for z in _levels(getattr(rep_a, name), 1.0):
            if sgn * (z - edge) < DEPTH:
                continue
            near = [p for p in partners if abs(p - z) <= Z_TOL * (1.0 + abs(z))]
            if near:
                partners.remove(near[0])
            else:
                missing.append(f"{name} {z!r}")
    return missing


def assert_same_states(rep_a, rep_b, scale_b: float = 1.0) -> None:
    there = _unmatched(rep_a, rep_b, scale_b)
    back = _unmatched(rep_b, rep_a, 1.0 / scale_b)
    assert not there and not back, (
        f"{rep_a.params} at K = {rep_a.K.as_tuple()}: no partner for {there} "
        f"in the transformed problem, nor for {back} in the original")


def _swapped(params: ModelParams) -> ModelParams:
    return ModelParams(1.0 / params.gamma, params.lam / params.gamma,
                       params.mu / params.gamma)


@PROPERTY
@given(params=couplings())
def test_particle_swap_at_zero_fiber(params):
    assert_same_states(spectrum_k0(params), spectrum_k0(_swapped(params)),
                       params.gamma)


@settings(PROPERTY, max_examples=8)
@given(params=couplings(), K=fibers)
def test_particle_swap_at_general_fiber(params, K):
    assert_same_states(spectrum_general(K, params),
                       spectrum_general(K, _swapped(params)), params.gamma)


@settings(PROPERTY, max_examples=8)
@given(params=couplings(), K=fibers)
@example(params=ModelParams(2.750132980407175, -5.601264639299718,
                            10.808955568342903),
         K=TorusPoint(0.3074099264343664, -0.246797075973884))
@example(params=ModelParams(2.0, 0.0, -10.97937709897646), K=TorusPoint(0.0, 0.0))
def test_particle_swap_keeps_counts(params, K):
    # every state counts, pinned ones included
    for solve in (spectrum_k0, lambda p: spectrum_general(K, p)):
        rep, swapped = solve(params), solve(_swapped(params))
        assert (rep.n_below, rep.n_above) == (swapped.n_below, swapped.n_above), (
            f"{params} at K = {K.as_tuple()}")


@settings(PROPERTY, max_examples=6)
@given(params=couplings(), K=fibers)
def test_fiber_reflection_and_exchange(params, K):
    rep = spectrum_general(K, params)
    assert_same_states(rep, spectrum_general(-K, params))
    assert_same_states(rep, spectrum_general(TorusPoint(K.p2, K.p1), params))


@settings(PROPERTY, max_examples=6)
@given(params=couplings(), K=fibers)
def test_single_axis_reflection(params, K):
    # p1 -> -p1 maps E_K to E_(-K1, K2) and only flips the sign of the
    # sin p1 mode, so the spectra agree; counts compare every state
    rep = spectrum_general(K, params)
    reflected = spectrum_general(TorusPoint(-K.p1, K.p2), params)
    assert (rep.n_below, rep.n_above) == (reflected.n_below, reflected.n_above), (
        f"{params} at K = {K.as_tuple()}")
    assert_same_states(rep, reflected)
