"""Shared test fixtures."""

from __future__ import annotations

import math

import numpy as np
import pytest

from latticebound import spectrum
from latticebound.integrals import Side, watson_integrals_at
from panel_rule import geometric_panels, panel_nodes

FIT_DISTANCES = (1e-4, 1e-5, 1e-6, 1e-7)


def fitted_edge_constants(gamma: float, side: Side) -> dict[str, tuple[float, float]]:
    """Measured edge models: moment -> (log_slope, offset) on one side.

    Fits v(d) = t*ln d + C0 + C1*d*ln d + C2*d through the moments at four
    distances (an exact 4x4 solve, i.e. extrapolation to the edge with the
    leading correction terms removed).  The log slope follows the sign
    convention of ``EdgeAsymptotics``: -t below the band, +t above.
    """
    deltas = np.array(FIT_DISTANCES)
    ln = np.log(deltas)
    design = np.column_stack([ln, np.ones_like(deltas), deltas * ln, deltas])
    data = np.array([watson_integrals_at(side, float(d), gamma).as_array()
                     for d in deltas])                       # (4 deltas, 5)
    coef = np.linalg.solve(design, data)                     # rows: t, C0, C1, C2
    sign = -1.0 if side is Side.BELOW else 1.0
    return {which: (sign * float(coef[0, j]), float(coef[1, j]))
            for j, which in enumerate("abcef")}


@pytest.fixture(scope="session")
def edge_fit():
    """The reference fit behind the closed-form edge constants."""
    return fitted_edge_constants


def _quadrature_values(x: np.ndarray, weights: np.ndarray, d: float) -> np.ndarray:
    """The five reduced integrands at nodes x, summed (units of g = 1).

    With the inner angle integrated in closed form and the singularity
    folded to x = 0, the denominator is A = 2 + d - cos x.
    """
    am1 = d + 2.0 * np.sin(0.5 * x) ** 2          # A - 1, no cancellation
    root = np.sqrt(am1 * (am1 + 2.0))             # sqrt(A^2 - 1)
    s0 = 1.0 / root
    t1 = 1.0 / (root * (am1 + 1.0 + root))        # inner cos moment, >= 0
    cx = np.cos(x)
    vals = np.empty(5)
    vals[0] = weights @ s0                        # a
    vals[1] = weights @ (cx * s0)                 # b
    vals[2] = weights @ (cx * cx * s0)            # c
    vals[3] = weights @ (cx * t1)                 # e
    vals[4] = weights @ ((1.0 - cx * cx) * s0)    # f
    return vals / math.pi


def _quadrature_at(d: float, rel_tol: float) -> np.ndarray | None:
    """Geometric panels with 16/32, 32/64 and 64/128 Gauss-Legendre pairs."""
    layer = math.sqrt(2.0 * d) if d < 2.0 else math.pi
    for level in range(3):
        bp = geometric_panels(math.pi, layer / 4.0 ** level)
        v1 = _quadrature_values(*panel_nodes(bp, 16 << level), d)
        v2 = _quadrature_values(*panel_nodes(bp, 32 << level), d)
        tol = rel_tol * np.maximum(np.abs(v2), 1e-6 * np.max(np.abs(v2)) + 1e-300)
        if np.all(np.abs(v1 - v2) <= tol):
            return v2
    return None


def quadrature_moments(side: Side, delta: float, gamma: float) -> np.ndarray:
    """Reference a, b, c, e, f by adaptive panel quadrature.

    Certified to rel_tol 1e-13, or 1e-11 where 1e-13 is out of reach; the
    side above follows from the mirror identity (a, c, e, f negate).
    """
    g = 1.0 + gamma
    for rel_tol in (1e-13, 1e-11):
        vals = _quadrature_at(delta / g, rel_tol)
        if vals is not None:
            break
    else:
        raise AssertionError(f"reference quadrature fails at distance {delta}")
    if side is Side.ABOVE:
        vals = vals * np.array([-1.0, 1.0, -1.0, -1.0, -1.0])
    return vals / g


@pytest.fixture(scope="session")
def moment_quadrature():
    """The panel quadrature the closed-form moments replaced, as a reference."""
    return quadrature_moments


def solved_sides(solve, *args):
    """Run a scalar solve; return its report and the roots below and above
    the band that it hands to ``spectrum._report``, merged as the report
    merges them."""
    handed = []
    place = spectrum._report

    def recording(K, params, band, below, above):
        handed.append((below, above))
        return place(K, params, band, below, above)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectrum, "_report", recording)
        report = solve(*args)
    (below, above), = handed
    return report, spectrum._merge_found(below), spectrum._merge_found(above)


@pytest.fixture(scope="session")
def scalar_sides():
    """The roots of a scalar solve before they become its report."""
    return solved_sides
