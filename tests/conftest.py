"""Shared test fixtures."""

from __future__ import annotations

import numpy as np
import pytest

from latticebound.integrals import Side, watson_integrals_at

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
    data = np.array([watson_integrals_at(side, float(d), gamma, 1e-12).as_array()
                     for d in deltas])                       # (4 deltas, 5)
    coef = np.linalg.solve(design, data)                     # rows: t, C0, C1, C2
    sign = -1.0 if side is Side.BELOW else 1.0
    return {which: (sign * float(coef[0, j]), float(coef[1, j]))
            for j, which in enumerate("abcef")}


@pytest.fixture(scope="session")
def edge_fit():
    """The reference fit behind the closed-form edge constants."""
    return fitted_edge_constants
