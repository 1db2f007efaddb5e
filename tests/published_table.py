"""The circulating closed forms of the edge constants, as a reference.

A published table of the band-edge limits of the five resolvent moments.
It agrees with the exact limits of ``integrals.predicted_asymptote`` on a,
b and f below the band at gamma = 1, but not on c and e: its decoupled-even
threshold t_s = pi g / (2 (4 - pi)) is half the computed one, and above the
band it keeps the slope sign of b.  The operator obeys the computed
threshold (``atlas.threshold_scan``); the tests keep this table to show
where and by how much the two differ.
"""

from __future__ import annotations

import math

from latticebound.atlas import Thresholds
from latticebound.integrals import EdgeAsymptotics, Side

LN2 = math.log(2.0)
PI = math.pi


def published_asymptote(which: str, side: Side, gamma: float) -> EdgeAsymptotics:
    """The frozen reference table of edge constants."""
    g = 1.0 + gamma
    s = 1.0 / (2.0 * PI * g)
    offsets_below = {
        "a": 5.0 * LN2 * s,
        "b": (5.0 * LN2 - PI) * s,
        "c": (5.0 * LN2 - 3.0 * PI + 8.0) * s,
        "e": (5.0 * LN2 + PI - 8.0) * s,
        "f": (PI - 2.0) / (PI * g),
    }
    if which not in offsets_below:
        raise KeyError(f"unknown moment {which!r}")
    slope = 0.0 if which == "f" else s
    off = offsets_below[which]
    if side is Side.ABOVE:
        off = -off
    return EdgeAsymptotics(side=side, log_slope=slope, offset=off)


def published_thresholds(gamma: float) -> Thresholds:
    """t_s = 1 / lim (c - e) and t_d = 1 / lim f from the published table,
    with the arithmetic of ``atlas.binding_thresholds``."""
    off_c = published_asymptote("c", Side.BELOW, gamma).offset
    off_e = published_asymptote("e", Side.BELOW, gamma).offset
    off_f = published_asymptote("f", Side.BELOW, gamma).offset
    return Thresholds(t_s=1.0 / (off_c - off_e), t_d=1.0 / off_f)
