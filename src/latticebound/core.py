"""Kinematics of the two-particle lattice problem on the 2-torus.

The relative-motion fiber Hamiltonian at total quasi-momentum ``K`` acts on
L2 of the torus as multiplication by a dispersion ``E_K(p)`` plus a rank-5
trigonometric interaction (see :mod:`latticebound.determinants`).  This module
holds the dispersion itself and its band extrema.

All angles live on ``[-pi, pi)``; :func:`wrap` is the canonical representative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi


def wrap(x: float) -> float:
    """Reduce an angle to the half-open interval [-pi, pi).

    The positive endpoint maps to the negative one, so every equivalence
    class has exactly one representative.
    """
    return x - TWO_PI * math.floor(x / TWO_PI + 0.5)


@dataclass(frozen=True)
class TorusPoint:
    """A point on the 2-torus, stored in canonical coordinates."""

    p1: float
    p2: float

    def __post_init__(self) -> None:
        p1, p2 = float(self.p1), float(self.p2)
        if not (math.isfinite(p1) and math.isfinite(p2)):
            raise ValueError(f"K must be finite, got ({p1}, {p2})")
        object.__setattr__(self, "p1", wrap(p1))
        object.__setattr__(self, "p2", wrap(p2))

    def as_tuple(self) -> tuple[float, float]:
        return (self.p1, self.p2)

    def __neg__(self) -> "TorusPoint":
        return TorusPoint(-self.p1, -self.p2)

    def __sub__(self, other: "TorusPoint") -> "TorusPoint":
        return TorusPoint(self.p1 - other.p1, self.p2 - other.p2)


ORIGIN = TorusPoint(0.0, 0.0)
# the amplitudes square 1 - gamma, which overflows beyond about 1e154, and
# the general-fiber Gram matrix leaves the double range from about 1e150
GAMMA_MAX = 1e100


@dataclass(frozen=True)
class ModelParams:
    """Couplings of the model.

    ``gamma`` is the mass ratio entering the second particle's hopping,
    positive and at most GAMMA_MAX; ``lam`` weights the on-site interaction
    and ``mu`` the nearest-neighbour one.
    """

    gamma: float = 1.0
    lam: float = 0.0
    mu: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma <= GAMMA_MAX:
            raise ValueError(f"gamma must be in (0, {GAMMA_MAX:g}], got {self.gamma}")
        for name in ("lam", "mu"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def g(self) -> float:
        """Total inverse-mass scale 1 + gamma."""
        return 1.0 + self.gamma


def epsilon(p: TorusPoint) -> float:
    """Single-particle dispersion: sum_i (1 - cos p_i)."""
    return (1.0 - math.cos(p.p1)) + (1.0 - math.cos(p.p2))


def dispersion(K: TorusPoint, p: TorusPoint, params: ModelParams) -> float:
    """Two-particle kinetic symbol eps(p) + gamma*eps(K-p) at fiber K."""
    return epsilon(p) + params.gamma * epsilon(K - p)


def pair_amplitudes(K: TorusPoint, gamma: float) -> tuple[float, float, float, float]:
    """Amplitude/phase form of the dispersion.

    Writing E_K(p) = 2(1+gamma) - R1*cos(p1-phi1) - R2*cos(p2-phi2), returns
    (R1, R2, phi1, phi2) with R_i = |1 + gamma*exp(i K_i)| and phi_i its
    argument.  Both are taken from 1 + gamma*cos K_i = (1 - gamma) +
    2*gamma*cos^2(K_i/2), so R_i^2 = (1 - gamma)^2 + 4*gamma*cos^2(K_i/2):
    a sum of non-negative terms, which keeps small amplitudes accurate where
    1 + gamma^2 + 2*gamma*cos K_i cancels.  R_i vanishes only at gamma = 1,
    K_i = pi.
    """
    out = []
    for k in (K.p1, K.p2):
        c2 = math.cos(0.5 * k) ** 2
        r = math.sqrt((1.0 - gamma) ** 2 + 4.0 * gamma * c2)
        phi = math.atan2(gamma * math.sin(k), (1.0 - gamma) + 2.0 * gamma * c2)
        out.append((r, phi))
    (r1, f1), (r2, f2) = out
    return r1, r2, f1, f2


def edges_closed(K: TorusPoint, params: ModelParams) -> tuple[float, float]:
    """Band endpoints from the amplitude form: sum_i (g -/+ R_i).

    g - R_i = 4*gamma*sin^2(K_i/2) / (g + R_i) has no cancellation, so the
    lower edge is exactly 0 at K = 0; the upper edge is 4g minus it.
    """
    g = params.g
    r1, r2, _, _ = pair_amplitudes(K, params.gamma)
    lo = sum(4.0 * params.gamma * math.sin(0.5 * k) ** 2 / (g + r)
             for k, r in ((K.p1, r1), (K.p2, r2)))
    return lo, 4.0 * g - lo


@dataclass(frozen=True)
class Band:
    """Extrema of the dispersion over the torus at a fixed fiber."""

    e_min: float
    e_max: float
    argmin: TorusPoint
    argmax: TorusPoint

    @property
    def width(self) -> float:
        return self.e_max - self.e_min

    @property
    def degenerate(self) -> bool:
        """True when the dispersion is constant (flat fiber)."""
        return self.width <= 1e-12 * (1.0 + abs(self.e_max))


def band_edges(K: TorusPoint, params: ModelParams) -> Band:
    """Band extrema in closed form.

    In the amplitude form the two angles decouple: the minimum sits at
    p = (phi1, phi2) and the maximum at (phi1 + pi, phi2 + pi).  A flat
    coordinate (R_i = 0) makes every angle extremal, so these stay valid.
    """
    _, _, f1, f2 = pair_amplitudes(K, params.gamma)
    e_min, e_max = edges_closed(K, params)
    return Band(e_min=e_min, e_max=e_max, argmin=TorusPoint(f1, f2),
                argmax=TorusPoint(f1 + math.pi, f2 + math.pi))


def gradient_norm(K: TorusPoint, p: TorusPoint, params: ModelParams) -> float:
    """Euclidean norm of grad_p E_K(p); used to check stationarity."""
    g1 = math.sin(p.p1) - params.gamma * math.sin(K.p1 - p.p1)
    g2 = math.sin(p.p2) - params.gamma * math.sin(K.p2 - p.p2)
    return math.hypot(g1, g2)
