"""Answers the benchmark computes without the solver, used to check its outputs.

* the K = 0 count table from the closed-form thresholds
  t_s = pi*g/(4 - pi), t_d = pi*g/(pi - 2), g = 1 + gamma;
* the mirror identity above(lam, mu) = 4g - below(-lam, -mu) at K = 0;
* the particle-swap identity spec(gamma, lam, mu, K) =
  gamma * spec(1/gamma, lam/gamma, mu/gamma, K);
* bound-state counts of the momentum-grid model by dense diagonalization,
  assembled here from the dispersion and the interaction kernel.
"""

from __future__ import annotations

import math

import numpy as np

# A point counts as "in a region interior" when every boundary is at least
# MARGIN * g away; thresholds and the hyperbolas all scale linearly in g.
# Near S+- = 0 a newborn coupled-even root sits at a distance like
# exp(-C/|S|) from the edge; at |S| ~ 0.035 g it is already below the
# solver's 1e-300 floor, so the margin is wide.
MARGIN = 0.25
# Eigenvalues compared across identities agree to about 1e-12 today.
Z_TOL = 1e-8
# The swap identity is checked on states at least this far outside the band,
# 100 times the 1e-10 floor of the solvers' edge meshes.
SWAP_DEPTH = 1e-8


def closed_form_thresholds(gamma: float) -> tuple[float, float]:
    """(t_s, t_d): mu levels where the decoupled-even and odd channels bind."""
    g = 1.0 + gamma
    return math.pi * g / (4.0 - math.pi), math.pi * g / (math.pi - 2.0)


def table_counts(gamma: float, lam: float, mu: float) -> tuple[int, int] | None:
    """(below, above) counts the region table predicts at K = 0.

    Returns None when (lam, mu) lies within ``MARGIN * g`` of a region
    boundary, where the table's answer depends on the boundary convention.

    Above the band the coupled even channel gives 0 roots for S+ < 0 and
    mu < g, 1 for S+ > 0 and 2 for S+ < 0 and mu > g, where
    S+ = 2mu + lam - lam*mu/g; mu > t_s adds one root and mu > t_d a double
    root.  Below the band is the mirror image (lam, mu) -> (-lam, -mu).
    """
    g = 1.0 + gamma
    t_s, t_d = closed_form_thresholds(gamma)
    s_plus = 2.0 * mu + lam - lam * mu / g
    s_minus = 2.0 * mu + lam + lam * mu / g
    gaps = (abs(s_plus), abs(s_minus), abs(abs(mu) - g),
            abs(abs(mu) - t_s), abs(abs(mu) - t_d))
    if min(gaps) < MARGIN * g:
        return None

    def side(s: float, m: float) -> int:
        coupled = 1 if s > 0.0 else (2 if m > g else 0)
        return coupled + (1 if m > t_s else 0) + (2 if m > t_d else 0)

    # below(lam, mu) = above(-lam, -mu), and S+(-lam, -mu) = -S-(lam, mu)
    return side(-s_minus, -mu), side(s_plus, mu)


def expand(evs) -> list[float]:
    """Eigenvalue positions repeated by multiplicity, ascending."""
    return sorted(ev.z for ev in evs for _ in range(ev.multiplicity))


def close(xs, ys) -> bool:
    """Equal lengths and, sorted, equal within Z_TOL relative."""
    xs, ys = sorted(xs), sorted(ys)
    return len(xs) == len(ys) and all(
        abs(x - y) <= Z_TOL * (1.0 + abs(x)) for x, y in zip(xs, ys))


def swap_params(gamma: float, lam: float, mu: float) -> tuple[float, float, float]:
    """Couplings of the particle-swapped problem (scaled by 1/gamma)."""
    return 1.0 / gamma, lam / gamma, mu / gamma


def _deep_states(rep, scale: float) -> tuple[list[float], list[float]]:
    """States at least SWAP_DEPTH outside the band, positions times scale."""
    lo, hi = scale * rep.band.e_min, scale * rep.band.e_max
    zs = [scale * z for z in expand(rep.below)], [scale * z for z in expand(rep.above)]
    return ([z for z in zs[0] if lo - z >= SWAP_DEPTH],
            [z for z in zs[1] if z - hi >= SWAP_DEPTH])


def swap_mismatch(rep, swapped, gamma: float) -> str:
    """Empty when rep equals gamma times the swapped report, else a reason.

    States shallower than SWAP_DEPTH are left out: there the solvers decide
    from their mesh floors and edge models, and a state at depth d in one
    problem sits at d / gamma in the other, on the other side of a floor.
    """
    for name, za, zb in zip(("below", "above"), _deep_states(rep, 1.0),
                            _deep_states(swapped, gamma)):
        if not close(za, zb):
            return f"particle swap ({name}): {za} vs {zb}"
    return ""


def mirror_mismatch(rows, g: float) -> str:
    """Check above(lam, mu) = 4g - below(-lam, -mu) over a symmetric sweep.

    ``rows`` carry multiplicity-expanded eigenvalues.  Returns an empty
    string when every mirrored pair agrees, else the first disagreement.
    """
    by_point = {(r.lam, r.mu): r for r in rows}
    for (lam, mu), r in by_point.items():
        m = by_point.get((-lam + 0.0, -mu + 0.0))
        if m is None:
            return f"sweep grid is not symmetric at ({lam}, {mu})"
        mirrored = [4.0 * g - z for z in m.eigs_below]
        if r.comp_above != m.comp_below or not close(r.eigs_above, mirrored):
            return (f"mirror at ({lam}, {mu}): above {r.eigs_above} vs "
                    f"4g - below(-lam, -mu) {sorted(mirrored)}")
    return ""


def dense_counts(gamma: float, lam: float, mu: float, k1: float, k2: float,
                 n: int) -> tuple[int, int, float]:
    """Bound-state counts of the n x n momentum-grid model.

    The fiber operator on the grid is diag(E_K(p)) plus the interaction
    kernel v(p - q) = (lam + mu*(cos(p1 - q1) + cos(p2 - q2))) / n^2, which
    splits into five rank-one channels (constant, cos p1, cos p2, sin p1,
    sin p2).  Returns (below, above, shallowest) where ``shallowest`` is the
    smallest distance of a bound state from the grid band (inf if none).
    """
    q = -math.pi + 2.0 * math.pi * np.arange(n) / n
    p1, p2 = (a.ravel() for a in np.meshgrid(q, q, indexing="ij"))
    diag = ((2.0 - np.cos(p1) - np.cos(p2))
            + gamma * (2.0 - np.cos(k1 - p1) - np.cos(k2 - p2)))
    h = np.diag(diag)
    scale = 1.0 / (n * n)
    h += lam * scale
    for u in (np.cos(p1), np.sin(p1), np.cos(p2), np.sin(p2)):
        h += mu * scale * np.outer(u, u)
    ev = np.linalg.eigvalsh(h)
    lo, hi = float(diag.min()), float(diag.max())
    below = ev[ev < lo - 1e-10 * (1.0 + abs(lo))]
    above = ev[ev > hi + 1e-10 * (1.0 + abs(hi))]
    depths = np.concatenate([lo - below, above - hi])
    shallowest = float(depths.min()) if depths.size else math.inf
    return int(below.size), int(above.size), shallowest
