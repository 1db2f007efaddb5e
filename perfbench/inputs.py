"""Seeded workload inputs.

Inputs come in rounds of a fixed shape: round r of a run with seed s is a
pure function of (s, r).  Each slot of a round draws from its own box: a
cell of the coupling square [-12, 12]^2 and its own strip of gamma in
[0.5, 2] (and of each K component), so every round spans the same range of
behaviour and asks for about the same work whatever the seed.

Run as a script, ``python3 inputs.py oracle-draws SEED ROUND LAM_CELLS
MU_CELLS`` prints the oracle-grid draws of one round as JSON.  The oracle workload calls it in a
child process so that the dense matrices behind the draws stay out of the
benchmark process's peak resident memory.
"""

from __future__ import annotations

import json
import math
import random
import sys

import reference as ref

# Oracle draws are kept only when the two dense grids agree on the counts
# and every state sits at least RESOLVE_DEPTH * g outside both grid bands:
# shallower states lie below the resolution of the coarser grid.
DENSE_N = (24, 32)
RESOLVE_DEPTH = 0.05


def round_rng(seed: int, round_index: int, salt: str) -> random.Random:
    return random.Random(f"{salt}:{seed}:{round_index}")


def cells(nl: int, nm: int):
    """Cells of [-12, 12]^2, row-major: (lam_lo, lam_hi, mu_lo, mu_hi)."""
    wl, wm = 24.0 / nl, 24.0 / nm
    for i in range(nl):
        for j in range(nm):
            yield (-12.0 + i * wl, -12.0 + (i + 1) * wl,
                   -12.0 + j * wm, -12.0 + (j + 1) * wm)


def _draw(rng: random.Random, slot: int, n: int, cell, with_k: bool) -> tuple:
    """A point in slot ``slot``'s box: its (lam, mu) cell, and its own strip
    of gamma and of each K component, laid out as a fixed Latin design."""
    def strip(lo: float, hi: float, stride: int) -> float:
        w = (hi - lo) / n
        i = (slot * stride) % n
        return rng.uniform(lo + i * w, lo + (i + 1) * w)

    lam_lo, lam_hi, mu_lo, mu_hi = cell
    gamma = strip(0.5, 2.0, 1)
    lam = rng.uniform(lam_lo, lam_hi)
    mu = rng.uniform(mu_lo, mu_hi)
    if with_k:
        return gamma, lam, mu, strip(-math.pi, math.pi, 3), strip(-math.pi, math.pi, 5)
    return gamma, lam, mu, 0.0, 0.0


def interior_draws(seed: int, r: int, salt: str, shape: tuple[int, int],
                   with_k: bool) -> list[tuple]:
    """One (gamma, lam, mu, K1, K2, table) per cell, rejection-sampled to
    keep a margin from every K = 0 region boundary."""
    rng = round_rng(seed, r, salt)
    out = []
    n = shape[0] * shape[1]
    for slot, cell in enumerate(cells(*shape)):
        while True:
            d = _draw(rng, slot, n, cell, with_k)
            table = ref.table_counts(*d[:3])
            if table is not None:
                out.append(d + (table,))
                break
    return out


def oracle_draws(seed: int, r: int, shape: tuple[int, int]) -> list[tuple]:
    """One resolved general-fiber draw per cell, with its dense counts."""
    rng = round_rng(seed, r, "oracle")
    out = []
    n = shape[0] * shape[1]
    for slot, cell in enumerate(cells(*shape)):
        while True:
            d = _draw(rng, slot, n, cell, True)
            small = [ref.dense_counts(*d, size) for size in DENSE_N]
            if (small[0][:2] == small[1][:2]
                    and min(s[2] for s in small) >= RESOLVE_DEPTH * (1.0 + d[0])):
                out.append(d + (small[0][:2],))
                break
    return out


if __name__ == "__main__":
    if len(sys.argv) != 6 or sys.argv[1] != "oracle-draws":
        sys.exit("usage: inputs.py oracle-draws SEED ROUND LAM_CELLS MU_CELLS")
    seed, r, nl, nm = (int(a) for a in sys.argv[2:])
    print(json.dumps(oracle_draws(seed, r, (nl, nm))))
