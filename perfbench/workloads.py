"""The four workloads: the timed operation and the check of its output.

An operation is one public call as a user makes it.  A run does whole
rounds of operations (see inputs.py), which keeps the share of failed
operations identical across runs.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import latticebound as lb
from latticebound import atlas, cli, oracle, spectrum
from latticebound.integrals import watson_integrals_at

import inputs
import reference as ref

HERE = Path(__file__).resolve().parent
PLANE = ((-12.0, 12.0), (-12.0, 12.0), 0.5)   # lam range, mu range, step
GRID_N = 256
ORACLE_CELLS = (4, 4)


class ErrorRow(Exception):
    """The program reported a failure in its output instead of raising."""


@dataclass(frozen=True)
class Workload:
    name: str
    points_per_op: int
    min_rounds: int
    tail_pct: float | None               # op_tail_ms percentile, if any
    make_round: Callable[[int, int], list]
    run: Callable[[Any], Any]            # the timed operation
    check: Callable[[Any, Any], str]     # '' when the output is right
    prepare: Callable[[Any], None] = lambda _x: None   # untimed, before run


def _params(x) -> lb.ModelParams:
    return lb.ModelParams(*x[:3])


def _fiber(x) -> lb.TorusPoint:
    return lb.TorusPoint(*x[3:5])


def _swap_mismatch(x, rep, solve) -> str:
    gamma = x[0]
    swapped = solve(_fiber(x), lb.ModelParams(*ref.swap_params(*x[:3])))
    return ref.swap_mismatch(rep, swapped, gamma)


# ---------------------------------------------------------------------------
# plane-k0: the full-plane sweep, as `latticebound sweep` runs it


def _plane_round(seed: int, r: int) -> list[float]:
    # Round 0 is the gamma = 1 plane; later sweeps each get their own gamma.
    if r == 0:
        return [1.0]
    return [round(inputs.round_rng(seed, r, "plane").uniform(0.95, 1.05), 6)]


def _plane_prepare(_gamma) -> None:
    # Each `latticebound sweep` process starts with an empty moment cache.
    clear = getattr(watson_integrals_at, "cache_clear", None)
    if clear is not None:
        clear()


def _plane_run(gamma: float):
    lam_range, mu_range, step = PLANE
    rows = atlas.sweep(lam_range, mu_range, step, gamma=gamma, workers=1)
    buf = io.StringIO()
    cli.emit_csv(rows, buf)
    return rows, buf.getvalue()


def _plane_check(gamma: float, out) -> str:
    rows, text = out
    if text.count("\n") != len(rows) + 1:
        return "CSV line count differs from the row count"
    for r in rows:
        if r.comp_below is None or r.comp_above is None:
            raise ErrorRow(f"error row at ({r.lam}, {r.mu}): {r.error}")
        table = ref.table_counts(gamma, r.lam, r.mu)
        if table is not None and table != (r.comp_below, r.comp_above):
            return (f"({r.lam}, {r.mu}) computed {(r.comp_below, r.comp_above)}"
                    f", table {table}")
    return ref.mirror_mismatch(rows, 1.0 + gamma)


# ---------------------------------------------------------------------------
# k0-gamma-mix: cold K = 0 solves, each at a fresh gamma


def _k0_solve(_k, params):
    return spectrum.spectrum_k0(params)


def _k0_run(x):
    return spectrum.spectrum_k0(_params(x))


def _k0_check(x, rep) -> str:
    if (rep.n_below, rep.n_above) != x[5]:
        return f"{x[:3]}: computed {(rep.n_below, rep.n_above)}, table {x[5]}"
    return _swap_mismatch(x, rep, _k0_solve)


# ---------------------------------------------------------------------------
# fibers-general: Birman-Schwinger counting at random fibers


def _general_run(x):
    return spectrum.spectrum_general(_fiber(x), _params(x))


def _general_check(x, rep) -> str:
    counts = (rep.n_below, rep.n_above)
    for n, bound in zip(counts, x[5]):
        if n < bound or n > 5 or (bound == 5 and n != 5):
            return f"{x[:5]}: computed {counts}, table lower bound {x[5]}"
    return _swap_mismatch(x, rep, spectrum.spectrum_general)


# ---------------------------------------------------------------------------
# oracle-grid: the N = 256 jump-counting oracle at random fibers


def _oracle_round(seed: int, r: int) -> list[tuple]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "inputs.py"), "oracle-draws", str(seed),
         str(r), *(str(c) for c in ORACLE_CELLS)],
        capture_output=True, text=True, timeout=120, check=True)
    return [tuple(d[:5]) + (tuple(d[5]),) for d in json.loads(proc.stdout)]


def _oracle_run(x):
    return oracle.oracle_counts(_fiber(x), _params(x), n=GRID_N)


def _oracle_check(x, rep) -> str:
    if (rep.n_below, rep.n_above) != x[5]:
        return (f"{x[:5]}: grid oracle {(rep.n_below, rep.n_above)}, dense "
                f"N={inputs.DENSE_N[0]} {x[5]}")
    return ""


WORKLOADS = {
    w.name: w for w in (
        Workload("plane-k0", 2401, 4, None, _plane_round, _plane_run,
                 _plane_check, _plane_prepare),
        Workload("k0-gamma-mix", 1, 10, 0.95,
                 lambda s, r: inputs.interior_draws(s, r, "k0", (4, 4), False),
                 _k0_run, _k0_check),
        Workload("fibers-general", 1, 3, 0.75,
                 lambda s, r: inputs.interior_draws(s, r, "general", (4, 4), True),
                 _general_run, _general_check),
        Workload("oracle-grid", 1, 2, None, _oracle_round, _oracle_run,
                 _oracle_check),
    )
}
