"""Benchmark of latticebound: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of the workload's operations until the timed part has
lasted S seconds (and at least the workload's minimum number of rounds),
checks every output, and prints as its last line
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1`` the
per-layer ones, measured by wrapping the calls into each module.

Everything runs single-threaded: the BLAS pool is fixed at one thread
before numpy loads.  Set-up is timed in fresh child interpreters that only
import the package, one after another.  All times are scaled by the
machine speed measured between operations (see Speed).
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_PROBES = 6          # fresh child interpreters timed per run
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import latticebound; "
                "print(time.perf_counter() - t)")


def _parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_package() -> None:
    sys.path.insert(0, str(SRC))
    import latticebound  # noqa: F401


def _probe_setup() -> float:
    """Import time in a fresh interpreter, scaled by the machine speed."""
    before = _kernel_mean(2)
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    factor = 0.5 * (before + _kernel_mean(2)) / REF_NOMINAL_S
    return float(proc.stdout.strip().splitlines()[-1]) / factor


def _untraced_points_per_s(args) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         args.workload, "--seed", str(args.seed), "--seconds",
         str(args.seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["metrics"]["points_per_s"]["value"]


# Shared machines change speed by up to half within seconds (other tenants
# on the same core).  A fixed reference kernel, run between operations for
# about REF_SHARE of the operations' time, measures the current speed, and
# every time is scaled to the speed at which the kernel takes REF_NOMINAL_S.
# The kernel mixes what the solvers do: Python float loops, numpy on short
# and long vectors, and 5x5 LAPACK calls.
REF_NOMINAL_S = 0.008
REF_SHARE = 0.1


def _reference_kernel() -> float:
    import numpy as np
    small = np.linspace(0.01, 3.0, 512)
    big = np.linspace(0.01, 3.0, 65536)
    m5 = np.eye(5) + 0.1
    t = time.perf_counter()
    acc = 0.0
    for i in range(10):
        s = 0.0
        for k in range(1500):
            s += math.sqrt(k + i) * 0.5
        for j in range(30):
            acc += float(np.sqrt(small * (small + j * 1e-3)) @ np.cos(small))
            acc += float(np.linalg.eigvalsh(m5 + j * 1e-3)[0])
        acc += float(((big - i * 1e-3) ** -1) @ big)
    return time.perf_counter() - t


def _kernel_mean(n: int) -> float:
    return statistics.fmean(_reference_kernel() for _ in range(n))


class Speed:
    """Machine speed from the reference kernel, sampled between operations.

    Operations timed between two sampling points are scaled by the mean
    kernel time at those two points over REF_NOMINAL_S.
    """

    def __init__(self) -> None:
        self.owed = 0.0           # kernel time due, REF_SHARE of op time
        self.last = _kernel_mean(3)
        self.factors: list[float] = []

    def add(self, dt: float) -> None:
        self.owed += REF_SHARE * dt

    @property
    def due(self) -> bool:
        return self.owed > 0.0

    def factor(self) -> float:
        """Sample now (at least once, and until no kernel time is due) and
        return the factor for the operations since the last sample."""
        times = [_reference_kernel()]
        self.owed -= times[0]
        while self.owed > 0.0:
            times.append(_reference_kernel())
            self.owed -= times[-1]
        now = statistics.fmean(times)
        f = 0.5 * (self.last + now) / REF_NOMINAL_S
        self.last = now
        self.factors.append(f)
        return f


def _percentile(sorted_vals: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


class Runner:
    """Runs rounds of one workload, timing each operation.

    Times are scaled by the machine speed (see Speed); ``raw_timed`` keeps
    the unscaled sum.
    """

    def __init__(self, wl, seed: int) -> None:
        self.wl = wl
        self.seed = seed
        self.next_round = 0
        self.latencies: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.wrong = 0            # failed operations whose output was wrong
        self.raw_timed = 0.0
        self.speed = Speed()

    def rounds(self, seconds: float, min_rounds: int, tracer=None) -> tuple[float, int]:
        """Whole rounds until ``seconds`` of timed work; returns (scaled s, points)."""
        from workloads import ErrorRow
        records: list[list] = []      # [time, output ok], scaled once closed
        unscaled = 0                  # index of the first unscaled record

        def close_segment() -> None:
            nonlocal unscaled
            f = self.speed.factor()
            for rec in records[unscaled:]:
                rec[0] /= f
            unscaled = len(records)

        raw, points, done = 0.0, 0, 0
        while done < min_rounds or raw < seconds:
            for x in self.wl.make_round(self.seed, self.next_round):
                self.wl.prepare(x)
                self.attempted += 1
                try:
                    t = time.perf_counter()
                    if tracer is None:
                        out = self.wl.run(x)
                    else:
                        with tracer.root(f"op:{self.wl.name}"):
                            out = self.wl.run(x)
                    dt = time.perf_counter() - t
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    self.failures.append(f"{x!r}: {type(exc).__name__}: {exc}")
                    continue
                raw += dt
                points += self.wl.points_per_op
                rec = [dt, False]
                records.append(rec)
                self.speed.add(dt)
                if self.speed.due:
                    close_segment()
                try:
                    why = self.wl.check(x, out)
                except ErrorRow as exc:
                    self.failures.append(str(exc))
                    continue
                if why:
                    self.wrong += 1
                    self.failures.append(why)
                    continue
                rec[1] = True
            self.next_round += 1
            done += 1
        if unscaled < len(records):
            close_segment()
        self.raw_timed += raw
        self.latencies += [t for t, good in records if good]
        return sum(t for t, _ in records), points


def _end_to_end(wl, runner: Runner, timed: float, points: int,
                setup: list[float]) -> dict:
    lat = sorted(runner.latencies)
    metrics = {
        "points_per_s": {"value": points / timed, "unit": "1/s"},
        "op_p50_ms": {"value": 1e3 * statistics.median(lat), "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }
    f = runner.speed.factors
    print(f"machine speed factor: median {statistics.median(f):.4f}, range "
          f"{min(f):.4f}-{max(f):.4f} over {len(f)} segments; unscaled "
          f"points_per_s {points / runner.raw_timed:.6g}")
    if wl.tail_pct is not None and len(lat) - int(wl.tail_pct * len(lat)) >= 10:
        print(f"op_tail_ms (p{100 * wl.tail_pct:g} of {len(lat)} ops): "
              f"{1e3 * _percentile(lat, wl.tail_pct):.4f}")
    return metrics


def _per_layer(tracer, points: int, scale: float, overhead: float) -> dict:
    """Per-layer counts and times per point solved; times divided by the
    run's machine-speed ``scale`` like the end-to-end ones."""
    tot = tracer.totals()

    def ms(name: str, key: str = "total_s") -> float:
        return 1e3 * tot[name][key] / (scale * points) if name in tot else 0.0

    def calls(name: str) -> float:
        return tot[name]["calls"] / points if name in tot else 0.0

    hits, misses = tracer.moment_hits, tracer.moment_misses
    count, per_pt, ratio = "count", "ms", "ratio"
    vals = {
        "core.band_edges_calls": (calls("core.band_edges"), count),
        "core.band_edges_ms": (ms("core.band_edges"), per_pt),
        "integrals.moment_hits": (hits / points, count),
        "integrals.moment_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, ratio),
        "integrals.moment_misses": (misses / points, count),
        "integrals.moment_miss_ms": (ms("integrals.moment_miss"), per_pt),
        "integrals.calibrate_ms": (ms("integrals.calibrate"), per_pt),
        "determinants.secular_entries_calls": (calls("determinants.secular_entries"), count),
        "determinants.secular_entries_ms": (ms("determinants.secular_entries"), per_pt),
        "spectrum.jump_scan_evals": (tracer.jump_scan_evals / points, count),
        "spectrum.threshold_count_calls": (calls("spectrum.threshold_count"), count),
        "spectrum.threshold_count_ms": (ms("spectrum.threshold_count"), per_pt),
        "spectrum.k0_self_ms": (ms("spectrum.k0", "self_s"), per_pt),
        "spectrum.general_self_ms": (ms("spectrum.general", "self_s"), per_pt),
        "oracle.grid_build_ms": (ms("oracle.grid_build"), per_pt),
        "oracle.grid_secular_calls": (calls("oracle.grid_secular"), count),
        "oracle.grid_secular_ms": (ms("oracle.grid_secular"), per_pt),
        "oracle.counts_self_ms": (ms("oracle.counts", "self_s"), per_pt),
        "atlas.sweep_self_ms": (ms("atlas.sweep", "self_s"), per_pt),
        "atlas.classify_ms": (ms("atlas.classify"), per_pt),
        "cli.emit_csv_ms": (ms("cli.emit_csv"), per_pt),
        "cli.csv_bytes": (tracer.csv_bytes / points, count),
        "trace.overhead_pct": (overhead, "%"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in vals.items()}


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        _import_package()
    except ImportError as exc:
        print(f"cannot import latticebound from {SRC}: {exc}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS
    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    print(f"workload={wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} blas_threads={BLAS_THREADS} "
          f"python={sys.version.split()[0]}")

    runner = Runner(wl, args.seed)
    if not args.trace:
        setup = [_probe_setup() for _ in range(SETUP_PROBES)]
        timed, points = runner.rounds(args.seconds, wl.min_rounds)
        metrics = _end_to_end(wl, runner, timed, points, setup)
    else:
        from spans import Tracer
        # The untraced run of the same seed, in a child, is the reference
        # the tracing overhead is stated against.
        base = _untraced_points_per_s(args)
        tracer = Tracer()
        missing = tracer.install()
        if missing:
            print(f"not traced (not found): {', '.join(missing)}")
        t0 = time.perf_counter()
        timed, points = runner.rounds(args.seconds, wl.min_rounds, tracer)
        tracer.uninstall()
        overhead = 100.0 * (base / (points / timed) - 1.0)
        metrics = _per_layer(tracer, points, runner.raw_timed / timed, overhead)
        tracer.write(OUT_DIR / f"trace-{wl.name}-seed{args.seed}.json", t0)

    for why in runner.failures[:5]:
        print(f"FAILED: {why}")
    for k, m in metrics.items():
        print(f"{k} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": runner.wrong == 0,
                      "attempted": runner.attempted,
                      "failed": len(runner.failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
