"""Run each workload several times with different seeds and report the spread.

    python3 perfbench/selfcheck.py [--runs 10] [--workloads a,b] [--seconds S]
                                   [--first-seed 1]

For every workload and metric, prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
distance between the quartiles as a share of the median.  End-to-end
metrics are compared with their bound from BENCHMARK.json; a spread above
a third of the bound is flagged.  The share of failed operations must be
the same in every run.  Runs go one after another, never in parallel.
The summary is also written to .perfbench-out/selfcheck.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
    t = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900,
                          cwd=ROOT)
    wall = time.perf_counter() - t
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    for line in lines:
        if line.startswith("FAILED:"):
            print(f"  seed {seed}: {line}")
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary, steady = {}, True
    for workload in args.workloads.split(","):
        results = [_run(workload, args.first_seed + i, args.seconds)
                   for i in range(args.runs)]
        shares = {(r["failed"], r["attempted"]) for r in results}
        fail_shares = {f / a for f, a in shares}
        walls = [r["wall_s"] for r in results]
        print(f"== {workload}: {args.runs} runs, wall {min(walls):.1f}-"
              f"{max(walls):.1f} s, correct in all: "
              f"{all(r['correct'] for r in results)}, failed share(s): "
              f"{sorted(fail_shares)}")
        steady &= len(fail_shares) == 1 and all(r["correct"] for r in results)
        rows = {}
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and not spread < bound / 3:
                flag, steady = "  <-- spread above bound/3", False
            print(f"  {name:36s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
                  f"  spread {100 * spread:6.2f}%"
                  + (f"  bound {100 * bound:g}%" if bound is not None else "")
                  + flag)
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "values": vals}
        summary[workload] = {"metrics": rows, "failed_share": sorted(fail_shares),
                             "walls": walls}
    out = ROOT / ".perfbench-out" / "selfcheck.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1))
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
