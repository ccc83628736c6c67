"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workloads ko-train --seeds 5
    python3 bench/spread.py --seeds 10 --out spread.json

Runs bench/run.py once per (workload, seed), one process at a time, and
prints for each end-to-end metric the median of its values and the
distance between their first and third quartiles as a share of the
median, next to the metric's bound in BENCHMARK.json. A spread is "ok"
below a third of its bound and "wide" below the bound itself. The
benchmark is steady when every spread is ok; it exits with status 1 if
a run was incorrect or a spread reached its bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().split("\n")[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--out", help="write every run's result here as JSON")
    args = p.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {}
    correct = True
    verdicts = []
    for workload in args.workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = run_once(workload, seed, args.seconds)
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
            correct &= result["correct"]
        runs[workload] = results
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            verdict = "ok" if spread < bound / 3 else "wide" if spread < bound else "TOO WIDE"
            verdicts.append(verdict)
            print(f"  {name:<14} median {med:12.6g}  spread {spread:7.4f}  "
                  f"bound {bound:5.3f}  {verdict}")
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1) + "\n")
    within = correct and "TOO WIDE" not in verdicts
    steady = within and set(verdicts) == {"ok"}
    print("steady" if steady else "within bounds, not steady" if within else "NOT within bounds")
    return 0 if within else 1


if __name__ == "__main__":
    sys.exit(main())
