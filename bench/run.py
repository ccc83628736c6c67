"""plotkinlab benchmark: one workload per fresh process.

    python3 bench/run.py --workload classical-sim --seed 7 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload, one process each

--trace 0 times the workload and prints its end-to-end metrics; --trace 1
measures every layer (see layers.py) and prints the per-layer metrics.
Either way the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics, the metric names taken from
BENCHMARK.json. The table above it carries every figure, with notes.
Exit status 2 means the checkout holds no plotkinlab sources to measure;
1 means a metric could not be measured at all (every call raised).
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("classical-sim", "ko-sim", "ko-train")
DEFAULT_SEED = 7  # the KO(3,1) desk recipe's seed, whose final loss is stored


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args) -> int:
    """Run each workload in its own fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {workload}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            print(f"{workload}: exit status {proc.returncode}", file=sys.stderr)
            status = proc.returncode
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return status


def import_checkout_package():
    """Import plotkinlab from this checkout's src/ and nowhere else."""
    if not (SRC / "plotkinlab" / "__init__.py").is_file():
        raise ImportError(f"no plotkinlab package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import plotkinlab

    if Path(plotkinlab.__file__).resolve().parent != (SRC / "plotkinlab").resolve():
        raise ImportError(f"plotkinlab imported from {plotkinlab.__file__}, not {SRC}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    # Two compute threads, on any host and whatever the caller's settings:
    # numpy's BLAS pool is set before numpy loads; the simulator uses two
    # workers.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "2"
    try:
        import_checkout_package()
    except ImportError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    from harness import Report
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    report = Report()
    workdir = Path(tempfile.mkdtemp(prefix=".bench_tmp_", dir=ROOT))
    try:
        if args.trace:
            import layers

            layers.run_traced(report, args.workload, args.seed, workdir, reference,
                              ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.json")
            names = [m["name"] for m in spec["per_layer"]]
        else:
            workloads.run_workload(report, args.workload, args.seed, args.seconds,
                                   workdir, reference)
            names = [m["name"] for m in spec["end_to_end"]]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(report.table())
    for problem in report.problems:
        print(f"FAILED CHECK: {problem}")
    missing = [n for n in names if n not in report.metrics]
    if missing:
        print(f"bench: no measurement for {', '.join(missing)}", file=sys.stderr)
        return 1
    print(report.json_line(names))
    return 0


if __name__ == "__main__":
    sys.exit(main())
