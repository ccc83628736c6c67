"""Regenerate bench/reference.json, the stored values the benchmark checks.

    python3 bench/make_reference.py

Reference error rates come from REPEATS simulate calls per job, each with
the job's own block count and a seed no benchmark run is expected to use,
so a run's rates are tested against an independent sample ten times its
size. It also stores the KO(3,1) desk recipe's final loss at the recipe
seed and the exact counts that a code change may legitimately move (tape
nodes, checkpoint bytes); the traced run fails on any difference from
them, so a change that moves them must regenerate this file. The op counts
pinned by the project (RM(8,2) 8,461 and KO(8,2) standard 2,448,089) are
kept as they are, never regenerated.
"""
from __future__ import annotations

import gc
import json
import sys
import tempfile
from pathlib import Path

from run import HERE, ROOT, import_checkout_package

REPEATS = 10
REFERENCE_SEED = 1_000_003


def main() -> int:
    import_checkout_package()
    from harness import Report
    import layers
    import workloads

    path = HERE / "reference.json"
    reference = json.loads(path.read_text())
    rates = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        report = Report()
        systems = {**workloads.setup_classical(report, Path(tmp)),
                   **workloads.setup_ko(report, Path(tmp))}
    for job in workloads.CLASSICAL_JOBS + workloads.KO_JOBS:
        totals = [[0, 0] for _ in job.snrs]
        for i in range(REPEATS):
            gc.collect()
            for point, r in zip(totals, workloads.simulate_job(job, systems[job.name],
                                                               REFERENCE_SEED + i)):
                point[0] += r.bit_errors
                point[1] += r.block_errors
        rates[job.name] = {
            "blocks": REPEATS * job.blocks,
            "k": systems[job.name].k,
            "seeds": [REFERENCE_SEED, REFERENCE_SEED + REPEATS - 1],
            "points": [{"snr_db": snr, "bit_errors": be, "block_errors": ble}
                       for snr, (be, ble) in zip(job.snrs, totals)],
        }
        print(job.name, rates[job.name]["points"], flush=True)
    reference["rates"] = rates

    seed = reference["recipe_final_loss"]["seed"]
    _, log = workloads.training.train(workloads.seeded_model(3, 1, "tiny", seed),
                                      workloads.recipe_config(seed))
    reference["recipe_final_loss"]["hex"] = log.losses()[-1].hex()

    # Measure the regenerated counts afresh, with their old values out of
    # the way; the pinned op counts must still hold.
    counts = reference["exact_counts"]
    for name in layers.RECORDED_COUNTS:
        counts.pop(name, None)
    report = Report()
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        layers.trace_ko_layers(report, reference, Path(tmp))
    layers.trace_training(report, seed, reference)
    for name in layers.RECORDED_COUNTS:
        counts[name] = int(report.metrics[name][0])
    if report.problems:
        print("\n".join(report.problems), file=sys.stderr)
        return 1
    path.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
