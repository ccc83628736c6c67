"""Timing, percentile, memory and result helpers shared by the workloads."""
from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# Percentiles tried for a ".tail" figure, highest first; the first one with
# at least TAIL_MIN_BEYOND samples above it is reported.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def tail(samples) -> tuple[float, float] | None:
    """(percentile, value) of the highest candidate percentile that has at
    least TAIL_MIN_BEYOND samples beyond it, or None for small samples."""
    n = len(samples)
    for p in TAIL_CANDIDATES:
        if n * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND:
            return p, float(np.percentile(samples, p))
    return None


def median(samples) -> float:
    return float(statistics.median(samples))


def peak_rss_mb() -> float:
    """Peak resident set of this process (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_seconds(src) -> float:
    """Seconds a fresh interpreter spends importing plotkinlab from src: the
    cost every command-line call pays for the package itself.

    numpy is imported first, untimed. Its own import is a fixed cost of the
    dependency, and on a busy 2-vCPU host it takes one of two modes, about
    0.06 s apart, which would drown the package's share. Any other dependency the package pulls in is timed.
    """
    code = ("import time, numpy; t = time.perf_counter(); import plotkinlab; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120, env={**os.environ, "PYTHONPATH": str(src)})
    return float(out.stdout)


def time_call(fn, repeats: int = 5) -> float:
    """Median wall seconds of fn() over repeats calls, after one warm-up.

    The heap is collected before each call, outside the timed region, so
    garbage a call leaves in reference cycles (KO decode tapes) neither
    piles up nor gets collected inside a later call's timing.
    """
    fn()
    times = []
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return median(times)


@dataclass
class Report:
    """Metrics, notes and check outcomes of one benchmark run.

    attempted/failed count units of work (SNR points, training steps,
    checkpoint round trips) that ran and those that raised or failed their
    output check. A failed invariant that is not tied to a unit of work
    (an exact count that moved) goes to ``problems`` and makes the run
    incorrect without changing the counts.
    """

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def add(self, name: str, value: float, unit: str, note: str = "") -> None:
        if name in self.metrics:
            raise KeyError(f"metric {name} reported twice")
        self.metrics[name] = (float(value), unit)
        if note:
            self.notes[name] = note

    def unit_of_work(self, ok: bool, what: str, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            self.problems.append(what)

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def table(self) -> str:
        width = max([len(n) for n in self.metrics] + [10])
        lines = []
        for name, (value, unit) in self.metrics.items():
            shown = f"{int(value):>14d}" if value.is_integer() else f"{value:>14.6g}"
            lines.append(f"{name:<{width}}  {shown} {unit:<8} {self.notes.get(name, '')}".rstrip())
        return "\n".join(lines)

    def json_line(self, names) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {n: {"value": self.metrics[n][0], "unit": self.metrics[n][1]}
                        for n in names},
        })
