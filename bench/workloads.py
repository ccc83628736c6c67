"""The three workloads: their jobs, set-up, timed loop and output checks.

Each workload runs its jobs in a fixed order. A job repeats one call,
back to back, for an equal share of the run's time (at least once). In a
simulation job, the call is one ``simulate_error_rates`` with
``min_block_errors=0`` and ``max_blocks = min_blocks``, so the work it
does never depends on how well the decoder decodes. In a training job, it
is one ``train`` on a fresh seeded model. Every call repeats the same
inputs, so it must reproduce the first call's counts and losses exactly.
"""
from __future__ import annotations

import gc
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import plotkinlab
from plotkinlab import training
from plotkinlab.codes import build_rm_tree, polar_spec
from plotkinlab.evaluation import ko_system, polar_system, rm_system, simulate_error_rates
from plotkinlab.ko import build_ko_model, load_checkpoint, save_checkpoint
from plotkinlab.training import TrainConfig, TrainLog

from harness import Report, import_seconds, median, peak_rss_mb, tail

SRC = Path(plotkinlab.__file__).resolve().parent.parent

THREADS = 2  # simulator worker threads, the CLI default on a 2-vCPU box
SETUP_REPEATS = 11
# Init seed of the seeded KO models that ko-sim simulates; their reference
# error rates in reference.json hold for this seed only.
KO_INIT_SEED = 1


@dataclass(frozen=True)
class SimJob:
    name: str
    channel: str
    snrs: tuple[float, ...]
    blocks: int  # per SNR point

    @property
    def total_blocks(self) -> int:
        return self.blocks * len(self.snrs)


# 20,000 blocks per point is two simulator chunks, so both threads work.
CLASSICAL_JOBS = (
    SimJob("rm82_hard", "awgn", (-5.0, -4.0, -3.0), 20000),
    SimJob("rm82_soft", "awgn", (-4.0,), 20000),
    SimJob("polar64_rayleigh", "rayleigh", (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0), 20000),
)
# KO(8,2)-standard inference keeps a full autodiff tape, about 1.2 MB per
# block, so its points stay at one small chunk each.
KO_JOBS = (
    SimJob("ko82_std", "awgn", (-4.0, -3.0, -2.0), 300),
    SimJob("ko82_tiny", "awgn", (-4.0, -3.0, -2.0), 2000),
    SimJob("ko31_tiny", "awgn", (-2.0, 0.0, 2.0), 40000),
)
KO_MODELS = {"ko82_std": (8, 2, "standard"), "ko82_tiny": (8, 2, "tiny"),
             "ko31_tiny": (3, 1, "tiny")}


def ko82_train_config(seed: int) -> TrainConfig:
    """KO(8,2) standard alternating training at batch 50, 8 + 4 steps."""
    return TrainConfig(epochs=1, dec_steps=8, enc_steps=4, batch_size=50, seed=seed)


def recipe_config(seed: int) -> TrainConfig:
    """The README desk recipe: 20 epochs of 50 decoder + 10 encoder steps,
    batch 500, both phases at 0 dB."""
    return TrainConfig(epochs=20, dec_steps=50, enc_steps=10, snr_dec=0.0,
                       snr_enc=0.0, batch_size=500, seed=seed)


def seeded_model(m: int, r: int, profile: str, seed: int):
    return build_ko_model(build_rm_tree(m, r), {"family": "rm", "m": m, "r": r},
                          profile, seed=seed)


def classical_system(name: str):
    if name == "rm82_hard":
        return rm_system(8, 2, "dumer")
    if name == "rm82_soft":
        return rm_system(8, 2, "dumer-soft")
    if name == "polar64_rayleigh":
        return polar_system(polar_spec(64, 7))
    raise ValueError(f"unknown classical job {name!r}")


def checkpoint_round_trip(model, workdir: Path, tag: str):
    """save -> load -> save; returns (loaded model, byte-identical?, bytes)."""
    first = workdir / f"{tag}.json"
    again = workdir / f"{tag}.again.json"
    save_checkpoint(model, first)
    loaded = load_checkpoint(first)
    save_checkpoint(loaded, again)
    data = first.read_bytes()
    return loaded, data == again.read_bytes(), len(data)


def simulate_job(job: SimJob, system, seed: int, threads: int = THREADS):
    return simulate_error_rates(system, job.channel, list(job.snrs), job.blocks,
                                min_block_errors=0, max_blocks=job.blocks,
                                seed=seed, threads=threads)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def within_binomial(p_obs: float, n_obs: int, p_ref: float, n_ref: int, z: float) -> bool:
    """Two-sample binomial test at z pooled standard errors."""
    pooled = (p_obs * n_obs + p_ref * n_ref) / (n_obs + n_ref)
    bound = z * math.sqrt(pooled * (1.0 - pooled) * (1.0 / n_obs + 1.0 / n_ref))
    return abs(p_obs - p_ref) <= bound


def check_rates(job: SimJob, results, reference: dict) -> list[str]:
    """Problems with one simulate call's counts against the stored rates.

    BER is tested with blocks, not bits, as trials: the per-block bit error
    fraction lies in [0, 1], so its variance is at most p(1-p) per block and
    the bound stays valid although bit errors cluster within blocks.
    """
    ref = reference["rates"][job.name]
    z = reference["binomial_z"]
    problems = []
    if [r.snr_db for r in results] != list(job.snrs):
        return [f"{job.name}: simulated SNR points {[r.snr_db for r in results]}"]
    for r, point in zip(results, ref["points"]):
        if r.blocks != job.blocks:
            problems.append(f"{job.name} @ {r.snr_db} dB: {r.blocks} blocks, expected {job.blocks}")
            continue
        ref_blocks = ref["blocks"]
        ref_ber = point["bit_errors"] / (ref_blocks * ref["k"])
        ref_bler = point["block_errors"] / ref_blocks
        for label, obs, want in (("BER", r.ber, ref_ber), ("BLER", r.bler, ref_bler)):
            if not within_binomial(obs, r.blocks, want, ref_blocks, z):
                problems.append(f"{job.name} @ {r.snr_db} dB: {label} {obs:.6g} outside "
                                f"{z} binomial s.e. of reference {want:.6g}")
    return problems


def _failure(report: Report, what: str, count: int) -> None:
    traceback.print_exc(file=sys.stderr)
    report.unit_of_work(False, what, count)


# ---------------------------------------------------------------------------
# Simulation workloads (classical-sim, ko-sim)
# ---------------------------------------------------------------------------

def setup_classical(report: Report, workdir: Path) -> dict:
    del report, workdir
    return {job.name: classical_system(job.name) for job in CLASSICAL_JOBS}


def setup_ko(report: Report, workdir: Path) -> dict:
    """Seeded KO models, reloaded through a checkpoint round trip."""
    systems = {}
    for name, (m, r, profile) in KO_MODELS.items():
        model = seeded_model(m, r, profile, KO_INIT_SEED)
        loaded, same, _ = checkpoint_round_trip(model, workdir, name)
        report.unit_of_work(same, f"{name}: checkpoint save-load-save not byte-identical")
        systems[name] = ko_system(loaded)
    return systems


def _warm(jobs, systems: dict) -> dict:
    """Fill lazy caches (leaf codebooks, Hadamard tables) before timing."""
    for job in jobs:
        simulate_error_rates(systems[job.name], job.channel, [job.snrs[0]], 16,
                             min_block_errors=0, max_blocks=16, seed=0)
    return systems


def timed_setup(report: Report, build):
    """Set up SETUP_REPEATS times and report the median; returns the last
    build. One set-up is a fresh interpreter's import of plotkinlab (see
    import_seconds) plus build(), which makes the workload's systems or
    models."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        imported = import_seconds(SRC)
        start = time.perf_counter()
        built = build()
        times.append(imported + time.perf_counter() - start)
    report.add("setup_s", median(times), "s",
               f"median of {SETUP_REPEATS} set-ups (import + build)")
    return built


def run_sim_workload(report: Report, jobs, systems: dict, seed: int,
                     seconds: float, reference: dict) -> dict[str, list[float]]:
    """Give each job an equal share of `seconds`, repeating its simulate
    call (at least once) until the share is used; returns each job's
    per-call ms per 1,000 blocks.

    A job's calls run back to back: interleaving jobs leaves each call a
    heap shaped by the others, which made KO(8,2)-standard call times
    bimodal (about 1.5 s and 2.1 s per 1,000 blocks).
    """
    ms_per_1k = {job.name: [] for job in jobs}
    for job in jobs:
        first = None
        deadline = time.perf_counter() + seconds / len(jobs)
        calls = 0
        while calls == 0 or time.perf_counter() < deadline:
            calls += 1
            # Each call starts from a collected heap: retained KO tapes only
            # die in a generation-2 collection (see NOTES.md).
            gc.collect()
            start = time.perf_counter()
            try:
                results = simulate_job(job, systems[job.name], seed)
            except Exception as exc:  # a failing call is a failed unit, not a crash
                _failure(report, f"{job.name}: {exc!r}", len(job.snrs))
                continue
            elapsed = time.perf_counter() - start
            ms_per_1k[job.name].append(1e6 * elapsed / job.total_blocks)
            counts = [(r.blocks, r.bit_errors, r.block_errors) for r in results]
            first = first or counts
            problems = check_rates(job, results, reference)
            if counts != first:
                problems.append(f"{job.name}: call {calls} counts {counts} != first call {first}")
            for problem in problems:
                print(problem, file=sys.stderr)
            report.unit_of_work(not problems, "; ".join(problems), len(job.snrs))
    return ms_per_1k


def report_sim_jobs(report: Report, jobs, ms_per_1k: dict) -> None:
    for slot, job in enumerate(jobs, start=1):
        samples = ms_per_1k[job.name]
        if not samples:
            report.require(False, f"{job.name}: every simulate call raised")
            continue
        ms = median(samples)
        report.add(f"job{slot}_ms", ms, "ms",
                   f"{job.name}: ms per 1,000 blocks, median of {len(samples)} calls "
                   f"of {job.total_blocks} blocks")
        report.add(f"{job.name}_blocks_per_s", 1e6 / ms, "blocks/s")


# ---------------------------------------------------------------------------
# Training workload (ko-train)
# ---------------------------------------------------------------------------

@dataclass
class _StampedLog(TrainLog):
    """TrainLog that stamps the wall clock when train() creates it and as
    each step is logged, so step i runs from stamps[i] to stamps[i + 1]."""

    stamps: list[float] = field(default_factory=lambda: [time.perf_counter()])

    def add(self, *args) -> None:
        super().add(*args)
        self.stamps.append(time.perf_counter())


def timed_train(model, cfg: TrainConfig, swaps: dict | None = None):
    """Run ``train`` and return (log, per-step wall ms).

    train() keeps no per-step clock, so the log class it instantiates is
    swapped for a _StampedLog. `swaps` replaces further names that train()
    looks up in its module while it runs (the traced run wraps backward
    and adam_step this way).
    """
    swaps = {"TrainLog": _StampedLog, **(swaps or {})}
    originals = {name: getattr(training, name) for name in swaps}
    for name, value in swaps.items():
        setattr(training, name, value)
    try:
        _, log = training.train(model, cfg)
    finally:
        for name, value in originals.items():
            setattr(training, name, value)
    stamps = log.stamps
    return log, [1e3 * (b - a) for a, b in zip(stamps, stamps[1:])]


def train_steps(cfg: TrainConfig) -> int:
    return cfg.epochs * (cfg.dec_steps + cfg.enc_steps)


def setup_train(seed: int):
    return (seeded_model(8, 2, "standard", seed), seeded_model(3, 1, "tiny", seed))


def run_train_job(report: Report, name: str, model, cfg: TrainConfig, workdir: Path,
                  first_losses: dict, final_loss: float | None) -> list[float]:
    """One train() call with its output checks; returns per-step ms, or
    nothing if the call raised. final_loss, when given, is the stored
    final loss the call must reproduce bit for bit."""
    steps = train_steps(cfg)
    try:
        log, step_ms = timed_train(model, cfg)
        _, same, _ = checkpoint_round_trip(model, workdir, f"{name}_trained")
    except Exception as exc:  # a failing run is failed units, not a crash
        _failure(report, f"{name}: {exc!r}", steps)
        return []
    losses = log.losses()
    problems = []
    if len(step_ms) != steps or len(losses) != steps:
        problems.append(f"{name}: {len(step_ms)} steps timed, {len(losses)} logged, {steps} run")
    if not all(math.isfinite(x) for x in losses):
        problems.append(f"{name}: non-finite training loss")
    if not same:
        problems.append(f"{name}: trained checkpoint save-load-save not byte-identical")
    if losses != first_losses.setdefault(name, losses):
        problems.append(f"{name}: losses differ from the first run with the same seed")
    if final_loss is not None and losses[-1:] != [final_loss]:
        problems.append(f"{name}: final loss {losses[-1:]} != stored {final_loss.hex()}")
    for problem in problems:
        print(problem, file=sys.stderr)
    report.unit_of_work(not problems, "; ".join(problems), steps)
    return step_ms


def run_train_workload(report: Report, seed: int, seconds: float, workdir: Path,
                       reference: dict) -> None:
    timed_setup(report, lambda: setup_train(seed))
    stored = reference["recipe_final_loss"]
    recipe_loss = float.fromhex(stored["hex"]) if seed == stored["seed"] else None
    phases = (("ko82", (8, 2, "standard"), ko82_train_config(seed), None),
              ("ko31", (3, 1, "tiny"), recipe_config(seed), recipe_loss))
    step_ms = {}
    first_losses: dict[str, list] = {}
    for name, (m, r, profile), cfg, final_loss in phases:
        step_ms[name] = []
        deadline = time.perf_counter() + seconds / len(phases)
        runs = 0
        while runs == 0 or time.perf_counter() < deadline:
            runs += 1
            model = seeded_model(m, r, profile, seed)
            gc.collect()
            step_ms[name] += run_train_job(report, name, model, cfg, workdir,
                                           first_losses, final_loss)

    stats = {}
    for name, samples in step_ms.items():
        if not samples:
            report.require(False, f"{name}: every training run raised")
            continue
        p, tail_ms = tail(samples) or (50.0, median(samples))
        stats[name] = (median(samples), p, tail_ms, len(samples))
        report.add(f"{name}_train_step_ms.p50", stats[name][0], "ms", f"of {len(samples)} steps")
        report.add(f"{name}_train_step_ms.tail", tail_ms, "ms", f"p{p:g} of {len(samples)} steps")
    for slot, (name, col) in enumerate((("ko82", 0), ("ko31", 0), ("ko31", 2)), start=1):
        if name in stats:
            what = "p50" if col == 0 else f"tail (p{stats[name][1]:g})"
            report.add(f"job{slot}_ms", stats[name][col], "ms",
                       f"{name}_train_step_ms {what} of {stats[name][3]} steps")


def run_workload(report: Report, workload: str, seed: int, seconds: float,
                 workdir: Path, reference: dict) -> None:
    if workload == "ko-train":
        run_train_workload(report, seed, seconds, workdir, reference)
    else:
        jobs, setup = ((CLASSICAL_JOBS, setup_classical) if workload == "classical-sim"
                       else (KO_JOBS, setup_ko))
        systems = timed_setup(report, lambda: _warm(jobs, setup(report, workdir)))
        ms_per_1k = run_sim_workload(report, jobs, systems, seed, seconds, reference)
        report_sim_jobs(report, jobs, ms_per_1k)
    report.add("peak_rss_mb", peak_rss_mb(), "MB", "getrusage max RSS of this process")
    report.add("failed_frac", report.failed / max(report.attempted, 1), "ratio",
               f"{report.failed} of {report.attempted} units failed")
