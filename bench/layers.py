"""Per-layer measurements for the traced run (``--trace 1``).

The layers are the modules of plotkinlab, measured from outside: spans
around ``CodeSystem.encode``/``decode`` inside real simulate calls, and
timed calls into each module's public functions at the shapes the timed
workloads use. Every traced run measures every layer, whatever its
workload, and adds the tracing overhead of its own workload's jobs.
"""
from __future__ import annotations

import dataclasses
import gc
import json
import time
import tracemalloc

import numpy as np

from plotkinlab import autodiff as ad
from plotkinlab import training
from plotkinlab.bits import bpsk
from plotkinlab.channel import awgn, channel_llr, rayleigh_fast, snr_to_sigma, transmit
from plotkinlab.codes import FIRST_ORDER, FROZEN, tree_encode
from plotkinlab.decoding import HARD_MAP, SOFT_MAP, dumer_decode, fht_map_decode_rm1, lse, softmap_forward
from plotkinlab.evaluation import count_decode_ops, ko_system, rm_system
from plotkinlab.ko import ko_decode, ko_encode, load_checkpoint, save_checkpoint

from harness import Report, median, time_call
from workloads import (
    CLASSICAL_JOBS,
    KO_INIT_SEED,
    KO_JOBS,
    checkpoint_round_trip,
    classical_system,
    ko82_train_config,
    recipe_config,
    seeded_model,
    setup_classical,
    setup_ko,
    simulate_job,
    timed_train,
)

CHUNK = 10000  # classical kernels run at one simulator chunk
KO_BATCH = {"std": 300, "tiny": 2000}  # ko-sim chunk per model
SNR_DB = -4.0
# ko-train's two phases, each traced as a whole train() call.
TRAIN_PHASES = (("ko82", 8, 2, "standard", ko82_train_config),
                ("ko31", 3, 1, "tiny", recipe_config))
# Exact counts that make_reference.py regenerates. They may legitimately
# change (a fused op, a new checkpoint field), but only together with
# reference.json: a run fails on any difference from the stored value.
RECORDED_COUNTS = ("autodiff.tape_nodes_per_step.ko82", "autodiff.tape_nodes_per_step.ko31",
                   "ko.checkpoint_bytes")


class Spans:
    """In-memory spans (name, start, end, parent) around a system's calls."""

    def __init__(self):
        self.records: list[tuple[str, float, float, str]] = []

    def wrap(self, system, parent: str):
        def timed(name, fn):
            def call(*args):
                start = time.perf_counter()
                out = fn(*args)
                self.records.append((name, start, time.perf_counter(), parent))
                return out
            return call

        return dataclasses.replace(system, encode=timed("encode", system.encode),
                                   decode=timed("decode", system.decode))

    def total(self, name: str, parent: str) -> float:
        return sum(end - start for n, start, end, p in self.records
                   if n == name and p == parent)


def _counts(results):
    return [(r.blocks, r.bit_errors, r.block_errors) for r in results]


def _timed_sim(job, system, seed, threads):
    gc.collect()
    start = time.perf_counter()
    results = simulate_job(job, system, seed, threads)
    return time.perf_counter() - start, _counts(results)


def trace_simulations(report: Report, systems: dict, seed: int, spans: Spans) -> dict:
    """Stage shares at one thread for every simulated system, the
    two-thread speed-up of the classical ones, and the (traced, untraced)
    seconds of each job, for the overhead figure.

    Each job runs a warm-up call, then untraced, traced, traced and
    untraced calls: the first big call after set-up pays fresh-memory page
    faults, and the mirrored order cancels drift between the calls.
    """
    traced_and_plain = {}
    for job in CLASSICAL_JOBS + KO_JOBS:
        system = systems[job.name]
        traced_system = spans.wrap(system, job.name)
        simulate_job(job, system, seed, 1)
        runs = [_timed_sim(job, sys_, seed, 1)
                for sys_ in (system, traced_system, traced_system, system)]
        plain_s = runs[0][0] + runs[3][0]
        traced_s = runs[1][0] + runs[2][0]
        traced_and_plain[job.name] = (traced_s, plain_s)
        encode = spans.total("encode", job.name)
        decode = spans.total("decode", job.name)
        for stage, share in (("encode", encode), ("channel", traced_s - encode - decode),
                             ("decode", decode)):
            report.add(f"evaluation.stage_share.{stage}.{job.name}", share / traced_s, "share")
        counts = runs[0][1]
        report.require(all(r[1] == counts for r in runs),
                       f"{job.name}: counts differ between traced and untraced calls")
        if job in CLASSICAL_JOBS:
            two_s, two_counts = _timed_sim(job, system, seed, 2)
            report.add(f"evaluation.thread_speedup.{job.name}", plain_s / 2 / two_s, "ratio",
                       f"1 thread {plain_s / 2:.3f} s, 2 threads {two_s:.3f} s")
            report.require(two_counts == counts, f"{job.name}: counts differ between 1 and 2 threads")
    return traced_and_plain


def trace_classical_kernels(report: Report, reference: dict) -> None:
    rng = np.random.default_rng(0)
    sigma = snr_to_sigma(SNR_DB)
    rm82 = rm_system(8, 2, "dumer").tree
    polar64 = classical_system("polar64_rayleigh").tree
    msgs82 = rng.integers(0, 2, (CHUNK, rm82.k), dtype=np.uint8)
    msgs64 = rng.integers(0, 2, (CHUNK, polar64.k), dtype=np.uint8)
    per_block_us = 1e6 / CHUNK

    report.add("codes.tree_encode_us_per_block.rm82",
               time_call(lambda: tree_encode(rm82, msgs82)) * per_block_us, "us")
    report.add("codes.tree_encode_us_per_block.polar64",
               time_call(lambda: tree_encode(polar64, msgs64)) * per_block_us, "us")
    x82 = bpsk(tree_encode(rm82, msgs82))
    x64 = bpsk(tree_encode(polar64, msgs64))
    report.add("channel.transmit_us_per_block.awgn256",
               time_call(lambda: transmit(x82, awgn(sigma), rng)) * per_block_us, "us")
    report.add("channel.transmit_us_per_block.rayleigh64",
               time_call(lambda: transmit(x64, rayleigh_fast(sigma), rng)) * per_block_us, "us")

    llr82 = channel_llr(transmit(x82, awgn(sigma), rng), sigma)
    llr64 = channel_llr(transmit(x64, rayleigh_fast(sigma), rng), sigma)
    for name, tree, llr, rule, repeats in (("rm82_hard", rm82, llr82, HARD_MAP, 3),
                                           ("rm82_soft", rm82, llr82, SOFT_MAP, 2),
                                           ("polar64", polar64, llr64, HARD_MAP, 5)):
        report.add(f"decoding.dumer_decode_us_per_block.{name}",
                   time_call(lambda: dumer_decode(tree, llr, rule), repeats) * per_block_us, "us")
    half = llr82.shape[1] // 2
    a, b = llr82[:, :half], llr82[:, half:]
    report.add("decoding.lse_ns_per_elem", time_call(lambda: lse(a, b)) * 1e9 / a.size, "ns",
               f"({CHUNK}, {half}) halves at the RM(8,2) root")

    leaves = [lf for lf in rm82.leaves() if lf.kind != FROZEN]
    feats = {lf: rng.standard_normal((CHUNK, lf.length)) * 4.0 for lf in leaves}
    fht_s = sum(time_call(lambda lf=lf: fht_map_decode_rm1(feats[lf], lf.m))
                for lf in leaves if lf.kind == FIRST_ORDER)
    report.add("decoding.fht_map_us_per_block.rm82_leaves", fht_s * per_block_us, "us",
               "sum over the first-order leaves")
    soft_s = sum(time_call(lambda lf=lf: softmap_forward(lf, feats[lf])) for lf in leaves)
    report.add("decoding.softmap_forward_us_per_block.rm82_leaves", soft_s * per_block_us, "us",
               "sum over the non-frozen leaves")

    ops = [count_decode_ops(rm_system(8, 2, "dumer")).total for _ in range(2)]
    _exact(report, "decoding.ops_per_block.rm82", ops, reference)


def _exact(report: Report, name: str, values: list[int], reference: dict) -> None:
    """An exact count: it must repeat within the run and equal the value
    stored in reference.json, when one is stored."""
    report.add(name, values[0], "count")
    report.require(len(set(values)) == 1, f"{name} differs between two measurements: {values}")
    stored = reference["exact_counts"].get(name)
    if stored is not None:
        report.require(values[0] == stored, f"{name} = {values[0]}, stored as {stored}")


def trace_ko_layers(report: Report, reference: dict, workdir) -> None:
    rng = np.random.default_rng(1)
    sigma = snr_to_sigma(SNR_DB)
    models = {"std": seeded_model(8, 2, "standard", KO_INIT_SEED),
              "tiny": seeded_model(8, 2, "tiny", KO_INIT_SEED)}
    for profile, model in models.items():
        batch = KO_BATCH[profile]
        msgs = rng.integers(0, 2, (batch, model.k), dtype=np.uint8)
        x = ko_encode(model, msgs)
        y = x + sigma * rng.standard_normal(x.shape)
        report.add(f"ko.encode_us_per_block.{profile}",
                   time_call(lambda: ko_encode(model, msgs), 3) * 1e6 / batch, "us")
        report.add(f"ko.decode_us_per_block.{profile}",
                   time_call(lambda: ko_decode(model, y), 3) * 1e6 / batch, "us")

    std = models["std"]
    root = std.tree.root.node_id
    rows = KO_BATCH["std"] * std.n // 2
    hidden = rng.standard_normal((rows, std.dec_left[root].widths[1]))
    report.add("autodiff.selu_ns_per_elem",
               time_call(lambda: ad.selu(ad.const(hidden))) * 1e9 / hidden.size, "ns",
               f"({rows}, {hidden.shape[1]}) root hidden layer of KO(8,2) standard")
    for fan_in, block in ((2, std.dec_left[root]), (4, std.dec_right[root])):
        inputs = ad.const(rng.standard_normal((rows, fan_in)))
        params = [ad.const(p) for p in block.parameters()]
        report.add(f"autodiff.dense_block_apply_us_per_row.{fan_in}in",
                   time_call(lambda: block.apply(inputs, params)) * 1e6 / rows, "us",
                   f"{rows} rows through {block.widths}")

    # Memory of one ko-sim chunk: peak while ko_decode runs, and what is
    # still allocated when it returns, before any collection.
    batch = KO_BATCH["std"]
    y = bpsk(rng.integers(0, 2, (batch, std.n), dtype=np.uint8)) \
        + sigma * rng.standard_normal((batch, std.n))
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ko_decode(std, y)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    gc.collect()
    per_1k = 1000.0 / batch / 1e6
    report.add("ko.decode_peak_alloc_mb_per_1k.std", (peak - base) * per_1k, "MB",
               f"tracemalloc over a {batch}-block decode, scaled to 1,000 blocks")
    report.add("ko.decode_retained_mb_per_1k.std", (held - base) * per_1k, "MB",
               "still allocated after ko_decode returns, before gc")

    ops = [count_decode_ops(ko_system(std)).total for _ in range(2)]
    _exact(report, "ko.ops_per_block.std", ops, reference)

    path = workdir / "layer_std.json"
    report.add("ko.checkpoint_save_ms", time_call(lambda: save_checkpoint(std, path)) * 1e3, "ms")
    report.add("ko.checkpoint_load_ms", time_call(lambda: load_checkpoint(path)) * 1e3, "ms")
    sizes = []
    for _ in range(2):
        _, same, size = checkpoint_round_trip(seeded_model(8, 2, "standard", KO_INIT_SEED),
                                              workdir, "layer_bytes")
        report.require(same, "KO(8,2) standard checkpoint save-load-save not byte-identical")
        sizes.append(size)
    _exact(report, "ko.checkpoint_bytes", sizes, reference)


def tape_nodes(loss: ad.Node) -> int:
    """Distinct nodes reachable from the loss through parent links."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop().parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class PhaseClock:
    """Stand-ins for the backward and adam_step that train() calls. Each
    call is stamped, and the first loss's tape is counted outside the
    stamps.

    With the log's step stamps, step i splits into forward (the step's
    start to backward's entry), backward (the backward call) and update
    (backward's exit to the step's log stamp: gradient clipping, Adam and
    the gradient norm)."""

    def __init__(self):
        self.backward_calls: list[tuple[float, float, float]] = []
        self.adam_s: list[float] = []
        self.nodes: int | None = None

    def swaps(self) -> dict:
        backward, adam_step = training.backward, training.adam_step

        def timed_backward(loss):
            start = time.perf_counter()
            backward(loss)
            end = time.perf_counter()
            if self.nodes is None:
                self.nodes = tape_nodes(loss)
            self.backward_calls.append((start, end, time.perf_counter()))

        def timed_adam_step(*args):
            start = time.perf_counter()
            adam_step(*args)
            self.adam_s.append(time.perf_counter() - start)

        return {"backward": timed_backward, "adam_step": timed_adam_step}

    def phases(self, stamps) -> dict[str, list[float]]:
        """Per-step seconds of each phase, from the log's step stamps."""
        out = {"forward": [], "backward": [], "update": []}
        for (entry, exit_, resume), begin, end in zip(self.backward_calls, stamps, stamps[1:]):
            out["forward"].append(entry - begin)
            out["backward"].append(exit_ - entry)
            out["update"].append(end - resume)
        return out


def cycle_freed_mb(model, cfg) -> float:
    """MB that an explicit gc.collect() frees right after one train() step,
    by tracemalloc: memory that only reference cycles still hold. (The
    process RSS barely moves, because the allocator keeps the freed pages
    for reuse; peak RSS grows with the steps run instead.)"""
    gc.collect()
    tracemalloc.start()
    try:
        timed_train(model, dataclasses.replace(cfg, epochs=1, dec_steps=1, enc_steps=0))
        held = tracemalloc.get_traced_memory()[0]
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return freed / 1e6


def trace_training(report: Report, seed: int, reference: dict) -> tuple[float, float]:
    """Phase times, tape size and Adam time inside train() itself, and the
    GC behaviour of ko-train's two phases.

    Each phase runs as train() on a fresh seeded model four times: plain,
    wrapped by a PhaseClock, wrapped, plain, so drift between the calls
    cancels in the overhead figure. Returns (wrapped s, plain s) summed
    over both phases.
    """
    wrapped_s = plain_s = 0.0
    gen2 = 0
    for name, m, r, profile, config in TRAIN_PHASES:
        cfg = config(seed)
        clocks, losses, phases = [], [], {"forward": [], "backward": [], "update": []}
        for wrapped in (False, True, True, False):
            clock = PhaseClock()
            gc.collect()
            gen2_before = gc.get_stats()[2]["collections"]
            start = time.perf_counter()
            log, _ = timed_train(seeded_model(m, r, profile, seed), cfg,
                                 clock.swaps() if wrapped else None)
            elapsed = time.perf_counter() - start
            if not clocks and not wrapped:
                gen2 += gc.get_stats()[2]["collections"] - gen2_before
            losses.append(log.losses())
            if wrapped:
                wrapped_s += elapsed
                clocks.append(clock)
                for phase, times in clock.phases(log.stamps).items():
                    phases[phase] += times
            else:
                plain_s += elapsed
        report.require(all(x == losses[0] for x in losses),
                       f"{name}: wrapped train() losses differ from plain train()")
        steps = f"median of {len(phases['forward'])} steps, batch {cfg.batch_size}"
        for phase, times in phases.items():
            report.add(f"training.step_{phase}_ms.{name}", median(times) * 1e3, "ms", steps)
        report.add(f"autodiff.backward_ms_per_step.{name}", median(phases["backward"]) * 1e3,
                   "ms", steps)
        report.add(f"autodiff.adam_step_us.{name}",
                   median([t for c in clocks for t in c.adam_s]) * 1e6, "us", steps)
        _exact(report, f"autodiff.tape_nodes_per_step.{name}", [c.nodes for c in clocks],
               reference)
        if name == "ko82":
            report.add("training.cycle_freed_mb",
                       cycle_freed_mb(seeded_model(m, r, profile, seed), cfg), "MB",
                       "freed by gc.collect() after one batch-50 step (tracemalloc)")
    report.add("training.gc_gen2_collections", gen2, "count",
               "during one plain train() of each ko-train phase")
    gc.collect()
    return wrapped_s, plain_s


def run_traced(report: Report, workload: str, seed: int, workdir, reference: dict,
               spans_path) -> None:
    """Every per-layer metric, plus the tracing overhead of `workload`:
    its jobs' traced time over their untraced time at one thread (for
    ko-train, train() wrapped by a PhaseClock over plain train())."""
    systems = {**setup_classical(report, workdir), **setup_ko(report, workdir)}
    spans = Spans()
    pairs = trace_simulations(report, systems, seed, spans)
    trace_classical_kernels(report, reference)
    trace_ko_layers(report, reference, workdir)
    train_pair = trace_training(report, seed, reference)
    if workload == "ko-train":
        traced, plain = train_pair
    else:
        jobs = CLASSICAL_JOBS if workload == "classical-sim" else KO_JOBS
        traced = sum(pairs[job.name][0] for job in jobs)
        plain = sum(pairs[job.name][1] for job in jobs)
    report.add("bench.trace_overhead_ratio", traced / plain, "ratio",
               f"traced {traced:.4f} s over untraced {plain:.4f} s")
    spans_path.parent.mkdir(exist_ok=True)
    spans_path.write_text(json.dumps({"spans": spans.records}) + "\n")
