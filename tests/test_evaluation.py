import dataclasses
import tracemalloc

import numpy as np
import pytest

from plotkinlab import evaluation
from plotkinlab.bits import bpsk
from plotkinlab.channel import make_channel, snr_to_sigma, transmit
from plotkinlab.codes import (
    build_polar_tree,
    build_rm_tree,
    enumerate_codebook,
    polar_spec,
    tree_encode,
)
from plotkinlab.evaluation import (
    DECODERS,
    RANDOM_PAIRS,
    CodeSystem,
    OpCounter,
    bler_decomposition,
    count_decode_ops,
    gaussian_codebook,
    ko_system,
    pairwise_distance_histogram,
    polar_system,
    results_to_csv,
    rm_system,
    simulate_error_rates,
    standard_error,
    tree_decode_ops,
)
from plotkinlab.ko import build_ko_model


def random_guess_system(k: int, n: int, seed: int = 0) -> CodeSystem:
    """Control decoder that guesses uniformly; BER calibrates to one half."""
    state = np.random.default_rng(seed)

    def encode(msgs):
        return bpsk(msgs) if k == n else np.ones((msgs.shape[0], n))

    def decode(y, sigma):
        return state.integers(0, 2, size=(y.shape[0], k), dtype=np.uint8)

    return CodeSystem("random", "guess", k, n, encode, decode, decode_ops=OpCounter)


class TestStandardError:
    def test_formula(self):
        assert standard_error(0.25, 400) == pytest.approx(np.sqrt(0.25 * 0.75 / 400))

    def test_zero_rate(self):
        assert standard_error(0.0, 100) == 0.0


class TestSimulate:
    def test_noiseless_is_error_free(self):
        system = rm_system(3, 1)
        (res,) = simulate_error_rates(system, "awgn", [60.0], min_blocks=10000,
                                      min_block_errors=1, seed=0)
        assert res.bit_errors == 0 and res.block_errors == 0
        assert res.ber == 0.0 and res.bler == 0.0

    def test_random_guess_calibrates_to_half(self):
        system = random_guess_system(k=8, n=8, seed=1)
        (res,) = simulate_error_rates(system, "awgn", [0.0], min_blocks=20000,
                                      min_block_errors=10**9,
                                      max_blocks=20000, seed=2)
        assert abs(res.ber - 0.5) <= 3 * res.ber_se

    def test_reproducible(self):
        system = rm_system(3, 1)
        a = simulate_error_rates(system, "awgn", [0.0, 2.0], min_blocks=5000, seed=3)
        b = simulate_error_rates(system, "awgn", [0.0, 2.0], min_blocks=5000, seed=3)
        assert a == b

    def test_thread_count_does_not_change_results(self):
        system = rm_system(3, 1)
        kwargs = dict(min_blocks=30000, min_block_errors=50, seed=4)
        a = simulate_error_rates(system, "awgn", [4.0], threads=1, **kwargs)
        b = simulate_error_rates(system, "awgn", [4.0], threads=4, **kwargs)
        assert a == b

    # (blocks, bit errors, block errors) per SNR point, recorded with the
    # first implementation of the classical kernels (the np.stack transform,
    # the matmul first-order encoder, the arithmetic BPSK map and channel).
    # Kernel rewrites must reproduce them exactly at any thread count.
    @pytest.mark.parametrize("system, channel, grid, counts", [
        (lambda: rm_system(8, 2, "dumer"), "awgn", [-5.0, -3.0],
         [(1000, 8911, 547), (1000, 1601, 101)]),
        (lambda: rm_system(8, 2, "dumer-soft"), "awgn", [-5.0, -3.0],
         [(1000, 9227, 621), (1000, 1539, 109)]),
        (lambda: polar_system(polar_spec(64, 7)), "rayleigh", [-4.0, 0.0],
         [(1000, 396, 130), (1000, 8, 5)]),
    ], ids=["rm82-dumer", "rm82-dumer-soft", "polar64-sc"])
    def test_pinned_classical_counts(self, monkeypatch, system, channel, grid, counts):
        monkeypatch.setattr(evaluation, "CHUNK_BLOCKS", 500)  # two chunks a point
        system = system()
        for threads in (1, 2):
            results = simulate_error_rates(system, channel, grid, min_blocks=1000,
                                           min_block_errors=0, max_blocks=1000,
                                           seed=11, threads=threads)
            got = [(r.blocks, r.bit_errors, r.block_errors) for r in results]
            assert got == counts, threads

    def test_error_hunting_extends_blocks(self):
        system = rm_system(3, 1)
        (res,) = simulate_error_rates(system, "awgn", [8.0], min_blocks=1000,
                                      min_block_errors=20, max_blocks=200000,
                                      seed=5)
        assert res.blocks > 1000
        assert res.block_errors >= 20 or res.blocks == 200000

    def test_rayleigh_and_bursty_run(self):
        system = rm_system(3, 1)
        for kind in ("rayleigh", "bursty"):
            (res,) = simulate_error_rates(system, kind, [6.0], min_blocks=2000,
                                          min_block_errors=1, seed=6)
            assert 0.0 <= res.ber <= res.bler <= 1.0

    def test_counts_consistent(self):
        system = rm_system(3, 1)
        (res,) = simulate_error_rates(system, "awgn", [0.0], min_blocks=5000,
                                      min_block_errors=1, seed=7)
        assert res.ber == res.bit_errors / (res.blocks * system.k)
        assert res.bler == res.block_errors / res.blocks
        assert res.bit_errors <= res.block_errors * system.k

    def test_csv_round_trip(self, tmp_path):
        system = rm_system(3, 1)
        results = simulate_error_rates(system, "awgn", [0.0], min_blocks=1000,
                                       min_block_errors=1, seed=8)
        path = tmp_path / "out.csv"
        results_to_csv(results, path, "unit test")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1].split(",")[:4] == ["snr_db", "blocks", "bit_errors",
                                           "block_errors"]
        assert len(lines) == 3
        fields = lines[2].split(",")
        assert float(fields[0]) == 0.0 and float(fields[4]) == results[0].ber


def oracle_counts(system, channel, snr_db, seed, snr_index, sizes):
    """Cumulative (blocks, bit errors, block errors) after each chunk, each
    chunk run on its own: chunk i draws from the generator seeded by
    [seed, snr_index, i]."""
    sigma = snr_to_sigma(snr_db)
    ch = make_channel(channel, sigma)
    totals, out = np.zeros(3, dtype=np.int64), []
    for i, size in enumerate(sizes):
        rng = np.random.default_rng([seed, snr_index, i])
        msgs = rng.integers(0, 2, size=(size, system.k), dtype=np.uint8)
        diffs = system.decode(transmit(system.encode(msgs), ch, rng), sigma) != msgs
        totals += (size, diffs.sum(), diffs.any(axis=1).sum())
        out.append(tuple(int(t) for t in totals))
    return out


class TestChunkStreams:
    """Chunk i of an SNR point draws from [seed, snr_index, i], whatever the
    size of the chunks before it. With 37-block chunks, a first plan of 50
    blocks runs chunks 0-1 (37 + 13 blocks); each early-stop round then runs
    up to STOP_CHECK_CHUNKS = 4 chunks, so the rule is checked after chunks
    1, 5, 9 and 13."""

    SIZES = [37, 13] + [37] * 12

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(evaluation, "CHUNK_BLOCKS", 37)
        monkeypatch.setattr(evaluation, "STOP_CHECK_CHUNKS", 4)

    SYSTEMS = [(lambda: rm_system(5, 2, "dumer"), "awgn", -1.0),
               (lambda: rm_system(4, 1, "dumer-soft"), "bursty", 2.0),
               (lambda: polar_system(polar_spec(16, 5)), "rayleigh", 1.0)]

    @pytest.mark.parametrize("system, channel, snr_db", SYSTEMS,
                             ids=["rm52-hard", "rm41-soft", "polar16"])
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_early_stop_after_two_rounds(self, system, channel, snr_db, threads):
        system = system()
        oracle = oracle_counts(system, channel, snr_db, 7, 1, self.SIZES)
        # one more error than the first round reached: the second round stops it
        need = oracle[5][2] + 1
        assert oracle[9][2] >= need
        results = simulate_error_rates(system, channel, [snr_db + 1, snr_db], min_blocks=50,
                                       min_block_errors=need, max_blocks=10**6, seed=7,
                                       threads=threads)
        assert (results[1].blocks, results[1].bit_errors, results[1].block_errors) == oracle[9]

    @pytest.mark.parametrize("system, channel, snr_db", SYSTEMS,
                             ids=["rm52-hard", "rm41-soft", "polar16"])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_cap_cuts_the_last_chunk_short(self, system, channel, snr_db, threads):
        system = system()
        # chunks 0-1, two full rounds (2-9) and a last chunk of 20 blocks
        sizes = self.SIZES[:10] + [20]
        (res,) = simulate_error_rates(system, channel, [snr_db], min_blocks=50,
                                      min_block_errors=10**9, max_blocks=366, seed=3,
                                      threads=threads)
        assert (res.blocks, res.bit_errors, res.block_errors) == \
            oracle_counts(system, channel, snr_db, 3, 0, sizes)[-1]

    @pytest.mark.parametrize("system, channel, snr_db", SYSTEMS,
                             ids=["rm52-hard", "rm41-soft", "polar16"])
    def test_bler_decomposition_runs_the_simulator_chunks(self, system, channel, snr_db):
        system = system()
        contribs, bler = bler_decomposition(system, channel, snr_db, 100, seed=5)
        (res,) = simulate_error_rates(system, channel, [snr_db], min_blocks=100,
                                      min_block_errors=0, seed=5)
        blocks, _, block_errors = oracle_counts(system, channel, snr_db, 5, 0, [37, 37, 26])[-1]
        assert res.blocks == blocks == 100
        assert sum(c.first_error_blocks for c in contribs) == res.block_errors == block_errors
        assert bler == res.bler


def whole_array_chunk_counts(system, tree, channel, snr_db, seed, snr_index, sizes):
    """(blocks, bit errors, block errors) of each chunk from fresh arrays at
    every step: BPSK by table lookup, every noise draw at the chunk's shape,
    then LLRs 2y/sigma^2 into a new array for the classical decoder."""
    ch = make_channel(channel, snr_to_sigma(snr_db))
    out = []
    for i, size in enumerate(sizes):
        rng = np.random.default_rng([seed, snr_index, i])
        msgs = rng.integers(0, 2, size=(size, system.k), dtype=np.uint8)
        x = np.take(np.array([1.0, -1.0]), tree_encode(tree, msgs))
        noise = ch.sigma * rng.standard_normal(x.shape)
        if ch.kind == "awgn":
            y = x + noise
        elif ch.kind == "rayleigh":
            y = rng.rayleigh(scale=1.0 / np.sqrt(2.0), size=x.shape) * x + noise
        else:
            hits = rng.random(x.shape) < ch.burst_prob
            y = x + (noise + np.where(hits, ch.burst_sigma * rng.standard_normal(x.shape), 0.0))
        diffs = system.decode_llrs(2.0 * y / (ch.sigma * ch.sigma)) != msgs
        out.append((size, int(diffs.sum()), int(diffs.any(axis=1).sum())))
    return out


class TestChunkBuffer:
    """run_chunks carries one float64 buffer per chunk from encoder output
    through the channel to the decoder's LLRs."""

    SYSTEMS = [(lambda: rm_system(8, 2, "dumer"), lambda: build_rm_tree(8, 2), "awgn"),
               (lambda: rm_system(8, 2, "dumer-soft"), lambda: build_rm_tree(8, 2), "awgn"),
               (lambda: polar_system(polar_spec(64, 7)),
                lambda: build_polar_tree(polar_spec(64, 7)), "rayleigh"),
               (lambda: rm_system(6, 2, "dumer"), lambda: build_rm_tree(6, 2), "bursty")]

    @pytest.mark.parametrize("system, tree, channel", SYSTEMS,
                             ids=["rm82-dumer", "rm82-dumer-soft", "polar64-rayleigh",
                                  "rm62-bursty"])
    def test_counts_equal_the_whole_array_chunks(self, monkeypatch, system, tree, channel):
        # 300 blocks of RM(8,2) span more than one noise block
        monkeypatch.setattr(evaluation, "CHUNK_BLOCKS", 300)
        system, tree = system(), tree()
        grid = [-4.0, -2.0]
        want = []
        for j, snr_db in enumerate(grid):
            chunks = whole_array_chunk_counts(system, tree, channel, snr_db, 13, j,
                                              [300, 300, 100])
            want.append(tuple(int(c) for c in np.sum(chunks, axis=0)))
        for threads in (1, 2):
            results = simulate_error_rates(system, channel, grid, min_blocks=700,
                                           min_block_errors=0, max_blocks=700, seed=13,
                                           threads=threads)
            assert [(r.blocks, r.bit_errors, r.block_errors) for r in results] == want

    @staticmethod
    def chunk_peak_in_symbol_arrays(channel):
        """tracemalloc's peak over one 10,000-block RM(8,2) chunk, in
        arrays of the chunk's float64 symbols."""
        system = rm_system(8, 2, "dumer")
        ch = make_channel(channel, snr_to_sigma(-4.0))
        blocks = 10000
        # leaf codebooks and tables are cached on first use; fill them first
        list(evaluation.run_chunks(system, ch, 0, 0, 0, [16], evaluation._error_counts))
        tracemalloc.start()
        try:
            list(evaluation.run_chunks(system, ch, 0, 0, 0, [blocks], evaluation._error_counts))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / (blocks * system.n * 8)

    def test_one_chunk_peaks_below_two_symbol_arrays(self):
        # encoded symbols, received symbols and LLRs are one array; the rest
        # is the decoder's workspace
        assert self.chunk_peak_in_symbol_arrays("awgn") <= 1.9

    @pytest.mark.parametrize("channel", ["rayleigh", "bursty"])
    def test_fading_and_bursty_chunks_add_only_the_noise_array(self, channel):
        # the noise comes first in the stream and is drawn whole; gains,
        # hits (one bool array) and bursts are drawn a block at a time
        assert self.chunk_peak_in_symbol_arrays(channel) <= 2.2

    def test_read_only_encoding_is_transmitted_into_a_new_array(self, monkeypatch):
        """An encoder that hands out read-only cached codewords simulates
        with the counts of a fresh encoder, and its cache stays intact."""
        monkeypatch.setattr(evaluation, "CHUNK_BLOCKS", 300)
        base = rm_system(5, 2, "dumer")
        cache = {}

        def encode(msgs):
            key = msgs.tobytes()
            if key not in cache:
                cache[key] = base.encode(msgs)
                cache[key].flags.writeable = False
            return cache[key]

        system = dataclasses.replace(base, encode=encode)
        kwargs = dict(min_blocks=700, min_block_errors=0, max_blocks=700, seed=9)
        want = simulate_error_rates(base, "awgn", [0.0, 1.0], **kwargs)
        for threads in (1, 2):  # the second pass reads every codeword from the cache
            assert simulate_error_rates(system, "awgn", [0.0, 1.0], threads=threads,
                                        **kwargs) == want
        assert len(cache) == 6
        for key, x in cache.items():
            msgs = np.frombuffer(key, dtype=np.uint8).reshape(-1, base.k)
            assert np.array_equal(x, base.encode(msgs))


class TestBlerDecomposition:
    def test_noiseless_contributions_vanish(self):
        system = rm_system(3, 1)
        contribs, bler = bler_decomposition(system, "awgn", 40.0, 2000, seed=0)
        assert bler == 0.0
        assert all(c.first_error_blocks == 0 for c in contribs)

    def test_partition_identity_exact(self):
        system = rm_system(4, 2)
        contribs, bler = bler_decomposition(system, "awgn", -2.0, 5000, seed=1)
        assert sum(c.first_error_blocks for c in contribs) == round(bler * 5000)
        assert sum(c.fraction for c in contribs) == pytest.approx(bler, abs=1e-15)

    def test_leftmost_leaf_dominates_rm_8_2(self):
        system = rm_system(8, 2)
        contribs, _ = bler_decomposition(system, "awgn", -5.0, 2000, seed=2)
        assert contribs[0].label == "RM(7,1)"
        assert contribs[0].first_error_blocks == max(c.first_error_blocks
                                                     for c in contribs)

    def test_burst_parameters_reach_the_channel(self):
        system = rm_system(4, 2)
        _, mild = bler_decomposition(system, "bursty", 4.0, 2000, seed=3,
                                     burst_prob=0.01, burst_sigma_mult=20.0)
        _, harsh = bler_decomposition(system, "bursty", 4.0, 2000, seed=3,
                                      burst_prob=0.9, burst_sigma_mult=20.0)
        assert harsh > mild + 0.5

    def test_requires_leaf_records(self):
        with pytest.raises(ValueError):
            bler_decomposition(rm_system(3, 1, "map"), "awgn", 0.0, 100)


class TestDistances:
    def test_rm_3_1_exact_multiset(self):
        tree = build_rm_tree(3, 1)
        system = rm_system(3, 1)
        hist = pairwise_distance_histogram(system.encode, 4, 8, keep_distances=True)
        d = np.sort(hist.distances)
        assert hist.pairs == 120
        assert np.allclose(d[:112], 4.0)
        assert np.allclose(d[112:], 2 * np.sqrt(8))

    @pytest.mark.parametrize("m,r", [(3, 1), (4, 2), (2, 2)])
    def test_linear_code_distances_match_weight_enumerator(self, m, r):
        # independent oracle: for a linear code the pairwise distances are
        # the weight distribution image d_E = 2 sqrt(w), each weight-w
        # codeword contributing 2^k / 2 pairs
        tree = build_rm_tree(m, r)
        cb = enumerate_codebook(tree)
        weights = cb.codewords.sum(axis=1)
        want = []
        for w in sorted(set(int(w) for w in weights if w > 0)):
            count = int((weights == w).sum()) * (2**tree.k) // 2
            want.extend([2 * np.sqrt(w)] * count)
        system = rm_system(m, r)
        hist = pairwise_distance_histogram(system.encode, tree.k, tree.n,
                                           keep_distances=True)
        assert np.sort(hist.distances) == pytest.approx(np.array(want), abs=1e-9)

    def test_random_mode_runs(self):
        system = rm_system(4, 1)
        hist = pairwise_distance_histogram(system.encode, 5, 16, mode=RANDOM_PAIRS,
                                           pair_count=2000,
                                           rng=np.random.default_rng(3))
        assert hist.pairs == 2000
        assert hist.counts.sum() == 2000

    def test_exhaustive_k_limit(self):
        with pytest.raises(ValueError):
            pairwise_distance_histogram(lambda m: m.astype(float), 17, 4)

    def test_histogram_csv(self, tmp_path):
        system = rm_system(3, 1)
        hist = pairwise_distance_histogram(system.encode, 4, 8, bins=10)
        path = tmp_path / "h.csv"
        hist.write_csv(path, "unit")
        lines = path.read_text().splitlines()
        assert lines[1] == "bin_lo,bin_hi,count,normalized"
        assert len(lines) == 12
        parsed = [tuple(float(v) for v in line.split(",")) for line in lines[2:]]
        assert sum(int(row[2]) for row in parsed) == hist.pairs


class TestGaussianCodebook:
    def test_energy(self):
        cb = gaussian_codebook(64, 7, np.random.default_rng(0))
        assert cb.shape == (128, 64)
        assert np.abs(np.sum(cb**2, axis=1) - 64).max() <= 1e-9 * 64

    def test_mean_pairwise_distance_near_sqrt_2n(self):
        cb = gaussian_codebook(64, 7, np.random.default_rng(2))

        def encode(msgs):
            idx = msgs @ (1 << np.arange(6, -1, -1))
            return cb[idx]

        hist = pairwise_distance_histogram(encode, 7, 64)
        assert abs(hist.mean - np.sqrt(128)) <= 0.05 * np.sqrt(128)


class TestOpCounting:
    def test_counter_totals(self):
        ops = OpCounter()
        ops.count(adds=3, comparisons=1)
        ops.count(muls=2, exp_logs=4)
        assert (ops.adds, ops.muls, ops.comparisons, ops.exp_logs) == (3, 2, 1, 4)
        assert ops.total == 10
        # random guessing is RNG only, which the convention leaves free
        assert count_decode_ops(random_guess_system(k=4, n=8)).total == 0

    def test_repetition_majority_convention(self):
        # a length-4 repetition decode is 3 adds and 1 sign comparison
        system = rm_system(2, 0)
        ops = count_decode_ops(system)
        assert (ops.adds, ops.comparisons) == (3, 1)
        assert ops.total == 4

    def test_fht_add_count_convention(self):
        # n log2(n) butterfly additions: 256 * 8 = 2048 for a length-256
        # first-order leaf transform
        from plotkinlab.codes import FIRST_ORDER, Leaf, PlotkinTree

        leaf = Leaf(FIRST_ORDER, 8, 0, 9)
        ops = tree_decode_ops(PlotkinTree(leaf, 8, 256, 9, "RM(8,1)"), soft=True)
        # fht contributes 2048 adds; the per-bit max-log subtractions,
        # sigmoids and soft signs 1-2p add k = 9 each
        assert ops.adds == 2048 + 3 * 9

    @pytest.mark.parametrize("system,want", [
        # V = 2^k codeword correlations: V*n muls, V*(n-1) adds, V-1 comparisons
        (lambda: rm_system(5, 1, "map"), (64 * 31, 64 * 32, 63, 0)),
        (lambda: polar_system(polar_spec(64, 7), "map"), (128 * 63, 128 * 64, 127, 0)),
        # the hard first-order leaf rule at m = 5
        (lambda: rm_system(5, 1, "fht-map"), (32 * 5 + 32, 32, 63, 0)),
    ], ids=["rm51_map", "polar64_map", "rm51_fht_map"])
    def test_whole_code_map_decoders(self, system, want):
        ops = count_decode_ops(system())
        assert (ops.adds, ops.muls, ops.comparisons, ops.exp_logs) == want

    # (adds, muls, comparisons, exp_logs, total) for one block, README
    # "Operation counting" convention
    PINNED = {
        "rm82_dumer": (3600, 1576, 2277, 1008, 8461),
        "rm82_dumer_soft": (3207, 2675, 5330, 1045, 12257),
        "polar64_sc": (473, 320, 455, 256, 1504),
        "ko82_standard": (1148799, 1196147, 53714, 49429, 2448089),
        "ko82_tiny": (13791, 14771, 7346, 3061, 38969),
    }

    @staticmethod
    def _pinned_system(name):
        if name.startswith("ko82"):
            model = build_ko_model(build_rm_tree(8, 2), {"family": "rm", "m": 8, "r": 2},
                                   name.split("_")[1], seed=14)
            return ko_system(model)
        if name == "polar64_sc":
            return polar_system(polar_spec(64, 7))
        return rm_system(8, 2, "dumer-soft" if name.endswith("soft") else "dumer")

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned_counts_by_category(self, name):
        system = self._pinned_system(name)
        for snr_db, seed in ((0.0, 0), (-5.0, 1), (7.0, 99)):
            ops = count_decode_ops(system, snr_db=snr_db, seed=seed)
            got = (ops.adds, ops.muls, ops.comparisons, ops.exp_logs, ops.total)
            assert got == self.PINNED[name], (snr_db, seed)

    def test_monotone_during_decode(self):
        system = rm_system(4, 2)
        ops = count_decode_ops(system, snr_db=0.0)
        assert min(ops.adds, ops.muls, ops.comparisons, ops.exp_logs) > 0

    def test_ko_counts_exceed_classical(self):
        tree = build_rm_tree(4, 2)
        model = build_ko_model(tree, {"family": "rm", "m": 4, "r": 2}, "tiny")
        classical = count_decode_ops(rm_system(4, 2))
        neural = count_decode_ops(ko_system(model))
        assert neural.total > classical.total


class TestPolarSystem:
    def test_round_trip_through_simulator(self):
        system = polar_system(polar_spec(16, 5))
        (res,) = simulate_error_rates(system, "awgn", [40.0], min_blocks=2000,
                                      min_block_errors=1, seed=9)
        assert res.bler == 0.0


class TestDecoderOrdering:
    def test_exhaustive_map_is_no_worse_than_dumer(self):
        # MAP minimizes block error probability, so on the same noise its
        # BLER can exceed the recursive decoder's only by sampling noise
        kwargs = dict(min_blocks=40000, min_block_errors=10**9,
                      max_blocks=40000, seed=33)
        for snr in (0.0, 2.0):
            (d,) = simulate_error_rates(rm_system(3, 1, "dumer"), "awgn",
                                        [snr], **kwargs)
            (m,) = simulate_error_rates(rm_system(3, 1, "map"), "awgn",
                                        [snr], **kwargs)
            slack = 3 * float(np.hypot(d.bler_se, m.bler_se))
            assert m.bler <= d.bler + slack


class TestNonFiniteInput:
    @staticmethod
    def _system(family, decoder):
        if family == "rm":
            return rm_system(3, 1, decoder)
        if family == "polar":
            return polar_system(polar_spec(16, 5), decoder)
        return ko_system(build_ko_model(build_rm_tree(3, 1), {"family": "rm", "m": 3, "r": 1},
                                        "tiny", seed=2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("family,decoder",
                             [(f, d) for f, names in DECODERS.items() for d in names])
    def test_every_decoder_rejects(self, family, decoder, bad):
        system = self._system(family, decoder)
        y = np.ones((3, system.n))
        y[1, 2] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            system.decode(y, 0.8)
        if system.decode_llrs is not None:
            with pytest.raises(ValueError, match="NaN or infinite"):
                system.decode_llrs(np.full(system.n, bad))
