import numpy as np
import pytest

from plotkinlab import evaluation
from plotkinlab.codes import build_rm_tree, enumerate_codebook, polar_spec
from plotkinlab.evaluation import (
    RANDOM_PAIRS,
    OpCounter,
    bler_decomposition,
    count_decode_ops,
    gaussian_codebook,
    ko_system,
    nearest_neighbor_decode,
    pairwise_distance_histogram,
    polar_system,
    random_guess_system,
    results_to_csv,
    rm_system,
    simulate_error_rates,
    standard_error,
)
from plotkinlab.ko import build_ko_model


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

    def test_nearest_neighbor_recovers_noiseless(self):
        cb = gaussian_codebook(16, 1, np.random.default_rng(1))
        assert nearest_neighbor_decode(cb, cb[1]).tolist() == [1]
        assert nearest_neighbor_decode(cb, cb[0]).tolist() == [0]

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

    def test_repetition_majority_convention(self):
        # a length-4 repetition decode is 3 adds and 1 sign comparison
        system = rm_system(2, 0)
        ops = count_decode_ops(system)
        assert (ops.adds, ops.comparisons) == (3, 1)
        assert ops.total == 4

    def test_fht_add_count_convention(self):
        # n log2(n) butterfly additions: 256 * 8 = 2048 for a length-256
        # first-order leaf transform
        from plotkinlab.codes import FIRST_ORDER, Leaf
        from plotkinlab.decoding import softmap_forward

        ops = OpCounter()
        leaf = Leaf(FIRST_ORDER, 8, 0, 9)
        softmap_forward(leaf, np.random.default_rng(0).standard_normal((1, 256)), ops)
        # fht contributes 2048 adds; the per-bit subtractions add k = 9
        assert ops.adds == 2048 + 9

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
