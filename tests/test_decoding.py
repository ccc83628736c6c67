import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plotkinlab.bits import bpsk, hadamard_matrix
from plotkinlab.channel import channel_llr
from plotkinlab.codes import (
    FIRST_ORDER,
    FROZEN,
    FULL_RATE,
    REPETITION,
    Leaf,
    all_messages,
    build_polar_tree,
    build_rm_tree,
    encode_leaf,
    enumerate_codebook,
    polar_spec,
    tree_encode,
)
from plotkinlab import decoding
from plotkinlab.decoding import (
    LLR_LIMIT,
    dumer_decode,
    fht,
    fht_map_decode_rm1,
    lse,
    majority_decode_repetition,
    map_decode,
    parity_adjusted_add,
    row_tiles,
    soft_map_llrs,
    soft_reencode,
)

finite_llrs = st.floats(-1e3, 1e3, allow_nan=False)


class TestLse:
    def test_zero(self):
        assert lse(0.0, 0.0) == 0.0

    def test_value_one_one(self):
        # log((1 + e^2) / (2e)) evaluated directly
        want = np.log((1 + np.e**2) / (2 * np.e))
        assert lse(1.0, 1.0) == pytest.approx(want, abs=1e-12)
        assert lse(1.0, 1.0) == pytest.approx(0.433781, abs=1e-6)

    def test_min_magnitude_dominates(self):
        got = lse(10.0, -3.0)
        assert got < 0 and abs(got) < 3
        assert got == pytest.approx(-2.9990, abs=1e-3)

    @given(finite_llrs, finite_llrs)
    @settings(max_examples=200)
    def test_properties(self, a, b):
        assert lse(a, b) == lse(b, a)
        assert abs(lse(a, b)) <= min(abs(a), abs(b)) + 1e-12
        if a != 0 and b != 0:
            assert np.sign(lse(a, b)) in (0.0, np.sign(a) * np.sign(b))

    @given(finite_llrs)
    def test_zero_annihilates(self, x):
        assert lse(0.0, x) == 0.0

    def test_direct_formula_agreement(self):
        rng = np.random.default_rng(0)
        a, b = rng.uniform(-20, 20, 100), rng.uniform(-20, 20, 100)
        naive = np.log((1 + np.exp(a + b)) / (np.exp(a) + np.exp(b)))
        assert lse(a, b) == pytest.approx(naive, abs=1e-10)

    def test_stable_at_large_magnitudes(self):
        assert np.isfinite(lse(700.0, 700.0))
        # for a = -b the exact value is log(2) - |a| - log1p(e^(-2|a|))
        assert lse(1e3, -1e3) == pytest.approx(np.log(2) - 1e3, rel=1e-12)


class TestParityAdjustedAdd:
    def test_zero_parity(self):
        got = parity_adjusted_add([1.0, 2.0], [3.0, 4.0], np.zeros(2, dtype=np.uint8))
        assert got.tolist() == [4.0, 6.0]

    def test_one_parity(self):
        got = parity_adjusted_add([1.0, 2.0], [3.0, 4.0], np.ones(2, dtype=np.uint8))
        assert got.tolist() == [-2.0, -2.0]

    def test_mixed(self):
        got = parity_adjusted_add([1.0, 2.0], [3.0, 4.0], np.array([0, 1], dtype=np.uint8))
        assert got.tolist() == [4.0, -2.0]

    def test_soft_signs_pass_through(self):
        got = parity_adjusted_add([1.0, 1.0], [2.0, 2.0], np.array([0.5, -0.5]))
        assert got.tolist() == [2.0, 0.0]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            parity_adjusted_add([1.0], [1.0, 2.0], np.zeros(2, dtype=np.uint8))


class TestMajority:
    def test_positive_sum(self):
        assert majority_decode_repetition([2.0, -1.0, 0.5, 0.5]) == 0

    def test_all_negative(self):
        assert majority_decode_repetition([-1.0, -1.0, -1.0, -1.0]) == 1

    def test_tie_goes_to_zero(self):
        assert majority_decode_repetition([1.0, -1.0]) == 0


class TestMapDecode:
    def test_two_word_codebook(self):
        from plotkinlab.codes import Codebook

        cb = Codebook(np.array([[0], [1]], dtype=np.uint8),
                      np.array([[0, 0], [1, 1]], dtype=np.uint8))
        msg, cw = map_decode(cb, np.array([2.0, 3.0]))
        assert msg.tolist() == [0] and cw.tolist() == [0, 0]

    def test_all_zero_llr_ties_to_first_message(self):
        cb = enumerate_codebook(build_rm_tree(2, 2))
        msg, _ = map_decode(cb, np.zeros(4))
        assert msg.tolist() == [0, 0, 0, 0]

    def test_noiseless_round_trip(self):
        tree = build_rm_tree(3, 1)
        cb = enumerate_codebook(tree)
        msg = np.array([1, 0, 1, 1], dtype=np.uint8)
        y = bpsk(tree_encode(tree, msg)) + 0.05 * np.random.default_rng(0).standard_normal(8)
        got, _ = map_decode(cb, channel_llr(y, 0.1))
        assert got.tolist() == msg.tolist()


class TestFht:
    def test_butterfly(self):
        assert fht([3.0, 5.0]).tolist() == [8.0, -2.0]

    def test_first_column(self):
        assert fht([1.0, 0.0, 0.0, 0.0]).tolist() == [1.0, 1.0, 1.0, 1.0]

    def test_matches_dense_hadamard(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(256)
        assert fht(x) == pytest.approx(hadamard_matrix(8) @ x, abs=1e-9)

    def test_self_inversion(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(64)
        assert fht(fht(x)) == pytest.approx(64 * x, rel=1e-9)

    def test_batched(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 16))
        rows = np.stack([fht(r) for r in x])
        assert np.array_equal(fht(x), rows)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            fht([1.0, 2.0, 3.0])


class TestFhtMap:
    def test_noiseless(self):
        tree = build_rm_tree(3, 1)
        for msg in all_messages(4):
            l = 50.0 * bpsk(tree_encode(tree, msg))
            cw, got = fht_map_decode_rm1(l, 3)
            assert got.tolist() == msg.tolist()
            assert np.array_equal(cw, tree_encode(tree, msg))

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_matches_brute_force_map(self, m):
        tree = build_rm_tree(m, 1)
        cb = enumerate_codebook(tree)
        l = np.random.default_rng(m).standard_normal((300, 2**m))
        cw_fht, msg_fht = fht_map_decode_rm1(l, m)
        msg_map, cw_map = map_decode(cb, l)
        assert np.array_equal(msg_fht, msg_map)
        assert np.array_equal(cw_fht, cw_map)

    def test_sign_flip_gives_complement(self):
        l = np.random.default_rng(7).standard_normal(8)
        cw, _ = fht_map_decode_rm1(l, 3)
        cw_flip, _ = fht_map_decode_rm1(-l, 3)
        assert np.array_equal(cw ^ cw_flip, np.ones(8, dtype=np.uint8))


def brute_two_max_oracle(leaf: Leaf, l: np.ndarray) -> np.ndarray:
    """Independent max-log oracle: enumerate the leaf codebook through the
    tree encoder and take per-bit subset maxima with explicit loops."""
    msgs = all_messages(leaf.k)
    signs = bpsk(encode_leaf(leaf, msgs))
    scores = np.array([float(np.dot(l, s)) for s in signs])
    out = np.empty(leaf.k)
    for i in range(leaf.k):
        zero = scores[msgs[:, i] == 0].max()
        one = scores[msgs[:, i] == 1].max()
        out[i] = zero - one
    return out


class TestSoftMap:
    def test_repetition_is_twice_llr_sum(self):
        # both subset maxima are +/- sum(l), so the max-log rule gives 2*sum
        leaf = Leaf(REPETITION, 2, 0, 1)
        l = np.array([1.0, -0.25, 0.5, 0.25])
        assert soft_map_llrs(leaf, l).tolist() == [2 * l.sum()]

    def test_full_rate_confident_zero(self):
        leaf = Leaf(FULL_RATE, 2, 0, 4)
        got = soft_map_llrs(leaf, np.array([10.0, 10.0, 10.0, 10.0]))
        assert (got >= 20.0 - 1e-12).all()

    @pytest.mark.parametrize("leaf", [
        Leaf(FIRST_ORDER, 3, 0, 4),
        Leaf(FULL_RATE, 2, 0, 4),
        Leaf(REPETITION, 3, 0, 1),
        Leaf(FIRST_ORDER, 5, 0, 6),
    ])
    def test_matches_brute_oracle(self, leaf):
        rng = np.random.default_rng(leaf.m)
        for _ in range(200):
            l = rng.standard_normal(leaf.length)
            got = soft_map_llrs(leaf, l)
            want = brute_two_max_oracle(leaf, l)
            assert got == pytest.approx(want, abs=1e-9)

    def test_sign_decisions_match_oracle(self):
        for leaf in (Leaf(FIRST_ORDER, 3, 0, 4), Leaf(FULL_RATE, 2, 0, 4)):
            l = np.random.default_rng(0).standard_normal((1000, leaf.length))
            got = soft_map_llrs(leaf, l)
            want = np.stack([brute_two_max_oracle(leaf, row) for row in l])
            assert np.array_equal(got < 0, want < 0)

    def test_unsupported_leaf_rejected(self):
        with pytest.raises(ValueError):
            soft_map_llrs(Leaf("frozen", 2, 0, 0), np.zeros(4))


class TestSoftReencode:
    @pytest.mark.parametrize("leaf", [
        Leaf(REPETITION, 2, 0, 1),
        Leaf(FIRST_ORDER, 2, 0, 3),
        Leaf(FULL_RATE, 2, 0, 4),
    ])
    def test_hard_bits_exhaustive(self, leaf):
        msgs = all_messages(leaf.k)
        want = bpsk(encode_leaf(leaf, msgs))
        got = soft_reencode(leaf, msgs.astype(np.float64))
        assert np.array_equal(got, want)

    def test_hard_bits_random_rm_7_1(self):
        leaf = Leaf(FIRST_ORDER, 7, 0, 8)
        msgs = np.random.default_rng(1).integers(0, 2, (1000, 8), dtype=np.uint8)
        want = bpsk(encode_leaf(leaf, msgs))
        got = soft_reencode(leaf, msgs.astype(np.float64))
        assert np.array_equal(got, want)

    def test_total_uncertainty(self):
        leaf = Leaf(FULL_RATE, 2, 0, 4)
        assert not soft_reencode(leaf, np.full(4, 0.5)).any()

    def test_repetition_soft_sign(self):
        leaf = Leaf(REPETITION, 3, 0, 1)
        got = soft_reencode(leaf, np.array([0.2]))
        assert got == pytest.approx(np.full(8, 0.6))

    @pytest.mark.parametrize("leaf", [
        Leaf(FROZEN, 2, 0, 0),
        Leaf(REPETITION, 2, 0, 1),
        Leaf(FIRST_ORDER, 2, 0, 3),
        Leaf(FULL_RATE, 2, 0, 4),
    ])
    def test_output_rank_follows_input_rank(self, leaf):
        assert soft_reencode(leaf, np.zeros(leaf.k)).shape == (leaf.length,)
        assert soft_reencode(leaf, np.zeros((3, leaf.k))).shape == (3, leaf.length)


class TestDumerDecode:
    def test_rm_3_1_noiseless_all_messages(self):
        tree = build_rm_tree(3, 1)
        msgs = all_messages(4)
        y = bpsk(tree_encode(tree, msgs))
        y = y + 0.01 * np.random.default_rng(0).standard_normal(y.shape)
        res = dumer_decode(tree, channel_llr(y, 0.01))
        assert np.array_equal(res.message, msgs)

    def test_rm_8_2_all_zero(self):
        tree = build_rm_tree(8, 2)
        y = bpsk(np.zeros((1, 256), dtype=np.uint8))
        y = y + 0.01 * np.random.default_rng(1).standard_normal(y.shape)
        res = dumer_decode(tree, channel_llr(y, 0.01))
        assert not res.message.any()

    def test_outputs_are_freed_without_the_cycle_collector(self):
        """Building, encoding and decoding an RM and a polar tree leave no
        reference cycle, so refcounting alone frees every array."""
        rng = np.random.default_rng(2)
        gc.collect()
        gc.disable()
        try:
            for tree in (build_rm_tree(8, 2), build_polar_tree(polar_spec(64, 7))):
                msgs = rng.integers(0, 2, (50, tree.k), dtype=np.uint8)
                y = bpsk(tree_encode(tree, msgs)) + rng.standard_normal((50, tree.n))
                dumer_decode(tree, channel_llr(y, 1.0), "soft")
                dumer_decode(tree, channel_llr(y, 1.0), "hard")
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("tree", [build_rm_tree(3, 1), build_rm_tree(5, 2),
                                      build_polar_tree(polar_spec(16, 5))],
                             ids=["rm31", "rm52", "polar16_5"])
    def test_leaves_decode_in_tree_order(self, monkeypatch, tree):
        # a soft first-order leaf takes its closed form straight from the
        # decoder's transform; the other leaves go through softmap_forward
        seen = []

        def recording(kernel):
            def record(leaf, *args):
                seen.append(leaf)
                return kernel(leaf, *args)
            return record

        for name in ("softmap_forward", "_first_order_llrs"):
            monkeypatch.setattr(decoding, name, recording(getattr(decoding, name)))
        dumer_decode(tree, np.ones(tree.n), "soft")
        assert seen == tree.message_leaves()

    def test_decode_order_rm_3_1(self):
        leaves = build_rm_tree(3, 1).message_leaves()
        assert [lf.label() for lf in leaves] == ["RM(2,0)", "RM(1,0)", "RM(1,1)"]
        assert [(lf.lo, lf.hi) for lf in leaves] == [(3, 4), (2, 3), (0, 2)]

    def test_soft_rule_reports_llrs(self):
        tree = build_rm_tree(3, 1)
        res = dumer_decode(tree, np.random.default_rng(2).standard_normal(8), "soft")
        assert res.llrs is not None and res.llrs.shape == (4,)
        assert np.array_equal(res.message, (res.llrs < 0).astype(np.uint8))

    def test_leaf_records_explain_block_errors(self):
        tree = build_rm_tree(4, 2)
        leaves = tree.message_leaves()
        assert sorted(i for lf in leaves for i in range(lf.lo, lf.hi)) == list(range(tree.k))
        rng = np.random.default_rng(3)
        msgs = rng.integers(0, 2, (500, tree.k), dtype=np.uint8)
        y = bpsk(tree_encode(tree, msgs)) + 1.2 * rng.standard_normal((500, 16))
        res = dumer_decode(tree, channel_llr(y, 1.2))
        block_bad = (res.message != msgs).any(axis=1)
        leaf_bad = np.zeros(500, dtype=bool)
        for lf in leaves:
            leaf_bad |= (res.message[:, lf.lo:lf.hi] != msgs[:, lf.lo:lf.hi]).any(axis=1)
        assert block_bad.any() and np.array_equal(block_bad, leaf_bad)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dumer_decode(build_rm_tree(3, 1), np.zeros(4))

    @pytest.mark.parametrize("rule", ["hard", "soft"])
    def test_oversized_full_rate_leaf_is_named(self, rule):
        # RM(6,5) bottoms out at RM(5,5), a 32-bit leaf with no codebook
        with pytest.raises(ValueError, match=r"RM\(5,5\)"):
            dumer_decode(build_rm_tree(6, 5), np.ones(64), rule)

    def test_hard_and_soft_agree_on_confident_inputs(self):
        tree = build_rm_tree(4, 2)
        msgs = all_messages(tree.k)[:64]
        y = bpsk(tree_encode(tree, msgs))
        hard = dumer_decode(tree, channel_llr(y, 0.1))
        soft = dumer_decode(tree, y, "soft")
        assert np.array_equal(hard.message, msgs)
        assert np.array_equal(soft.message, msgs)


class TestRowTiles:
    """dumer_decode's row tiles change no bit: every batch decodes exactly
    as one tile of all its rows would."""

    @pytest.mark.parametrize("tile", [2, 3, 1024])
    def test_bounds(self, tile):
        for rows in (1, tile - 1, tile, tile + 1, 2 * tile - 1, 2 * tile, 2 * tile + 1):
            bounds = row_tiles(rows, tile)
            assert bounds[0][0] == 0 and bounds[-1][1] == rows, rows
            assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:])), rows
            assert all(hi - lo == tile for lo, hi in bounds[:-1]), rows
            last = bounds[-1][1] - bounds[-1][0]
            assert last < 2 * tile and (last >= tile or len(bounds) == 1), rows
            assert rows == 1 or min(hi - lo for lo, hi in bounds) > 1, rows

    # rows per tile: 2^18 floats a tile with a 1,024-row floor. RM(4,4) is
    # one 16-bit full-rate leaf that scores 65,536 codewords a row, so its
    # 16,384-row tile would need 8.6 GB; it runs at 8-row tiles instead (a
    # 16-long product rounds alike at any row count above one)
    CODES = {"rm82": (build_rm_tree(8, 2), 1024), "rm61": (build_rm_tree(6, 1), 4096),
             "rm71": (build_rm_tree(7, 1), 2048), "rm44": (build_rm_tree(4, 4), 8),
             "polar64_7": (build_polar_tree(polar_spec(64, 7)), 4096)}

    @pytest.mark.parametrize("rule", ["hard", "soft"])
    @pytest.mark.parametrize("code", CODES)
    def test_tiles_match_one_tile(self, monkeypatch, code, rule):
        tree, tile = self.CODES[code]
        if code == "rm44":
            monkeypatch.setattr(decoding, "FHT_TILE_ROWS", tile)
            monkeypatch.setattr(decoding, "DECODE_TILE_FLOATS", tile * tree.n)
        rng = np.random.default_rng(tree.n)
        llr = 2.0 * (1.0 + rng.standard_normal((2 * tile + 1, tree.n)))
        for rows in (tile - 1, tile, tile + 1, 2 * tile + 1):
            tiled = dumer_decode(tree, llr[:rows], rule)
            with monkeypatch.context() as mp:
                mp.setattr(decoding, "FHT_TILE_ROWS", rows)
                mp.setattr(decoding, "DECODE_TILE_FLOATS", rows * tree.n)
                whole = dumer_decode(tree, llr[:rows], rule)
            assert np.array_equal(tiled.message, whole.message), rows
            if rule == "soft":
                assert np.array_equal(tiled.llrs.view(np.uint64),
                                      whole.llrs.view(np.uint64)), rows


class TestLlrLimit:
    @pytest.mark.parametrize("rule", ["hard", "soft"])
    def test_codewords_near_the_float_limit(self, rule):
        tree = build_rm_tree(2, 1)
        msgs = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 1], [1, 1, 1]], dtype=np.uint8)
        llr = 1.7e308 * bpsk(tree_encode(tree, msgs))
        assert np.array_equal(dumer_decode(tree, llr, rule).message, msgs)

    @given(st.lists(st.one_of(st.floats(-LLR_LIMIT, LLR_LIMIT), st.sampled_from(
        [0.0, -0.0, LLR_LIMIT, -LLR_LIMIT, 5e-324, -5e-324])), min_size=4, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_in_range_llrs_pass_through_bit_for_bit(self, values):
        # RM(2,2) is one full-rate leaf, so dumer_decode runs the leaf rule
        # straight on its input
        tree = build_rm_tree(2, 2)
        llr = np.array(values)
        soft = dumer_decode(tree, llr, "soft")
        assert np.array_equal(soft.llrs.view(np.uint64),
                              soft_map_llrs(tree.root, llr).view(np.uint64))
        hard = dumer_decode(tree, llr, "hard")
        assert np.array_equal(hard.message, map_decode(enumerate_codebook(tree), llr)[0])

    def test_llrs_beyond_the_limit_are_clipped(self):
        tree = build_rm_tree(2, 2)
        llr = np.array([1.7e308, -1e301, 3.0, -0.0])
        want = soft_map_llrs(tree.root, np.array([LLR_LIMIT, -LLR_LIMIT, 3.0, -0.0]))
        assert np.array_equal(dumer_decode(tree, llr, "soft").llrs, want)


class TestScPolar:
    def test_noiseless_all_messages(self):
        tree = build_polar_tree(polar_spec(64, 7))
        msgs = all_messages(7)
        y = bpsk(tree_encode(tree, msgs))
        y = y + 0.01 * np.random.default_rng(4).standard_normal(y.shape)
        res = dumer_decode(tree, channel_llr(y, 0.01))
        assert np.array_equal(res.message, msgs)

    def test_polar_2_1_hand_run(self):
        tree = build_polar_tree(polar_spec(2, 1))
        res = dumer_decode(tree, np.array([-4.0, -5.0]))
        assert res.message.tolist() == [1]

    def test_frozen_subtree_is_plain_llr_addition(self):
        # the frozen v child re-encodes to the zero word, so the u feature
        # is the plain sum of the halves and the lone message bit of the
        # repetition u child is the sign of the total LLR sum
        tree = build_polar_tree(polar_spec(4, 1))
        rng = np.random.default_rng(17)
        for _ in range(50):
            llr = rng.standard_normal(4) * 3
            res = dumer_decode(tree, llr)
            assert res.message.tolist() == [int(llr.sum() < 0)]
