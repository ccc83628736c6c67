import itertools

import numpy as np
import pytest

from plotkinlab.bits import as_bits, hadamard_matrix, kronecker_generator
from plotkinlab.codes import (
    FIRST_ORDER,
    FROZEN,
    FULL_RATE,
    MAX_TREE_M,
    REPETITION,
    Internal,
    Leaf,
    PolarSpec,
    all_messages,
    build_polar_tree,
    build_rm_tree,
    encode_leaf,
    enumerate_codebook,
    leaf_codebook,
    leaf_generator,
    message_index,
    polar_reliabilities,
    polar_spec,
    rm_generator_rows,
    rm_spec,
    tree_encode,
    walk,
)


def polar_encode(spec: PolarSpec, msg) -> np.ndarray:
    """Encode via the Kronecker generator with frozen positions held at zero.

    Message bits fill the active positions in descending message order
    (the first-decoded position carries the last message bit), which makes
    this matrix path identical to evaluating the collapsed Plotkin tree.
    """
    arr = as_bits(msg, "message")
    single = arr.ndim == 1
    arr = np.atleast_2d(arr)
    if arr.shape[1] != spec.k:
        raise ValueError(f"message length {arr.shape[1]} != k={spec.k}")
    u = np.zeros((arr.shape[0], spec.n), dtype=np.uint8)
    cols = [i - 1 for i in spec.active_set]
    u[:, cols] = arr[:, ::-1]
    out = (u @ kronecker_generator(spec.m)) % 2
    out = out.astype(np.uint8)
    return out[0] if single else out


class TestRmSpec:
    def test_rm_8_2(self):
        spec = rm_spec(8, 2)
        assert (spec.n, spec.k, spec.min_distance) == (256, 37, 64)

    def test_rm_9_2_formula(self):
        # k = C(9,0) + C(9,1) + C(9,2) = 1 + 9 + 36
        spec = rm_spec(9, 2)
        assert (spec.n, spec.k) == (512, 46)

    def test_rm_3_1(self):
        spec = rm_spec(3, 1)
        assert (spec.n, spec.k, spec.min_distance) == (8, 4, 4)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            rm_spec(3, 4)


class TestRmTree:
    def test_rm_3_1_structure(self):
        tree = build_rm_tree(3, 1)
        root = tree.root
        assert isinstance(root, Internal)
        assert isinstance(root.v, Leaf) and root.v.kind == REPETITION and root.v.m == 2
        inner = root.u
        assert isinstance(inner, Internal)
        assert inner.v.kind == REPETITION and inner.v.m == 1
        assert inner.u.kind == FULL_RATE and inner.u.m == 1

    def test_rm_8_2_leaves(self):
        tree = build_rm_tree(8, 2)
        assert len(tree.internal_nodes()) == 6
        labels = [lf.label() for lf in tree.leaves()]
        assert labels == ["RM(7,1)", "RM(6,1)", "RM(5,1)", "RM(4,1)",
                          "RM(3,1)", "RM(2,1)", "RM(2,2)"]

    def test_full_rate_base_case(self):
        tree = build_rm_tree(2, 2)
        assert isinstance(tree.root, Leaf)
        assert tree.root.kind == FULL_RATE and tree.k == 4

    def test_repetition_base_case(self):
        tree = build_rm_tree(3, 0)
        assert isinstance(tree.root, Leaf) and tree.root.kind == REPETITION

    def test_slices_partition_message(self):
        for m, r in [(3, 1), (4, 2), (5, 2), (4, 3)]:
            tree = build_rm_tree(m, r)
            covered = sorted(itertools.chain.from_iterable(
                range(lf.lo, lf.hi) for lf in tree.message_leaves()))
            assert covered == list(range(tree.k))

    def test_first_decoded_leaf_owns_highest_block(self):
        tree = build_rm_tree(8, 2)
        leaves = tree.message_leaves()
        assert leaves[0].hi == tree.k           # RM(7,1) block is last
        assert leaves[-1].lo == 0               # RM(2,2) block is first

    def test_node_lengths_consistent(self):
        tree = build_rm_tree(5, 2)
        for node in walk(tree.root):
            if isinstance(node, Internal):
                half = node.length // 2
                assert node.v.length == half and node.u.length == half
        assert tree.root.length == tree.n

    def test_size_limit(self):
        assert build_rm_tree(MAX_TREE_M, 5).n == 1 << MAX_TREE_M
        for m, r in ((MAX_TREE_M + 1, 1), (18, 9), (30, 15), (3, 4), (-1, 0)):
            with pytest.raises(ValueError, match="need 0 <= r <= m"):
                build_rm_tree(m, r)


class TestRmEncode:
    def test_all_zero(self):
        tree = build_rm_tree(3, 1)
        assert not tree_encode(tree, [0, 0, 0, 0]).any()

    def test_closed_form_vector(self):
        # (m1, m1^m2, m1^m3, m1^m2^m3, m1^m4, ..., m1^m2^m3^m4)
        tree = build_rm_tree(3, 1)
        assert tree_encode(tree, [1, 0, 0, 0]).tolist() == [1] * 8
        assert tree_encode(tree, [0, 0, 0, 1]).tolist() == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_closed_form_all_messages(self):
        tree = build_rm_tree(3, 1)
        for msg in all_messages(4):
            m1, m2, m3, m4 = (int(b) for b in msg)
            want = [m1, m1 ^ m2, m1 ^ m3, m1 ^ m2 ^ m3,
                    m1 ^ m4, m1 ^ m2 ^ m4, m1 ^ m3 ^ m4, m1 ^ m2 ^ m3 ^ m4]
            assert tree_encode(tree, msg).tolist() == want

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            tree_encode(build_rm_tree(3, 1), [0, 1])

    def test_batched_matches_single(self):
        tree = build_rm_tree(4, 2)
        msgs = all_messages(tree.k)[:17]
        batch = tree_encode(tree, msgs)
        for i, msg in enumerate(msgs):
            assert np.array_equal(batch[i], tree_encode(tree, msg))


class TestGeneratorRows:
    def test_full_rate_keeps_all(self):
        assert rm_generator_rows(1, 1).tolist() == [[0, 1], [1, 1]]

    def test_rm_3_1_weights(self):
        weights = sorted(rm_generator_rows(3, 1).sum(axis=1).tolist())
        assert weights == [4, 4, 4, 8]

    def test_rm_2_0_single_row(self):
        rows = rm_generator_rows(2, 0)
        assert rows.shape == (1, 4) and rows.sum() == 4

    def test_row_count_matches_dimension(self):
        for m in range(1, 6):
            for r in range(m + 1):
                assert rm_generator_rows(m, r).shape[0] == rm_spec(m, r).k


def row_span(rows: np.ndarray) -> set[bytes]:
    """All GF(2) combinations of the rows: the brute-force codebook oracle."""
    k, n = rows.shape
    span = set()
    for bits in all_messages(k):
        span.add(((bits @ rows) % 2).astype(np.uint8).tobytes())
    return span


class TestCodebook:
    def test_rm_1_1_images(self):
        cb = enumerate_codebook(build_rm_tree(1, 1))
        assert [cw.tolist() for cw in cb.codewords] == [[0, 0], [0, 1], [1, 1], [1, 0]]

    def test_rm_2_0(self):
        cb = enumerate_codebook(build_rm_tree(2, 0))
        assert sorted(cw.tolist() for cw in cb.codewords) == [[0] * 4, [1] * 4]

    def test_rm_3_1_weight_multiset(self):
        cb = enumerate_codebook(build_rm_tree(3, 1))
        weights = sorted(int(cw.sum()) for cw in cb.codewords)
        assert weights == [0] + [4] * 14 + [8]

    def test_too_large_rejected(self):
        with pytest.raises(ValueError):
            enumerate_codebook(build_rm_tree(5, 5))

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_set_equality_with_kronecker_rows(self, m):
        for r in range(m + 1):
            tree = build_rm_tree(m, r)
            tree_set = {cw.tobytes() for cw in enumerate_codebook(tree).codewords}
            assert tree_set == row_span(rm_generator_rows(m, r))

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_minimum_distance(self, m):
        for r in range(m + 1):
            cb = enumerate_codebook(build_rm_tree(m, r))
            nonzero = [int(cw.sum()) for cw in cb.codewords if cw.any()]
            assert min(nonzero) == 2 ** (m - r)

    @pytest.mark.parametrize("k", [0, 1, 5, 12])
    def test_message_index_is_the_row_of_all_messages(self, k):
        assert np.array_equal(message_index(all_messages(k)), np.arange(2 ** k))


LEAVES = [Leaf(REPETITION, 3, 0, 1), Leaf(FIRST_ORDER, 4, 2, 7), Leaf(FULL_RATE, 2, 0, 4)]


class TestLeafCodebook:
    @pytest.mark.parametrize("leaf", LEAVES, ids=lambda lf: lf.label())
    def test_tables_are_read_only(self, leaf):
        table = leaf_codebook(leaf)
        for rows in (table.messages, table.codewords, table.signs, table.bit_is_zero,
                     leaf_generator(leaf)):
            with pytest.raises(ValueError, match="read-only"):
                rows[0] = rows[-1]
        assert leaf_codebook(leaf) is table and leaf_generator(leaf) is leaf_generator(leaf)

    @pytest.mark.parametrize("m", range(1, 11))
    def test_first_order_rows_are_the_hadamard_rows_then_their_negations(self, m):
        leaf = Leaf(FIRST_ORDER, m, 0, m + 1)
        table = leaf_codebook(leaf)
        h = hadamard_matrix(m)
        assert np.array_equal(table.signs, np.concatenate([h, -h]))
        assert np.array_equal(encode_leaf(leaf, table.messages), table.codewords)

    @pytest.mark.parametrize("leaf", [Leaf(REPETITION, 3, 0, 1), Leaf(FULL_RATE, 2, 0, 4)],
                             ids=lambda lf: lf.label())
    def test_other_kinds_list_all_messages(self, leaf):
        table = leaf_codebook(leaf)
        assert np.array_equal(table.messages, all_messages(leaf.k))
        assert np.array_equal(table.bit_is_zero, table.messages.T == 0)
        assert np.array_equal(table.signs, 1.0 - 2.0 * encode_leaf(leaf, table.messages))


class TestPolarReliabilities:
    def test_one_step(self):
        assert polar_reliabilities(2, 0.5).tolist() == [0.75, 0.25]

    def test_two_steps(self):
        got = polar_reliabilities(4, 0.5)
        assert got.tolist() == [0.9375, 0.5625, 0.4375, 0.0625]

    def test_n64_smallest_indices(self):
        z = polar_reliabilities(64, 0.5)
        smallest = sorted(np.argsort(z)[:7].tolist())
        assert smallest == [47, 55, 59, 60, 61, 62, 63]

    def test_rejects_bad_z0(self):
        for z0 in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                polar_reliabilities(4, z0)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            polar_reliabilities(12, 0.5)

    def test_size_limit(self):
        assert polar_reliabilities(1 << MAX_TREE_M, 0.5).size == 1 << MAX_TREE_M
        for n in (1 << (MAX_TREE_M + 1), 1 << 30):
            with pytest.raises(ValueError, match="power of two up to"):
                polar_spec(n, 7)


class TestPolarSpec:
    def test_paper_64_7(self):
        assert polar_spec(64, 7, 0.5).active_set == (48, 56, 60, 61, 62, 63, 64)

    def test_2_1(self):
        assert polar_spec(2, 1, 0.5).active_set == (2,)

    def test_full_rate(self):
        assert polar_spec(4, 4, 0.5).active_set == (1, 2, 3, 4)

    def test_frozen_set_complement(self):
        spec = polar_spec(8, 3)
        assert sorted(spec.active_set + spec.frozen_set) == list(range(1, 9))


class TestPolarTree:
    def test_64_7_shape(self):
        tree = build_polar_tree(polar_spec(64, 7))
        leaves = tree.leaves()
        assert len(tree.internal_nodes()) == 7
        frozen = [lf for lf in leaves if lf.kind == FROZEN]
        assert len(frozen) == 1 and frozen[0].length == 32
        assert len(tree.message_leaves()) == 7
        labels = [lf.label() for lf in leaves]
        assert labels == ["frozen(32)", "RM(4,0)", "RM(3,0)", "RM(2,0)",
                          "RM(0,0)", "RM(0,0)", "RM(0,0)", "RM(0,0)"]

    def test_full_rate_collapses(self):
        tree = build_polar_tree(polar_spec(2, 2))
        assert isinstance(tree.root, Leaf) and tree.root.kind == FULL_RATE

    def test_4_1_shape(self):
        spec = polar_spec(4, 1)
        assert spec.active_set == (4,)
        tree = build_polar_tree(spec)
        root = tree.root
        assert isinstance(root, Internal)
        assert root.v.kind == FROZEN and root.v.length == 2
        assert root.u.kind == REPETITION and root.u.length == 2

    def test_decode_order_is_ascending_positions(self):
        # message slices descend across the decode order, so the leaf
        # decoded first carries the last message bit
        tree = build_polar_tree(polar_spec(64, 7))
        slices = [(lf.lo, lf.hi) for lf in tree.message_leaves()]
        assert slices == [(6, 7), (5, 6), (4, 5), (3, 4), (2, 3), (1, 2), (0, 1)]


class TestPolarEncode:
    def test_all_zero(self):
        spec = polar_spec(64, 7)
        assert not polar_encode(spec, np.zeros(7, dtype=np.uint8)).any()

    def test_2_1_kernel_multiply(self):
        spec = polar_spec(2, 1)
        assert polar_encode(spec, [1]).tolist() == [1, 1]

    def test_matrix_equals_tree_randomized(self):
        spec = polar_spec(64, 7)
        tree = build_polar_tree(spec)
        msgs = np.random.default_rng(11).integers(0, 2, (100, 7), dtype=np.uint8)
        assert np.array_equal(polar_encode(spec, msgs), tree_encode(tree, msgs))

    @pytest.mark.parametrize("n,k", [(4, 1), (8, 3), (16, 5), (32, 9)])
    def test_matrix_equals_tree_other_codes(self, n, k):
        spec = polar_spec(n, k)
        tree = build_polar_tree(spec)
        msgs = all_messages(k)
        assert np.array_equal(polar_encode(spec, msgs), tree_encode(tree, msgs))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            polar_encode(polar_spec(4, 2), [1])


class TestTreeSerialization:
    def test_round_trip_fields(self):
        tree = build_rm_tree(3, 1)
        doc = tree.to_dict()
        assert doc["n"] == 8 and doc["k"] == 4
        assert doc["root"]["v"]["label"] == "RM(2,0)"

    def test_hash_distinguishes_codes(self):
        assert (build_rm_tree(3, 1).structure_hash()
                != build_rm_tree(4, 1).structure_hash())

    def test_hash_stable(self):
        assert (build_rm_tree(3, 1).structure_hash()
                == build_rm_tree(3, 1).structure_hash())
