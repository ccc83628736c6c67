"""Bit identity of the classical kernels against their plain reference forms.

Each reference below is the straightforward expression the kernel computes:
the np.stack butterfly transform, the GF(2) matmul first-order encoder, the
codeword rebuilt from a float Hadamard row, the arithmetic BPSK map and
channel, the taped dense block on its stacked input, the np.prod soft
re-encoder and its np.delete pullback, the brute-force max-log search over
a leaf's codebook, the soft-MAP node that forms its argmax pair eagerly,
and the allocating forms of lse, stable_sigmoid, parity_adjusted_add and
the SELU slope. The kernels must reproduce them bit for bit, not just to
rounding.
"""
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plotkinlab import autodiff as ad
from plotkinlab import bits as bits_module
from plotkinlab import decoding as decoding_module
from plotkinlab import ko as ko_module
from plotkinlab.bits import as_bits, bpsk, hadamard_matrix, parity_table
from plotkinlab.channel import awgn, bursty, rayleigh_fast, transmit
from plotkinlab.codes import (
    FIRST_ORDER,
    FROZEN,
    FULL_RATE,
    REPETITION,
    Leaf,
    PlotkinTree,
    build_polar_tree,
    build_rm_tree,
    encode_first_order,
    leaf_codebook,
    leaf_generator,
    polar_spec,
)
from plotkinlab.decoding import (
    FHT_TILE_ROWS,
    HARD_MAP,
    LLR_LIMIT,
    SOFT_MAP,
    dumer_decode,
    fht,
    fht_map_decode_rm1,
    lse,
    majority_decode_repetition,
    map_decode,
    max_log_llrs,
    parity_adjusted_add,
    row_tiles,
    soft_map_llrs,
    soft_reencode,
    softmap_forward,
    softmap_scores,
    stable_sigmoid,
)
from plotkinlab.ko import (
    build_ko_model,
    ko_decode,
    save_checkpoint,
    soft_reencode_node,
    softmap_node,
)
from plotkinlab.training import TrainConfig, train

TILE = FHT_TILE_ROWS
SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.0e-308,
                     -3.3e-310, 1e308, -1.7e308, 8.9e307])


def reference_fht(l):
    x = np.asarray(l, dtype=np.float64)
    n = x.shape[-1]
    shape = x.shape
    x = x.reshape(-1, n).copy()
    h = 1
    while h < n:
        y = x.reshape(-1, n // (2 * h), 2, h)
        x = np.stack([y[:, :, 0] + y[:, :, 1], y[:, :, 0] - y[:, :, 1]], axis=2)
        x = x.reshape(-1, n)
        h *= 2
    return x.reshape(shape)


def reference_encode_first_order(m, msg):
    msg = np.atleast_2d(msg)
    pos = np.arange(1 << m)
    xbits = ((pos[:, None] >> np.arange(m)[None, :]) & 1).astype(np.uint8)
    return ((msg[:, :1] + msg[:, 1:] @ xbits.T) % 2).astype(np.uint8)


def reference_rm1_codeword(l, m):
    """fht_map_decode_rm1's codeword rebuilt from the float Hadamard row."""
    t = np.atleast_2d(reference_fht(l))
    best = np.argmax(np.abs(t), axis=1)
    neg = t[np.arange(t.shape[0]), best] < 0
    rows = hadamard_matrix(m)[best]
    return ((1.0 - np.where(neg, -1.0, 1.0)[:, None] * rows) / 2.0).astype(np.uint8)


def special_inputs(rng, batch, n):
    """Gaussian LLRs with about a quarter of the entries replaced by signed
    zeros, infinities, subnormals and magnitudes near the float limit."""
    x = rng.standard_normal((batch, n)) * 10.0 ** rng.integers(-3, 4, (batch, n))
    hit = rng.random((batch, n)) < 0.25
    x[hit] = rng.choice(SPECIALS, size=int(hit.sum()))
    return x


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


LENGTHS = [1 << m for m in range(11)]
BATCHES = [1, TILE - 1, TILE, TILE + 1, 3 * TILE + 5]


class TestFht:
    @pytest.mark.parametrize("n", LENGTHS)
    def test_tile_boundaries_bit_identical(self, n):
        rng = np.random.default_rng(n)
        for batch in BATCHES:
            x = rng.standard_normal((batch, n))
            assert same_bits(fht(x), reference_fht(x)), batch

    @pytest.mark.parametrize("n", LENGTHS)
    def test_special_values_bit_identical(self, n):
        x = special_inputs(np.random.default_rng(100 + n), TILE + 1, n)
        with np.errstate(over="ignore", invalid="ignore"):
            assert same_bits(fht(x), reference_fht(x))

    def test_leading_axes_and_single_row(self):
        x = np.random.default_rng(3).standard_normal((3, 5, 16))
        assert same_bits(fht(x), reference_fht(x))
        assert same_bits(fht(x[0, 0]), reference_fht(x[0, 0]))

    def test_input_untouched(self):
        x = np.random.default_rng(4).standard_normal((7, 32))
        before = x.copy()
        fht(x)
        assert same_bits(x, before)


class TestFirstOrder:
    @pytest.mark.parametrize("m", range(11))
    def test_encoder_matches_matmul(self, m):
        rng = np.random.default_rng(m)
        msgs = rng.integers(0, 2, size=(TILE + 1, m + 1), dtype=np.uint8)
        got = encode_first_order(m, msgs)
        assert got.dtype == np.uint8
        assert np.array_equal(got, reference_encode_first_order(m, msgs))

    @pytest.mark.parametrize("m", range(11))
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_fht_map_codeword_matches_hadamard_rebuild(self, m):
        rng = np.random.default_rng(200 + m)
        for l in (rng.standard_normal((TILE + 1, 1 << m)),
                  special_inputs(rng, 257, 1 << m)):
            cw, msg = fht_map_decode_rm1(l, m)
            assert cw.dtype == np.uint8
            assert np.array_equal(cw, reference_rm1_codeword(l, m))
            # The codeword is the encoding of the decoded message.
            assert np.array_equal(cw, reference_encode_first_order(m, msg))

    def test_parity_table_is_read_only_hadamard_bits(self):
        for m in range(8):
            table = parity_table(m)
            assert not table.flags.writeable
            assert np.array_equal(table, (1 - hadamard_matrix(m)) / 2)

    def test_fallback_without_bitwise_count(self, monkeypatch):
        want = {m: (hadamard_matrix(m).copy(), parity_table(m).copy()) for m in range(9)}
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        bits_module.hadamard_matrix.cache_clear()
        bits_module.parity_table.cache_clear()
        try:
            for m, (h, p) in want.items():
                assert same_bits(hadamard_matrix(m), h)
                assert np.array_equal(parity_table(m), p)
        finally:
            bits_module.hadamard_matrix.cache_clear()
            bits_module.parity_table.cache_clear()


class TestBitsAndChannel:
    def test_bpsk_matches_arithmetic_map(self):
        b = np.random.default_rng(5).integers(0, 2, size=(300, 64), dtype=np.uint8)
        for w in (b, b.astype(np.int64), b.astype(bool), b.tolist()):
            assert same_bits(bpsk(w), 1.0 - 2.0 * np.asarray(w).astype(np.float64))

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.float64])
    def test_as_bits_rejects_non_bits_of_any_dtype(self, dtype):
        for bad in ([0, 2, 1], [1, 255], [0, 1, 7]):
            with pytest.raises(ValueError):
                as_bits(np.array(bad).astype(dtype))
        assert as_bits(np.array([1, 0], dtype=dtype)).dtype == np.uint8

    @pytest.mark.parametrize("ch", [awgn(0.8), rayleigh_fast(0.8), bursty(0.8)],
                             ids=["awgn", "rayleigh", "bursty"])
    def test_transmit_matches_reference_expression(self, ch):
        x = bpsk(np.random.default_rng(6).integers(0, 2, size=(200, 32), dtype=np.uint8))
        rng = np.random.default_rng(7)
        noise = ch.sigma * rng.standard_normal(x.shape)
        if ch.kind == "awgn":
            want = x + noise
        elif ch.kind == "rayleigh":
            want = rng.rayleigh(scale=1.0 / np.sqrt(2.0), size=x.shape) * x + noise
        else:
            hits = rng.random(x.shape) < ch.burst_prob
            bursts = ch.burst_sigma * rng.standard_normal(x.shape)
            want = x + (noise + np.where(hits, bursts, 0.0))
        before = x.copy()
        assert same_bits(transmit(x, ch, np.random.default_rng(7)), want)
        assert same_bits(x, before)


def dense_tile(widths):
    """Packed rows per tile of an untaped block on width-1 features:
    TILE_FLOATS over its widest hidden layer."""
    return ad.TILE_FLOATS // max(widths[1:-1])


def columns(x):
    """The (rows, 1) column features whose packed array is x."""
    return [x[:, i:i + 1] for i in range(x.shape[1])]


def values(params):
    return [p.value for p in params]


def taped_block(block, features, params):
    """ko._residual's taped path: the features stacked along a last axis,
    reshaped to (batch * width, d) and run through the taped block."""
    batch, width = features[0].shape
    packed = ad.stack_last([ad.const(f) for f in features])
    return block.apply(ad.reshape(packed, (batch * width, len(features))), params)


class TestDenseKernel:
    """dense_forward (the features packed a row tile at a time, in place)
    against the taped DenseBlock.apply on the packed array, which runs each
    layer over all rows as separate tape operations."""

    @pytest.mark.parametrize("widths", [[2, 32, 32, 32, 1], [4, 32, 32, 32, 1],
                                        [2, 4, 1], [4, 4, 1]], ids=str)
    @pytest.mark.parametrize("special", [False, True], ids=["gaussian", "special"])
    def test_tile_boundaries_bit_identical(self, widths, special):
        rng = np.random.default_rng(sum(widths) + special)
        block = ad.init_weights(ad.DenseBlock.zeros(widths), rng)
        params = [ad.const(p) for p in block.parameters()]
        tile = dense_tile(widths)
        for rows in (tile - 1, tile, tile + 1, 3 * tile + 5):
            if special:
                x = special_inputs(rng, rows, widths[0])
                x[rng.random(x.shape) < 0.02] = np.nan
            else:
                x = rng.standard_normal((rows, widths[0]))
            before = x.copy()
            with np.errstate(over="ignore", invalid="ignore"):
                taped = block.apply(ad.const(x), params)
                plain = ad.dense_forward(columns(x), values(params))
            assert taped.parents
            assert same_bits(plain, taped.value), rows
            assert same_bits(x, before)

    @pytest.mark.parametrize("rows", [0, 1, 2, 7])
    def test_few_rows_and_a_single_layer(self, rows):
        rng = np.random.default_rng(rows)
        for widths in ([2, 32, 32, 32, 1], [3, 1]):
            block = ad.init_weights(ad.DenseBlock.zeros(widths), rng)
            params = [ad.const(p) for p in block.parameters()]
            x = rng.standard_normal((rows, widths[0]))
            taped = block.apply(ad.const(x), params).value
            assert same_bits(ad.dense_forward(columns(x), values(params)), taped)

    @pytest.mark.parametrize("tile_floats", [1, 256])
    @pytest.mark.parametrize("width", [1, 2, 128])
    @pytest.mark.parametrize("widths", [[2, 32, 32, 32, 1], [4, 4, 1], [3, 1]], ids=str)
    def test_column_slice_features(self, monkeypatch, tile_floats, width, widths):
        """Non-contiguous (batch, width) column slices of one array, as
        slice_cols makes them, with signed zeros, infinities, NaNs and
        subnormals, at one batch row and at a tile of batch rows less one,
        exact and plus one; no tile packs one row unless the input has one."""
        monkeypatch.setattr(ad, "TILE_FLOATS", tile_floats)
        tiles_made = []

        def spy(rows, tile):
            tiles_made.append((rows, tile))
            return row_tiles(rows, tile)

        monkeypatch.setattr(ad, "row_tiles", spy)
        rng = np.random.default_rng(tile_floats + width + sum(widths))
        block = ad.init_weights(ad.DenseBlock.zeros(widths), rng, std=0.5)
        params = [ad.const(p) for p in block.parameters()]
        d = widths[0]
        ad.dense_forward([np.zeros((1, width))] * d, values(params))
        tile = tiles_made.pop()[1]
        batches = sorted({1, max(tile - 1, 1), tile, tile + 1, 2 * tile + 1})
        for batch in batches:
            y = special_inputs(rng, batch, (d + 1) * width)
            y[rng.random(y.shape) < 0.02] = np.nan
            before = y.copy()
            features = [y[:, i * width:(i + 1) * width] for i in range(1, d + 1)]
            assert batch == 1 or not features[0].flags.c_contiguous
            with np.errstate(over="ignore", invalid="ignore"):
                taped = taped_block(block, features, params)
                plain = ad.dense_forward(features, values(params))
            assert same_bits(plain, taped.value), batch
            assert same_bits(y, before)
        assert [batch for batch, _ in tiles_made] == batches
        for batch, tile in tiles_made:
            rows = [(hi - lo) * width for lo, hi in row_tiles(batch, tile)]
            assert min(rows) > 1 or batch * width == 1, (batch, rows)


def reference_soft_reencode(leaf, p):
    """The B x k x length product the re-encoder replaced."""
    p = np.atleast_2d(p)
    gen = leaf_generator(leaf)
    t = 1.0 - 2.0 * p
    return np.prod(np.where(gen[None, :, :] == 1, t[:, :, None], 1.0), axis=1)


SOFT_LEAVES = ([Leaf(FIRST_ORDER, m, 0, m + 1) for m in range(9)]
               + [Leaf(REPETITION, m, 0, 1) for m in range(5)]
               + [Leaf(FULL_RATE, m, 0, 1 << m) for m in range(4)])


class TestSoftReencodeKernel:
    @pytest.mark.parametrize("m", range(11))
    def test_first_order_generator_rows_follow_the_parity_table(self, m):
        gen = leaf_generator(Leaf(FIRST_ORDER, m, 0, m + 1))
        assert (gen[0] == 1).all()
        assert np.array_equal(gen[1:], parity_table(m)[1 << np.arange(m)])

    @pytest.mark.parametrize("leaf", SOFT_LEAVES, ids=lambda lf: lf.label())
    def test_equals_product_over_the_generator(self, leaf):
        rng = np.random.default_rng(leaf.length + leaf.k)
        p = rng.random((257, leaf.k))
        hit = rng.random(p.shape) < 0.2
        p[hit] = rng.choice([0.0, 1.0, 0.5, -0.0, 5e-324, 1.0 - 2**-53, 1e-300, np.nan],
                            size=int(hit.sum()))
        assert same_bits(soft_reencode(leaf, p), reference_soft_reencode(leaf, p))
        assert same_bits(soft_reencode(leaf, p[3]), reference_soft_reencode(leaf, p[3])[0])


def reference_softmap(leaf, l):
    """Max-log LLRs by brute force over every codeword score."""
    return max_log_llrs(softmap_scores(leaf, l), leaf_codebook(leaf).bit_is_zero)[0]


# Inputs that tie codeword scores: integers, +-1, signed zeros, all +0 or
# all -0 rows, and magnitudes at the decoders' input clip.
TIE_ALPHABETS = {
    "gaussian": None,
    "integers": np.arange(-3.0, 4.0),
    "pm_one": np.array([-1.0, 1.0]),
    "zeros_and_ones": np.array([0.0, -0.0, 1.0, -1.0]),
    "plus_zero": np.array([0.0]),
    "minus_zero": np.array([-0.0]),
    "near_limit": np.array([1e300, -1e300]),
}


def tie_input(rng, alphabet, rows, n):
    values = TIE_ALPHABETS[alphabet]
    if values is None:
        return rng.standard_normal((rows, n))
    return rng.choice(values, size=(rows, n))


def first_order(m):
    return Leaf(FIRST_ORDER, m, 0, m + 1)


class TestFirstOrderSoftMap:
    """The closed-form first-order softmap_forward against the brute-force
    max-log search, sign of zero included."""

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 10), rows=st.integers(0, 4),
           alphabet=st.sampled_from(sorted(TIE_ALPHABETS)), seed=st.integers(0, 2**32 - 1))
    def test_property_bit_identical(self, m, rows, alphabet, seed):
        l = tie_input(np.random.default_rng(seed), alphabet, rows, 1 << m)
        assert same_bits(softmap_forward(first_order(m), l), reference_softmap(first_order(m), l))

    @pytest.mark.parametrize("m", range(1, 11))
    @pytest.mark.parametrize("alphabet", sorted(TIE_ALPHABETS))
    def test_tie_inputs_bit_identical(self, m, alphabet):
        rng = np.random.default_rng(m)
        for rows in (0, 1, 9):
            l = tie_input(rng, alphabet, rows, 1 << m)
            got = softmap_forward(first_order(m), l)
            assert got.shape == (rows, m + 1)
            assert same_bits(got, reference_softmap(first_order(m), l)), rows

    @pytest.mark.parametrize("m", [1, 2, 7])
    def test_zero_rows_across_tiles(self, m):
        rng = np.random.default_rng(300 + m)
        l = rng.standard_normal((TILE + 5, 1 << m))
        for row in (0, TILE - 1, TILE, TILE + 3):
            l[row] = rng.choice([0.0, -0.0], size=1 << m)
        assert same_bits(softmap_forward(first_order(m), l), reference_softmap(first_order(m), l))

    @pytest.mark.parametrize("m", range(1, 11))
    def test_single_row(self, m):
        rng = np.random.default_rng(400 + m)
        for alphabet in ("gaussian", "zeros_and_ones", "minus_zero"):
            l = tie_input(rng, alphabet, 1, 1 << m)
            assert same_bits(soft_map_llrs(first_order(m), l[0]), reference_softmap(first_order(m), l)[0])

    def test_frozen_leaf_raises(self):
        with pytest.raises(ValueError):
            softmap_forward(Leaf(FROZEN, 2, 0, 0), np.zeros((1, 4)))


def eager_softmap_node(leaf, feat):
    """softmap_node as it was: the argmax pair formed in the forward pass."""
    data = leaf_codebook(leaf)
    llrs, arg0, arg1 = max_log_llrs(softmap_scores(leaf, feat.value), data.bit_is_zero)

    def vjp(g):
        dl = np.zeros_like(feat.value)
        for i in range(llrs.shape[1]):
            dl += g[:, i:i + 1] * (data.signs[arg0[:, i]] - data.signs[arg1[:, i]])
        return (dl,)

    return ad.custom_op(llrs, (feat,), vjp)


def reference_reencode_vjp(leaf, p, g):
    """soft_reencode_node's pullback as it was: the B x (k-1) x length
    leave-one-out product over np.delete copies."""
    gen = leaf_generator(leaf)
    t = 1.0 - 2.0 * p
    dt = np.zeros_like(t)
    for i in range(gen.shape[0]):
        others = np.delete(gen, i, axis=0)
        loo = np.prod(np.where(others[None, :, :] == 1,
                               np.delete(t, i, axis=1)[:, :, None], 1.0), axis=1)
        dt[:, i] = np.sum(g * gen[i][None, :] * loo, axis=1)
    return -2.0 * dt


class TestLeafPullbacks:
    @pytest.mark.parametrize("leaf", SOFT_LEAVES, ids=lambda lf: lf.label())
    @pytest.mark.parametrize("alphabet", ["gaussian", "integers", "zeros_and_ones", "minus_zero"])
    def test_softmap_gradient_matches_eager_argmax(self, leaf, alphabet):
        rng = np.random.default_rng(leaf.length + leaf.k)
        x = tie_input(rng, alphabet, 33, leaf.length)
        g = rng.standard_normal((33, leaf.k))
        lazy = softmap_node(leaf, ad.var(x))
        eager = eager_softmap_node(leaf, ad.var(x))
        assert same_bits(lazy.value, eager.value)
        assert same_bits(lazy.vjp(g)[0], eager.vjp(g)[0])

    @pytest.mark.parametrize("leaf", SOFT_LEAVES, ids=lambda lf: lf.label())
    def test_reencode_gradient_matches_leave_one_out_product(self, leaf):
        rng = np.random.default_rng(500 + leaf.length + leaf.k)
        p = rng.random((65, leaf.k))
        hit = rng.random(p.shape) < 0.2
        p[hit] = rng.choice([0.0, 1.0, 0.5, -0.0, 5e-324, 1.0 - 2**-53, 1e-300],
                            size=int(hit.sum()))
        g = rng.standard_normal((65, leaf.length))
        node = soft_reencode_node(leaf, ad.var(p))
        assert same_bits(node.vjp(g)[0], reference_reencode_vjp(leaf, p, g))

    def test_inference_scores_no_first_order_codebook(self, monkeypatch):
        """Soft Dumer and untaped KO decoding score the codebook of the
        RM(2,2) leaf alone; first-order leaves take the closed form."""
        scored = []

        def recording(scores, bit_is_zero):
            scored.append(scores.shape[1])
            return max_log_llrs(scores, bit_is_zero)

        monkeypatch.setattr(decoding_module, "max_log_llrs", recording)
        monkeypatch.setattr(ko_module, "max_log_llrs", recording)
        y = np.random.default_rng(8).standard_normal((4, 256))
        dumer_decode(build_rm_tree(8, 2), y, SOFT_MAP)
        ko_decode(build_ko_model(build_rm_tree(8, 2), {"family": "rm", "m": 8, "r": 2},
                                 "tiny", seed=1), y)
        assert scored == [16, 16]

    def test_training_checkpoint_matches_eager_argmax(self, tmp_path, monkeypatch):
        cfg = TrainConfig(epochs=1, dec_steps=2, enc_steps=2, batch_size=16, seed=5)

        def trained_bytes(path):
            model = build_ko_model(build_rm_tree(8, 2), {"family": "rm", "m": 8, "r": 2},
                                   "tiny", seed=2)
            train(model, cfg)
            save_checkpoint(model, path)
            return path.read_bytes()

        lazy = trained_bytes(tmp_path / "lazy.json")
        monkeypatch.setattr(ko_module, "softmap_node", eager_softmap_node)
        assert trained_bytes(tmp_path / "eager.json") == lazy


def reference_lse(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    mag = np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))
    return mag + np.log1p(np.exp(-np.abs(a + b))) - np.log1p(np.exp(-np.abs(a - b)))


def reference_stable_sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reference_parity_adjusted_add(l1, l2, v):
    l1 = np.asarray(l1, dtype=np.float64)
    l2 = np.asarray(l2, dtype=np.float64)
    v = np.asarray(v)
    return l1 + (v if v.dtype.kind == "f" else 1.0 - 2.0 * v) * l2


def reference_selu_slope(x):
    ex = np.exp(np.minimum(x, 0.0))
    return np.where(x > 0, ad.SELU_LAMBDA, ad.SELU_LAMBDA * ad.SELU_ALPHA * ex)


# SPECIALS with both NaN signs, the decoders' clip and a few ordinary values
GRID = np.concatenate([SPECIALS, [np.nan, -np.nan, LLR_LIMIT, -LLR_LIMIT, 1.0, -2.5,
                                  1e-200, -1e-200, 700.0, -745.0]])


def kernel_tiles(rng):
    """A 1,024 x 128 Gaussian tile at mixed scales and a special_inputs tile."""
    x = rng.standard_normal((TILE, 128)) * 10.0 ** rng.integers(-3, 4, (TILE, 128))
    return [x, special_inputs(rng, 257, 64)]


class TestClassicalKernels:
    """lse, stable_sigmoid, parity_adjusted_add and the SELU slope against
    their allocating forms, as int64 bit patterns: NaN signs, -0 and
    infinities included."""

    def grid_pairs(self):
        return np.meshgrid(GRID, GRID)

    def test_lse_grid_and_tiles(self):
        a, b = self.grid_pairs()
        rng = np.random.default_rng(11)
        pairs = [(a, b)] + [(x, y) for x, y in zip(kernel_tiles(rng), kernel_tiles(rng))]
        for x, y in pairs:
            with np.errstate(all="ignore"):
                assert same_bits(lse(x, y), reference_lse(x, y))

    def test_lse_zero_d_and_broadcast(self):
        for a, b in [(0.0, 3.0), (-0.0, 1e300), (2.5, -1.0), (np.nan, 1.0), (1e-320, -4.0)]:
            got = lse(a, b)
            assert isinstance(got, np.float64)
            assert same_bits(np.asarray(got), np.asarray(reference_lse(a, b)))
        a = np.random.default_rng(12).standard_normal((5, 1))
        b = np.random.default_rng(13).standard_normal(7)
        for x, y in [(a, b), (b, a), (a, 0.5), (-2.0, b)]:
            assert same_bits(lse(x, y), reference_lse(x, y))

    def test_lse_at_the_clip_warns_of_nothing(self):
        """At +/-LLR_LIMIT a*b overflows to an infinity of the right sign;
        the overflow stays inside lse."""
        rng = np.random.default_rng(14)
        a = rng.choice([LLR_LIMIT, -LLR_LIMIT, 0.0, -0.0, 1.0, 5e-324], size=(64, 32))
        b = rng.choice([LLR_LIMIT, -LLR_LIMIT, 0.0, -0.0, -1.0, 5e-324], size=(64, 32))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = lse(a, b)
        assert same_bits(got, reference_lse(a, b))

    def test_stable_sigmoid_grid_tiles_and_zero_d(self):
        rng = np.random.default_rng(15)
        for x in [GRID, *kernel_tiles(rng), np.asarray(-0.0), np.asarray(np.nan), np.asarray(3.0)]:
            with np.errstate(all="ignore"):
                got = stable_sigmoid(x)
                assert same_bits(got, reference_stable_sigmoid(x))

    @pytest.mark.parametrize("v", ["uint8", "bool", "soft"])
    def test_parity_adjusted_add_grid_and_tiles(self, v):
        a, b = self.grid_pairs()
        rng = np.random.default_rng(16)
        pairs = [(a, b)] + [(x, y) for x, y in zip(kernel_tiles(rng), kernel_tiles(rng))]
        for x, y in pairs:
            if v == "soft":
                word = rng.choice(np.concatenate([GRID, rng.uniform(-1, 1, 8)]), size=x.shape)
            else:
                word = rng.integers(0, 2, size=x.shape).astype(v)
            with np.errstate(all="ignore"):
                want = reference_parity_adjusted_add(x, y, word)
                assert same_bits(parity_adjusted_add(x, y, word), want)
                out = np.empty_like(want)
                assert parity_adjusted_add(x, y, word, out=out) is out
            assert same_bits(out, want)

    def test_parity_adjusted_add_broadcast(self):
        rng = np.random.default_rng(17)
        l1, l2 = rng.standard_normal((4, 8)), rng.standard_normal(8)
        for word in (rng.integers(0, 2, 8).astype(np.uint8), rng.uniform(-1, 1, (3, 1, 8))):
            assert same_bits(parity_adjusted_add(l1, l2, word),
                             reference_parity_adjusted_add(l1, l2, word))

    def test_selu_slope_grid_and_tiles(self):
        rng = np.random.default_rng(18)
        for x in [GRID, *kernel_tiles(rng)]:
            with np.errstate(all="ignore"):
                want = reference_selu_slope(x)
                got = ad.selu_into(x, np.empty_like(x), np.empty_like(x), slope=True)
                assert same_bits(got, want)
                # in place: x then holds selu(x), which is > 0 exactly where x is
                y = x.copy()
                assert same_bits(ad.selu_into(y, y, np.empty_like(y), slope=True), want)


def reference_dumer_decode(tree, llr, rule):
    """dumer_decode as the row-major recursion over the public kernels: each
    node allocates its features and concatenates [u | u*v] (or u ^ v), over
    the same row tiles."""
    llr = np.clip(np.atleast_2d(np.asarray(llr, dtype=np.float64)), -LLR_LIMIT, LLR_LIMIT)
    message = np.zeros((llr.shape[0], tree.k), dtype=np.uint8)
    llrs = np.zeros((llr.shape[0], tree.k))

    def leaf_codeword(leaf, feat, rows):
        if leaf.kind == FROZEN:
            if rule == SOFT_MAP:
                return np.ones((feat.shape[0], leaf.length))
            return np.zeros((feat.shape[0], leaf.length), dtype=np.uint8)
        if rule == SOFT_MAP:
            l = softmap_forward(leaf, feat)
            llrs[rows, leaf.lo:leaf.hi] = l
            message[rows, leaf.lo:leaf.hi] = l < 0
            return soft_reencode(leaf, stable_sigmoid(-l))
        if leaf.kind == REPETITION:
            bits = majority_decode_repetition(feat)[:, None]
            cw = np.repeat(bits, leaf.length, axis=1)
        elif leaf.kind == FIRST_ORDER:
            cw, bits = fht_map_decode_rm1(feat, leaf.m)
        else:
            bits, cw = map_decode(leaf_codebook(leaf), feat)
        message[rows, leaf.lo:leaf.hi] = bits
        return cw

    def rec(node, feat, rows):
        if isinstance(node, Leaf):
            return leaf_codeword(node, feat, rows)
        half = node.length // 2
        f1, f2 = feat[:, :half], feat[:, half:]
        v = rec(node.v, reference_lse(f1, f2), rows)
        u = rec(node.u, reference_parity_adjusted_add(f1, f2, v), rows)
        return np.concatenate([u, u * v if u.dtype.kind == "f" else u ^ v], axis=1)

    tile = max(TILE, decoding_module.DECODE_TILE_FLOATS // tree.n)
    starts = list(range(0, max(llr.shape[0] - tile, 0) + 1, tile))
    for lo, hi in zip(starts, starts[1:] + [llr.shape[0]]):
        rec(tree.root, llr[lo:hi], slice(lo, hi))
    return message, (llrs if rule == SOFT_MAP else None)


def decode_bits(result):
    return (result.message.tobytes(), None if result.llrs is None else result.llrs.tobytes())


class TestDumerWorkspace:
    """dumer_decode's batch-major recursion in a per-call workspace: it
    decodes as the row-major recursion does, concurrent calls do not share
    the workspace, and the outputs own their memory."""

    @pytest.mark.parametrize("rule", [HARD_MAP, SOFT_MAP])
    def test_concurrent_decodes_match_sequential(self, rule):
        rng = np.random.default_rng(19)
        trees = [build_rm_tree(8, 2), build_rm_tree(7, 3), build_rm_tree(8, 2),
                 build_polar_tree(polar_spec(64, 7))]
        inputs = [rng.standard_normal((rows, tree.n)) + 0.5
                  for rows, tree in zip((2 * TILE + 3, 700, TILE, 4 * TILE + 1), trees)]
        want = [decode_bits(dumer_decode(t, y, rule)) for t, y in zip(trees, inputs)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(dumer_decode, t, y, rule) for t, y in zip(trees, inputs)]
            got = [decode_bits(f.result(timeout=120)) for f in futures]
        assert got == want

    @pytest.mark.parametrize("rule", [HARD_MAP, SOFT_MAP])
    @pytest.mark.parametrize("code", ["rm82", "rm73", "rm71", "rm33", "rm40", "polar64_7",
                                      "polar128_40", "first_order_root"])
    def test_matches_row_major_recursion(self, rule, code):
        """The batch-major recursion against the row-major one, bit for bit,
        on rows of signed zeros, subnormals and the clip, across tiles. In
        RM and Polar trees a first-order leaf sees only lse outputs, never
        mixed signed zeros; a first-order root gets them, so its zero rows
        take the search."""
        tree = {"rm82": build_rm_tree(8, 2), "rm73": build_rm_tree(7, 3),
                "rm71": build_rm_tree(7, 1), "rm33": build_rm_tree(3, 3),
                "rm40": build_rm_tree(4, 0), "polar64_7": build_polar_tree(polar_spec(64, 7)),
                "polar128_40": build_polar_tree(polar_spec(128, 40)),
                "first_order_root": PlotkinTree(first_order(5), 5, 32, 6, "RM(5,1) leaf")}[code]
        rng = np.random.default_rng(tree.n + tree.k)
        tile = max(TILE, decoding_module.DECODE_TILE_FLOATS // tree.n)
        llr = 2.0 * (0.5 + rng.standard_normal((tile + 7, tree.n)))
        llr[:3] = 0.0
        llr[3] = -0.0
        llr[4] = rng.choice([0.0, -0.0], size=tree.n)
        llr[5] = rng.choice([5e-324, -5e-324, LLR_LIMIT, -LLR_LIMIT, 1.0], size=tree.n)
        llr[tile + 1:tile + 3] = rng.choice([-2.0, -1.0, 0.0, 1.0, 2.0], size=(2, tree.n))
        for rows in (1, 7, tile + 7):
            got = dumer_decode(tree, llr[:rows], rule)
            message, llrs = reference_dumer_decode(tree, llr[:rows], rule)
            assert np.array_equal(got.message, message), rows
            if rule == SOFT_MAP:
                assert same_bits(got.llrs, llrs), rows

    @pytest.mark.parametrize("rule", [HARD_MAP, SOFT_MAP])
    @pytest.mark.parametrize("rows", [None, 1, TILE + 1])
    def test_outputs_share_no_memory(self, rule, rows):
        tree = build_rm_tree(6, 2)
        rng = np.random.default_rng(20)
        y = rng.standard_normal(tree.n if rows is None else (rows, tree.n))
        res = dumer_decode(tree, y, rule)
        arrays = [a for a in (res.message, res.llrs, y) if a is not None]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)
