"""Bit identity of the classical kernels against their plain reference forms.

Each reference below is the straightforward expression the kernel computes:
the np.stack butterfly transform, the GF(2) matmul first-order encoder, the
codeword rebuilt from a float Hadamard row, and the arithmetic BPSK map and
channel. The kernels must reproduce them bit for bit, not just to rounding.
"""
import numpy as np
import pytest

from plotkinlab import bits as bits_module
from plotkinlab.bits import as_bits, bpsk, hadamard_matrix, parity_table
from plotkinlab.channel import awgn, bursty, rayleigh_fast, transmit
from plotkinlab.codes import encode_first_order
from plotkinlab.decoding import FHT_TILE_ROWS, fht, fht_map_decode_rm1

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
