import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plotkinlab.bits import KERNEL, as_bits, bpsk, kronecker_generator


def xor_words(u, v) -> np.ndarray:
    """Coordinate-wise XOR of two equal-length binary words."""
    ub, vb = as_bits(u, "u"), as_bits(v, "v")
    if ub.shape[-1] != vb.shape[-1]:
        raise ValueError(f"length mismatch: {ub.shape[-1]} vs {vb.shape[-1]}")
    return ub ^ vb


def plotkin_map(u, v) -> np.ndarray:
    """Combine equal-length words into (u, u XOR v), doubling the length."""
    ub, vb = as_bits(u, "u"), as_bits(v, "v")
    if ub.shape[-1] != vb.shape[-1]:
        raise ValueError(f"length mismatch: {ub.shape[-1]} vs {vb.shape[-1]}")
    return np.concatenate([ub, ub ^ vb], axis=-1)


def hamming_weight(w) -> int:
    """Number of 1-entries in a binary word."""
    return int(np.sum(as_bits(w)))


words = st.lists(st.integers(0, 1), min_size=1, max_size=64)


def paired_words(draw):
    u = draw(words)
    v = draw(st.lists(st.integers(0, 1), min_size=len(u), max_size=len(u)))
    return u, v


class TestXor:
    def test_identity(self):
        assert xor_words([0, 0, 0, 0], [1, 0, 1, 1]).tolist() == [1, 0, 1, 1]

    def test_self_inverse(self):
        assert xor_words([1, 1], [1, 1]).tolist() == [0, 0]

    def test_bitwise(self):
        assert xor_words([1, 0, 1, 0], [0, 1, 1, 0]).tolist() == [1, 1, 0, 0]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            xor_words([0, 1], [0, 1, 1])

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            xor_words([0, 2], [0, 1])

    @given(st.data())
    def test_commutative_associative_self_inverse(self, data):
        n = data.draw(st.integers(1, 32))
        bit = st.lists(st.integers(0, 1), min_size=n, max_size=n)
        u, v, w = data.draw(bit), data.draw(bit), data.draw(bit)
        assert np.array_equal(xor_words(u, v), xor_words(v, u))
        assert np.array_equal(xor_words(xor_words(u, v), w),
                              xor_words(u, xor_words(v, w)))
        assert not xor_words(u, u).any()


class TestPlotkin:
    def test_zero_v(self):
        assert plotkin_map([1, 0], [0, 0]).tolist() == [1, 0, 1, 0]

    def test_zero_u(self):
        assert plotkin_map([0, 0], [1, 1]).tolist() == [0, 0, 1, 1]

    def test_direct(self):
        got = plotkin_map([1, 1, 0, 0], [1, 0, 1, 0])
        assert got.tolist() == [1, 1, 0, 0, 0, 1, 1, 0]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            plotkin_map([1], [1, 0])

    @given(st.data())
    def test_round_trip(self, data):
        n = data.draw(st.integers(1, 32))
        bit = st.lists(st.integers(0, 1), min_size=n, max_size=n)
        u, v = np.array(data.draw(bit)), np.array(data.draw(bit))
        c = plotkin_map(u, v)
        assert np.array_equal(c[:n], u)
        assert np.array_equal(c[:n] ^ c[n:], v)


class TestKronecker:
    def test_kernel(self):
        assert kronecker_generator(1).tolist() == [[0, 1], [1, 1]]
        assert KERNEL.tolist() == [[0, 1], [1, 1]]

    def test_m2_hand_expansion(self):
        by_hand = np.kron(np.array([[0, 1], [1, 1]]), np.array([[0, 1], [1, 1]]))
        assert np.array_equal(kronecker_generator(2), by_hand % 2)

    def test_m3_row_weights(self):
        weights = sorted(kronecker_generator(3).sum(axis=1).tolist())
        assert weights == sorted([1, 2, 2, 4, 2, 4, 4, 8])

    def test_dimensions(self):
        for m in range(1, 7):
            assert kronecker_generator(m).shape == (2**m, 2**m)

    def test_out_of_range(self):
        for m in (0, 13, -1):
            with pytest.raises(ValueError):
                kronecker_generator(m)


class TestHammingWeight:
    @pytest.mark.parametrize("word,weight", [
        ([0, 0, 0], 0),
        ([1, 1, 1, 1], 4),
        ([1, 0, 1, 1, 0], 3),
    ])
    def test_values(self, word, weight):
        assert hamming_weight(word) == weight


class TestBpsk:
    def test_values(self):
        assert bpsk([0, 0]).tolist() == [1.0, 1.0]
        assert bpsk([1, 1]).tolist() == [-1.0, -1.0]
        assert bpsk([0, 1, 0]).tolist() == [1.0, -1.0, 1.0]

    @given(st.data())
    @settings(max_examples=50)
    def test_xor_becomes_multiplication(self, data):
        n = data.draw(st.integers(1, 32))
        bit = st.lists(st.integers(0, 1), min_size=n, max_size=n)
        u, v = data.draw(bit), data.draw(bit)
        assert np.array_equal(bpsk(xor_words(u, v)), bpsk(u) * bpsk(v))

    def test_bijection(self):
        assert as_bits(((1 - bpsk([0, 1, 1, 0])) / 2).astype(int)).tolist() == [0, 1, 1, 0]
