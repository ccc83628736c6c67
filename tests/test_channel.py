import numpy as np
import pytest

from plotkinlab.bits import bpsk
from plotkinlab.channel import (
    NOISE_BLOCK,
    awgn,
    bursty,
    channel_llr,
    rayleigh_fast,
    sigma_to_snr,
    snr_to_sigma,
    transmit,
)


def modulate_normalize(c) -> np.ndarray:
    """Map a codeword (or batch) to real symbols with energy exactly n.

    Binary input goes through BPSK, which already satisfies the power
    constraint. Real input is rescaled per codeword to sqrt(n) * c / ||c||;
    an all-zero real codeword has no direction and is rejected.
    """
    arr = np.asarray(c)
    if arr.dtype.kind in "ui" or arr.dtype == bool:
        return bpsk(arr)
    arr = arr.astype(np.float64)
    single = arr.ndim == 1
    arr = np.atleast_2d(arr)
    n = arr.shape[1]
    norms = np.linalg.norm(arr, axis=1, keepdims=True)
    if np.any(norms == 0):
        raise ValueError("cannot normalize an all-zero codeword")
    out = np.sqrt(n) * arr / norms
    return out[0] if single else out


class TestSnrConvention:
    def test_zero_db(self):
        assert snr_to_sigma(0.0) == 1.0

    def test_minus_ten_db(self):
        assert snr_to_sigma(-10.0) == pytest.approx(3.16228, abs=1e-5)

    def test_six_db(self):
        assert snr_to_sigma(6.0) == pytest.approx(0.50119, abs=1e-5)

    def test_round_trip(self):
        for snr in (-10.0, -3.0, 0.0, 4.5):
            assert sigma_to_snr(snr_to_sigma(snr)) == pytest.approx(snr, abs=1e-12)


class TestModulateNormalize:
    def test_binary_input_is_bpsk(self):
        got = modulate_normalize(np.array([0, 1, 1, 0], dtype=np.uint8))
        assert got.tolist() == [1.0, -1.0, -1.0, 1.0]
        assert np.sum(got**2) == 4.0

    def test_real_input_rescaled(self):
        got = modulate_normalize(np.array([3.0, 4.0]))
        assert got == pytest.approx([np.sqrt(2) * 0.6, np.sqrt(2) * 0.8], abs=1e-12)

    def test_idempotent(self):
        x = modulate_normalize(np.array([0.3, -1.2, 0.7, 2.0]))
        assert modulate_normalize(x) == pytest.approx(x, abs=1e-12)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            modulate_normalize(np.zeros(4))

    def test_power_constraint_batch(self):
        rng = np.random.default_rng(0)
        x = modulate_normalize(rng.standard_normal((50, 64)))
        assert np.abs(np.sum(x**2, axis=1) - 64).max() <= 1e-9 * 64


class TestTransmit:
    def test_vanishing_noise(self):
        x = np.ones((4, 16))
        y = transmit(x, awgn(1e-9), np.random.default_rng(0))
        assert np.abs(y - x).max() < 1e-6

    def test_awgn_variance(self):
        rng = np.random.default_rng(1)
        sigma = 0.7
        y = transmit(np.zeros(10**6), awgn(sigma), rng)
        assert np.var(y) == pytest.approx(sigma**2, rel=0.01)

    def test_rayleigh_unit_power(self):
        rng = np.random.default_rng(2)
        a = rng.rayleigh(scale=1.0 / np.sqrt(2.0), size=10**6)
        assert np.mean(a**2) == pytest.approx(1.0, abs=0.01)

    def test_rayleigh_transmit_statistics(self):
        # with x = 1 and tiny noise, y is approximately the fading gain
        rng = np.random.default_rng(3)
        y = transmit(np.ones(10**6), rayleigh_fast(1e-6), rng)
        assert np.mean(y**2) == pytest.approx(1.0, abs=0.01)

    def test_bursty_fraction(self):
        # unit-scale bursts over negligible base noise make hits countable
        rng = np.random.default_rng(4)
        ch = bursty(1e-9, burst_prob=0.1, burst_sigma_mult=1e9)
        y = transmit(np.zeros(10**6), ch, rng)
        frac = np.mean(np.abs(y) > 1e-6)
        assert 0.098 <= frac <= 0.102

    def test_bursty_default_spike_scale(self):
        assert bursty(0.5).burst_sigma == pytest.approx(np.sqrt(2) * 0.5)

    def test_deterministic_replay(self):
        x = np.zeros((10, 32))
        for ch in (awgn(0.5), rayleigh_fast(0.5), bursty(0.5)):
            y1 = transmit(x, ch, np.random.default_rng(9))
            y2 = transmit(x, ch, np.random.default_rng(9))
            assert np.array_equal(y1, y2)

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            awgn(0.0)
        with pytest.raises(ValueError):
            bursty(1.0, burst_prob=1.5)


class TestChannelLlr:
    def test_zero_uninformative(self):
        assert not channel_llr(np.zeros(8), 1.0).any()

    def test_values(self):
        assert channel_llr(np.array([0.5]), 1.0)[0] == pytest.approx(1.0)
        assert channel_llr(np.array([-1.0]), 0.5)[0] == pytest.approx(-8.0)

    def test_linear_and_antisymmetric(self):
        rng = np.random.default_rng(5)
        y = rng.standard_normal(100)
        assert channel_llr(2 * y, 0.8) == pytest.approx(2 * channel_llr(y, 0.8))
        assert channel_llr(-y, 0.8) == pytest.approx(-channel_llr(y, 0.8))

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            channel_llr(np.zeros(4), 0.0)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype == np.float64 and a.shape == b.shape
            and np.array_equal(a.view(np.int64), b.view(np.int64)))


def reference_transmit(x, ch, rng):
    """The whole-array channel: every noise draw at x's shape, then the
    fading gains or the burst hits and bursts."""
    noise = rng.standard_normal(x.shape)
    noise *= ch.sigma
    if ch.kind == "awgn":
        return noise + x
    if ch.kind == "rayleigh":
        return rng.rayleigh(scale=1.0 / np.sqrt(2.0), size=x.shape) * x + noise
    hits = rng.random(x.shape) < ch.burst_prob
    bursts = ch.burst_sigma * rng.standard_normal(x.shape)
    return (noise + np.where(hits, bursts, 0.0)) + x


class TestInPlaceChannel:
    """transmit's blockwise AWGN draw and the out= forms of transmit and
    channel_llr give the bits of the whole-array expressions."""

    # rows of a 256-wide chunk around one noise block, a width that does
    # not divide the block, one row, and a long 1-D word
    SHAPES = [(NOISE_BLOCK // 256 - 1, 256), (NOISE_BLOCK // 256, 256),
              (NOISE_BLOCK // 256 + 1, 256), (700, 100), (1, 256), (10**6,)]

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    @pytest.mark.parametrize("in_place", [False, True], ids=["new", "out=x"])
    def test_blockwise_awgn_is_one_whole_draw(self, shape, in_place):
        ch = awgn(0.7)
        x = np.random.default_rng(1).standard_normal(shape)
        before = x.copy()
        want = reference_transmit(x, ch, np.random.default_rng([3, 1, 4]))
        rng = np.random.default_rng([3, 1, 4])
        y = transmit(x, ch, rng, out=x if in_place else None)
        assert same_bits(y, want)
        if in_place:
            assert y is x
        else:
            assert same_bits(x, before)
        # the draw left the generator where the whole draw leaves it
        ref = np.random.default_rng([3, 1, 4])
        ref.standard_normal(shape)
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    @pytest.mark.parametrize("out", ["new", "out=x", "other"])
    @pytest.mark.parametrize("ch", [rayleigh_fast(0.7), bursty(0.7), bursty(0.3, 0.5, 3.0)],
                             ids=["rayleigh", "bursty", "bursty-dense"])
    def test_blockwise_gains_and_bursts_are_whole_draws(self, shape, out, ch):
        x = np.random.default_rng(1).standard_normal(shape)
        before = x.copy()
        ref = np.random.default_rng([3, 1, 4])
        want = reference_transmit(x, ch, ref)
        rng = np.random.default_rng([3, 1, 4])
        target = {"new": None, "out=x": x, "other": np.empty_like(x)}[out]
        y = transmit(x, ch, rng, out=target)
        assert same_bits(y, want)
        if target is not None:
            assert y is target
        if target is not x:
            assert same_bits(x, before)
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("ch", [awgn(0.8), rayleigh_fast(0.8), bursty(0.8)],
                             ids=["awgn", "rayleigh", "bursty"])
    def test_out_gives_the_whole_array_bits(self, ch):
        x = bpsk(np.random.default_rng(6).integers(0, 2, size=(300, 64), dtype=np.uint8))
        want = reference_transmit(x, ch, np.random.default_rng(7))
        other = np.empty_like(x)
        assert transmit(x, ch, np.random.default_rng(7), out=other) is other
        assert same_bits(other, want)
        assert transmit(x, ch, np.random.default_rng(7), out=x) is x
        assert same_bits(x, want)

    def test_non_float_input_goes_to_a_new_array(self):
        bits = np.random.default_rng(2).integers(0, 2, size=(20, 16))
        ch = awgn(0.5)
        want = reference_transmit(bits.astype(np.float64), ch, np.random.default_rng(8))
        assert same_bits(transmit(bits, ch, np.random.default_rng(8)), want)
        assert same_bits(transmit(bits.tolist(), ch, np.random.default_rng(8)), want)

    @pytest.mark.parametrize("out", [np.empty((4, 8)), np.empty((8, 8), dtype=np.float32),
                                     np.empty((8, 16))[:, ::2]],
                             ids=["shape", "dtype", "strided"])
    def test_out_must_fit_x(self, out):
        with pytest.raises(ValueError, match="C-contiguous float64"):
            transmit(np.zeros((8, 8)), awgn(1.0), np.random.default_rng(0), out=out)

    def test_read_only_out_raises_before_writing(self):
        x = np.ones((4, 8))
        x.flags.writeable = False
        with pytest.raises(ValueError, match="read-only"):
            transmit(x, awgn(1.0), np.random.default_rng(0), out=x)
        assert (x == 1.0).all()

    def test_llr_in_place(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        special = np.array([0.0, -0.0, tiny, -tiny, 3 * tiny, 1e-310, -1e-310,
                            1e300, -1e300, 1.0, -1.0, 0.1])
        rows = np.random.default_rng(4).standard_normal((50, 256))
        for y in (special, rows):
            for sigma in (1.0, 0.7, 3.1622776601683795, 1e-3):
                want = 2.0 * y / (sigma * sigma)
                assert same_bits(channel_llr(y, sigma), want)
                buf = y.copy()
                assert channel_llr(buf, sigma, out=buf) is buf
                assert same_bits(buf, want)


class TestBpsk:
    def test_values_of_every_input_form(self):
        b = np.random.default_rng(5).integers(0, 2, size=(30, 16), dtype=np.uint8)
        symbols = np.array([1.0, -1.0])
        for word in (b, b[0]):
            want = np.take(symbols, word)
            for w in (word, word.astype(bool), word.tolist()):
                assert same_bits(bpsk(w), want)

    def test_scalar_bit(self):
        assert isinstance(bpsk(1), np.float64) and bpsk(1) == -1.0
        assert bpsk(np.uint8(0)) == 1.0
