"""Noise models, the SNR convention and channel LLRs.

SNR convention: snr_db = -20*log10(sigma) under unit average symbol energy,
so 0 dB means sigma = 1. Every transmitted codeword satisfies the hard power
constraint ||x||^2 = n. Noise is drawn row-major over (block, symbol) from a
seeded generator, which is part of the reproducibility contract.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

AWGN = "awgn"
RAYLEIGH = "rayleigh"
BURSTY = "bursty"
CHANNELS = (AWGN, RAYLEIGH, BURSTY)

# Default bursty channel: N(0, 2*sigma^2) spikes on 10% of symbols.
BURST_PROB = 0.1
BURST_SIGMA_MULT = float(np.sqrt(2.0))


@dataclass(frozen=True)
class Channel:
    """Noise model: awgn, rayleigh (fast fading, E[a^2]=1) or bursty."""

    kind: str
    sigma: float
    burst_prob: float = 0.0
    burst_sigma: float = 0.0

    def __post_init__(self):
        if self.kind not in CHANNELS:
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.kind == BURSTY:
            if not 0.0 <= self.burst_prob <= 1.0:
                raise ValueError("burst_prob must be in [0,1]")
            if self.burst_sigma <= 0:
                raise ValueError("burst_sigma must be positive")


def awgn(sigma: float) -> Channel:
    return Channel(AWGN, sigma)


def rayleigh_fast(sigma: float) -> Channel:
    return Channel(RAYLEIGH, sigma)


def bursty(sigma: float, burst_prob: float = BURST_PROB,
           burst_sigma_mult: float = BURST_SIGMA_MULT) -> Channel:
    """Bursty channel; defaults add N(0, 2*sigma^2) spikes on 10% of symbols."""
    return Channel(BURSTY, sigma, burst_prob, burst_sigma_mult * sigma)


def make_channel(kind: str, sigma: float, burst_prob: float = BURST_PROB,
                 burst_sigma_mult: float = BURST_SIGMA_MULT) -> Channel:
    """The channel named by kind at noise level sigma; the burst parameters
    apply to the bursty channel only."""
    if kind == AWGN:
        return awgn(sigma)
    if kind == RAYLEIGH:
        return rayleigh_fast(sigma)
    if kind == BURSTY:
        return bursty(sigma, burst_prob, burst_sigma_mult)
    raise ValueError(f"unknown channel {kind!r}")


def snr_to_sigma(snr_db: float) -> float:
    """Noise standard deviation for a given SNR in dB (0 dB -> sigma = 1)."""
    return float(10.0 ** (-snr_db / 20.0))


def sigma_to_snr(sigma: float) -> float:
    return float(-20.0 * np.log10(sigma))


def draw_noise(ch: Channel, shape, rng: np.random.Generator):
    """One channel draw for symbols of the given shape: (gain, offset) with
    y = gain * x + offset, where gain is None (unit) unless the channel fades.

    awgn:     offset = n,          n ~ N(0, sigma^2)
    rayleigh: gain = a, offset = n, a Rayleigh with E[a^2] = 1
    bursty:   offset = n + w,      w ~ N(0, burst_sigma^2) w.p. burst_prob
    """
    noise = rng.standard_normal(shape)
    noise *= ch.sigma
    if ch.kind == AWGN:
        return None, noise
    if ch.kind == RAYLEIGH:
        return rng.rayleigh(scale=1.0 / np.sqrt(2.0), size=shape), noise
    hits = rng.random(shape) < ch.burst_prob
    bursts = ch.burst_sigma * rng.standard_normal(shape)
    return None, noise + np.where(hits, bursts, 0.0)


# transmit draws AWGN noise, and the fading gains, burst hits and bursts that
# follow the noise in the stream, this many floats at a time (512 KB), so it
# holds small buffers besides the symbols (and the Rayleigh or bursty noise).
NOISE_BLOCK = 1 << 16


def transmit(x, ch: Channel, rng: np.random.Generator, out=None) -> np.ndarray:
    """Pass symbols through the channel, drawing noise from rng.

    The received symbols go into out, a C-contiguous float64 array of x's
    shape that may be x itself, and out is returned; without out they go
    into a new array and x is left unchanged. Draws are made NOISE_BLOCK
    floats at a time where the stream allows: the generator fills blocks in
    the order one whole draw of x's shape would, so y is that of draw_noise
    bit for bit. AWGN noise is drawn block by block into a small buffer,
    scaled and added into out. Rayleigh and bursty draw their gains, hits
    and bursts after all the noise, so the noise is drawn whole and the
    rest block by block; bursty keeps its hits as one bool array, drawn
    before any burst.
    """
    x = np.asarray(x, dtype=np.float64)
    if out is not None and (out.shape != x.shape or out.dtype != np.float64
                            or not out.flags.c_contiguous):
        raise ValueError(f"out must be a C-contiguous float64 array of shape {x.shape}")
    if ch.kind != AWGN:
        return _transmit_after_noise(x, ch, rng, out)
    if out is None:
        out = np.array(x, order="C")
    elif out is not x:
        np.copyto(out, x)
    flat = out.reshape(-1)
    noise = np.empty(min(NOISE_BLOCK, flat.size))
    for lo in range(0, flat.size, NOISE_BLOCK):
        part = flat[lo:lo + NOISE_BLOCK]
        block = noise[:part.size]
        rng.standard_normal(out=block)
        block *= ch.sigma
        np.add(block, part, out=part)
    return out


def _transmit_after_noise(x: np.ndarray, ch: Channel, rng: np.random.Generator,
                          out) -> np.ndarray:
    """transmit for Rayleigh (gain * x + noise) and bursty
    ((noise + where(hits, bursts, 0)) + x), with draw_noise's expressions
    and operand order applied block by block; out may be x or None."""
    noise = rng.standard_normal(x.shape)
    noise *= ch.sigma
    if out is None:
        out = noise
    xs, ns, ys = x.reshape(-1), noise.reshape(-1), out.reshape(-1)
    spans = [(lo, min(lo + NOISE_BLOCK, ys.size)) for lo in range(0, ys.size, NOISE_BLOCK)]
    if ch.kind == RAYLEIGH:
        for lo, hi in spans:
            gain = rng.rayleigh(scale=1.0 / np.sqrt(2.0), size=hi - lo)
            np.add(np.multiply(gain, xs[lo:hi], out=gain), ns[lo:hi], out=ys[lo:hi])
        return out
    hits = np.empty(ys.size, dtype=bool)
    block = np.empty(min(NOISE_BLOCK, ys.size))
    for lo, hi in spans:
        np.less(rng.random(out=block[:hi - lo]), ch.burst_prob, out=hits[lo:hi])
    for lo, hi in spans:
        bursts = rng.standard_normal(out=block[:hi - lo])
        bursts *= ch.burst_sigma
        np.copyto(bursts, 0.0, where=~hits[lo:hi])  # where(hits, bursts, 0.0)
        np.add(ns[lo:hi], bursts, out=bursts)
        np.add(bursts, xs[lo:hi], out=ys[lo:hi])
    return out


def channel_llr(y, sigma: float, out=None) -> np.ndarray:
    """Per-position LLRs 2y/sigma^2 for BPSK over AWGN (positive favors bit 0).

    The LLRs go into out when given, which may be y itself; the two
    roundings are those of 2.0 * y / (sigma * sigma) either way.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    llr = np.multiply(2.0, np.asarray(y, dtype=np.float64), out=out)
    llr /= sigma * sigma
    return llr
