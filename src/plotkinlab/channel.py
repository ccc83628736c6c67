"""Modulation, power normalization, noise models and channel LLRs.

SNR convention: snr_db = -20*log10(sigma) under unit average symbol energy,
so 0 dB means sigma = 1. Every transmitted codeword satisfies the hard power
constraint ||x||^2 = n. Noise is drawn row-major over (block, symbol) from a
seeded generator, which is part of the reproducibility contract.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bits import bpsk

AWGN = "awgn"
RAYLEIGH = "rayleigh"
BURSTY = "bursty"


@dataclass(frozen=True)
class Channel:
    """Noise model: awgn, rayleigh (fast fading, E[a^2]=1) or bursty."""

    kind: str
    sigma: float
    burst_prob: float = 0.0
    burst_sigma: float = 0.0

    def __post_init__(self):
        if self.kind not in (AWGN, RAYLEIGH, BURSTY):
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


def bursty(sigma: float, burst_prob: float = 0.1, burst_sigma_mult: float = np.sqrt(2.0)) -> Channel:
    """Bursty channel; defaults add N(0, 2*sigma^2) spikes on 10% of symbols."""
    return Channel(BURSTY, sigma, burst_prob, burst_sigma_mult * sigma)


def make_channel(kind: str, sigma: float, burst_prob: float = 0.1,
                 burst_sigma_mult: float = float(np.sqrt(2.0))) -> Channel:
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


def transmit(x, ch: Channel, rng: np.random.Generator) -> np.ndarray:
    """Pass symbols through the channel, drawing noise from rng."""
    x = np.asarray(x, dtype=np.float64)
    gain, offset = draw_noise(ch, x.shape, rng)
    if gain is None:
        return np.add(offset, x, out=offset)
    return np.add(np.multiply(gain, x, out=gain), offset, out=gain)


def channel_llr(y, sigma: float) -> np.ndarray:
    """Per-position LLRs 2y/sigma^2 for BPSK over AWGN (positive favors bit 0)."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return 2.0 * np.asarray(y, dtype=np.float64) / (sigma * sigma)
