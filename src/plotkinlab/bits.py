"""GF(2) words, the Plotkin combination and Kronecker generator matrices.

Bits are numpy ``uint8`` arrays with values in {0, 1}. The last axis is the
code axis, so every operation broadcasts over leading batch axes. BPSK maps
bit b to the real symbol 1 - 2b, under which XOR becomes multiplication.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

# 2x2 Plotkin/polar kernel; its m-th Kronecker power generates length-2^m codes.
KERNEL = np.array([[0, 1], [1, 1]], dtype=np.uint8)

MAX_KRONECKER_M = 12


def as_bits(w, name: str = "word") -> np.ndarray:
    """Validate and convert an array-like of {0,1} entries to uint8."""
    arr = np.asarray(w)
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    valid = arr.max() <= 1 if arr.dtype == np.uint8 else np.isin(arr, (0, 1)).all()
    if not valid:
        raise ValueError(f"{name} entries must all be 0 or 1")
    return arr.astype(np.uint8)


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


def kronecker_generator(m: int) -> np.ndarray:
    """m-fold Kronecker power of the kernel [[0,1],[1,1]], a 2^m x 2^m matrix.

    Row i (0-based) has Hamming weight 2^popcount(i); selecting the rows of
    weight >= 2^(m-r) yields a Reed-Muller generator, selecting the most
    reliable bit-channel rows yields a polar generator.
    """
    if not 1 <= m <= MAX_KRONECKER_M:
        raise ValueError(f"m must be in [1, {MAX_KRONECKER_M}], got {m}")
    g = KERNEL
    for _ in range(m - 1):
        g = np.kron(g, KERNEL)
    return g.astype(np.uint8)


@lru_cache(maxsize=None)
def hadamard_matrix(m: int) -> np.ndarray:
    """Sylvester Hadamard matrix H[i, j] = (-1)^popcount(i & j), 2^m square."""
    n = 1 << m
    idx = np.arange(n)
    pc = np.bitwise_count(idx[:, None] & idx[None, :]) if hasattr(np, "bitwise_count") else None
    if pc is None:
        pc = np.zeros((n, n), dtype=np.int64)
        for bit in range(m):
            pc += (idx[:, None] >> bit & 1) & (idx[None, :] >> bit & 1)
    return np.where(pc % 2 == 0, 1.0, -1.0)


@lru_cache(maxsize=None)
def parity_table(m: int) -> np.ndarray:
    """Read-only bits P[i, x] = popcount(i & x) mod 2, the 0/1 form of
    hadamard_matrix(m). Row i is the RM(m,1) codeword with linear message
    bits i (LSB first) and affine bit 0."""
    table = (hadamard_matrix(m) < 0).astype(np.uint8)
    table.flags.writeable = False
    return table


def hamming_weight(w) -> int:
    """Number of 1-entries in a binary word."""
    return int(np.sum(as_bits(w)))


_BPSK_SYMBOLS = np.array([1.0, -1.0])


def bpsk(w) -> np.ndarray:
    """Map bits to +/-1 symbols via b -> 1 - 2b (bit 0 -> +1)."""
    return np.take(_BPSK_SYMBOLS, as_bits(w))
