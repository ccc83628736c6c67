"""Classical decoders for Plotkin-tree codes.

Everything here is a pure function of (tree, LLRs) and batches over the
leading axis. The recursive decoder processes each internal node by forming
the LLR feature of its first-decoded (v) child with the elementwise LSE
rule, re-encoding the decoded child, and forming the u-child feature by
parity-adjusted addition. Leaves are decoded by MAP: majority for
repetition codes, a fast Walsh-Hadamard search for first-order codes,
brute force for small full-rate codes.

Tie rules, fixed so decoders are deterministic functions: argmax ties take
the lowest index and LLR sign ties decode to bit 0.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bits import hadamard_matrix, parity_table
from .codes import (
    FIRST_ORDER,
    FROZEN,
    FULL_RATE,
    MAX_CODEBOOK_K,
    REPETITION,
    Codebook,
    Leaf,
    PlotkinTree,
    all_messages,
    leaf_generator,
)

HARD_MAP = "hard"
SOFT_MAP = "soft"

# Rows per fht tile: a (length, rows) float64 tile of a length-128 leaf
# takes 1 MB, so its butterflies run in cache.
FHT_TILE_ROWS = 1024

# dumer_decode and ko_decode clip their input to +/-LLR_LIMIT (clip_llrs).
# Finite LLRs near the float limit (1.8e308) would overflow to inf in the
# parity adds and leaf correlations and decode to wrong bits. Each parity
# add at most doubles a feature and a leaf correlation sums 2^(m-depth) of
# them, so no classical value exceeds 2^(m+1) times the input bound, with
# m <= MAX_TREE_M = 10. A trained KO block's output has no such bound, so
# ko_decode also rejects non-finite output LLRs.
LLR_LIMIT = 1e300


def require_finite(llr, what: str = "decoder input") -> np.ndarray:
    """llr as a float64 array; ValueError if it holds a NaN or an infinity,
    which would otherwise decode silently to arbitrary bits."""
    llr = np.asarray(llr, dtype=np.float64)
    if not np.isfinite(llr).all():
        raise ValueError(f"{what} holds NaN or infinite values")
    return llr


def clip_llrs(llr) -> np.ndarray:
    """llr as a float64 array clipped to +/-LLR_LIMIT; ValueError if it
    holds a NaN or an infinity."""
    llr = np.asarray(llr, dtype=np.float64)
    # min and max need no new array, unlike clipping every input; NaN and
    # inf fail the range test too, and require_finite then rejects them
    if not -LLR_LIMIT <= llr.min(initial=0.0) <= llr.max(initial=0.0) <= LLR_LIMIT:
        llr = np.clip(require_finite(llr), -LLR_LIMIT, LLR_LIMIT)
    return llr


def lse(a, b) -> np.ndarray:
    """LLR of the XOR of two bits: log((1 + e^(a+b)) / (e^a + e^b)).

    Evaluated in the numerically stable form
    sign(a)*sign(b)*min(|a|,|b|) + log1p(e^-|a+b|) - log1p(e^-|a-b|),
    which never exponentiates a positive argument and so is finite for all
    float inputs. |lse(a,b)| <= min(|a|,|b|) and the sign multiplies.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    mag = np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))
    return mag + np.log1p(np.exp(-np.abs(a + b))) - np.log1p(np.exp(-np.abs(a - b)))


def parity_adjusted_add(l1, l2, v_hat) -> np.ndarray:
    """l1 + s*l2 where s = (-1)^v for hard bits or the soft sign itself."""
    l1 = np.asarray(l1, dtype=np.float64)
    l2 = np.asarray(l2, dtype=np.float64)
    v = np.asarray(v_hat)
    if l1.shape[-1] != l2.shape[-1] or v.shape[-1] != l1.shape[-1]:
        raise ValueError("length mismatch between LLR halves and parity word")
    s = v.astype(np.float64) if v.dtype.kind == "f" else 1.0 - 2.0 * v.astype(np.float64)
    return l1 + s * l2


def majority_decode_repetition(l) -> np.ndarray:
    """Decode a repetition code from LLRs: bit 1 iff the LLR sum is negative."""
    sums = np.asarray(l, dtype=np.float64).sum(axis=-1)
    return (sums < 0).astype(np.uint8)


def stable_sigmoid(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def fht(l) -> np.ndarray:
    """Unnormalized fast Walsh-Hadamard transform in Sylvester order.

    n log2(n) butterfly additions over the last axis; fht(fht(x)) == n*x.
    The rows are transformed a tile at a time in batch-major (length, rows)
    layout, so every butterfly is an in-place pass over contiguous rows.
    """
    x = np.asarray(l, dtype=np.float64)
    n = x.shape[-1]
    if n < 1 or n & (n - 1):
        raise ValueError(f"length must be a power of two, got {n}")
    rows = x.reshape(-1, n)
    out = np.empty(rows.shape)
    tile = max(1, min(FHT_TILE_ROWS, rows.shape[0]))
    diff = np.empty(n // 2 * tile)
    for start in range(0, rows.shape[0], tile):
        buf = rows[start:start + tile].T.copy()
        width = buf.shape[1]
        h = 1
        while h < n:
            pairs = buf.reshape(n // (2 * h), 2, h * width)
            a, b = pairs[:, 0], pairs[:, 1]
            t = diff[:n // 2 * width].reshape(a.shape)
            np.subtract(a, b, out=t)
            a += b
            b[...] = t
            h *= 2
        out[start:start + width] = buf.T
    return out.reshape(x.shape)


def map_decode(codebook: Codebook, l) -> tuple[np.ndarray, np.ndarray]:
    """Exhaustive MAP: argmax over codewords c of <l, 1-2c>.

    Returns (message, codeword); ties take the lowest message index. Valid
    for equal-prior, equal-energy codebooks.
    """
    if codebook.messages.shape[1] > 20:
        raise ValueError("codebook too large for exhaustive MAP")
    l = np.asarray(l, dtype=np.float64)
    single = l.ndim == 1
    scores = np.atleast_2d(l) @ codebook.signs.T
    best = np.argmax(scores, axis=1)
    msg = codebook.messages[best]
    cw = codebook.codewords[best]
    return (msg[0], cw[0]) if single else (msg, cw)


def fht_map_decode_rm1(l, m: int) -> tuple[np.ndarray, np.ndarray]:
    """MAP decoding of RM(m,1) via the Walsh-Hadamard transform.

    The +/-1 images of the 2^(m+1) codewords are exactly the rows of the
    Hadamard matrix and their negations, so the transform lists all
    codeword correlations at once: pick i* = argmax |t_i|, then the
    codeword is row i* of the parity table, complemented when t_i* < 0.
    The message is recovered from (sign, i*): the affine bit is 1 iff the
    sign is negative and the linear bits are the bits of i*. Returns
    (codeword, message).
    """
    l = np.asarray(l, dtype=np.float64)
    single = l.ndim == 1
    t = np.atleast_2d(fht(l))
    n = t.shape[1]
    if n != 1 << m:
        raise ValueError(f"LLR length {n} != 2^{m}")
    best = np.argmax(np.abs(t), axis=1)
    vals = t[np.arange(t.shape[0]), best]
    neg = vals < 0
    cw = parity_table(m)[best] ^ neg[:, None].view(np.uint8)
    msg = np.empty((t.shape[0], m + 1), dtype=np.uint8)
    msg[:, 0] = neg
    for i in range(1, m + 1):
        msg[:, i] = (best >> (i - 1)) & 1
    return (cw[0], msg[0]) if single else (cw, msg)


# ---------------------------------------------------------------------------
# Soft-MAP: per-bit LLRs by the max-log rule over the leaf codebook
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LeafDecodeData:
    """Precomputed codebook geometry for one leaf kind and size.

    signs lists the +/-1 codeword images (for first-order leaves in the
    virtual order: +H rows then -H rows, so that correlation scores are the
    transform and its negation). mask0[i] selects the codewords whose
    message bit i is 0.
    """

    signs: np.ndarray  # (V, length) float64
    messages: np.ndarray  # (V, k) uint8
    mask0: np.ndarray  # (k, V) bool
    generator: np.ndarray  # (k, length) uint8
    is_first_order: bool


@lru_cache(maxsize=None)
def leaf_decode_data(kind: str, m: int) -> LeafDecodeData:
    leaf = Leaf(kind, m, 0, _leaf_k(kind, m))
    if leaf.k > MAX_CODEBOOK_K:
        raise ValueError(f"cannot decode leaf {leaf.label()}: its {leaf.k} message bits "
                         f"exceed the {MAX_CODEBOOK_K}-bit codebook limit")
    gen = leaf_generator(leaf)
    if kind == FIRST_ORDER:
        n = leaf.length
        h = hadamard_matrix(m)
        signs = np.concatenate([h, -h], axis=0)
        idx = np.arange(2 * n)
        msgs = np.empty((2 * n, m + 1), dtype=np.uint8)
        msgs[:, 0] = idx >= n
        for i in range(1, m + 1):
            msgs[:, i] = (idx % n >> (i - 1)) & 1
    else:
        msgs = all_messages(leaf.k)
        from .codes import encode_leaf

        cw = encode_leaf(leaf, msgs)
        signs = 1.0 - 2.0 * cw.astype(np.float64)
    mask0 = (msgs == 0).T.copy()
    return LeafDecodeData(signs, msgs, mask0, gen, kind == FIRST_ORDER)


def _leaf_k(kind: str, m: int) -> int:
    table = {REPETITION: 1, FIRST_ORDER: m + 1, FULL_RATE: 1 << m}
    if kind not in table:
        raise ValueError(f"leaf kind {kind!r} has no soft-MAP codebook")
    return table[kind]


def softmap_scores(leaf: Leaf, l: np.ndarray) -> np.ndarray:
    """Correlations <l, 1-2c> for every codeword of the leaf.

    First-order leaves use the Walsh-Hadamard transform (n log n instead of
    the quadratic dense product); other leaves correlate densely.
    """
    data = leaf_decode_data(leaf.kind, leaf.m)
    if data.is_first_order:
        t = fht(l)
        return np.concatenate([t, -t], axis=1)
    return l @ data.signs.T


def max_log_llrs(scores: np.ndarray, bit_is_zero: np.ndarray):
    """Per-bit max-log LLRs from a (B, V) score matrix over V candidates.

    bit_is_zero[i, c] tells whether candidate c carries bit i = 0. Bit i
    gets the highest score among its bit-0 candidates minus the highest
    among its bit-1 candidates. Returns (llrs (B,k), arg0, arg1), where
    arg0/arg1 index the two selected candidates per bit; argmax ties take
    the lowest index.
    """
    batch = scores.shape[0]
    k = bit_is_zero.shape[0]
    rows = np.arange(batch)
    llrs = np.empty((batch, k), dtype=np.float64)
    arg0 = np.empty((batch, k), dtype=np.int64)
    arg1 = np.empty((batch, k), dtype=np.int64)
    for i in range(k):
        idx0 = np.flatnonzero(bit_is_zero[i])
        idx1 = np.flatnonzero(~bit_is_zero[i])
        s0 = scores[:, idx0]
        s1 = scores[:, idx1]
        a0 = np.argmax(s0, axis=1)
        a1 = np.argmax(s1, axis=1)
        arg0[:, i] = idx0[a0]
        arg1[:, i] = idx1[a1]
        llrs[:, i] = s0[rows, a0] - s1[rows, a1]
    return llrs, arg0, arg1


def softmap_forward(leaf: Leaf, l: np.ndarray):
    """Max-log per-bit LLRs for a leaf, with the argmax pair per bit.

    Bit i gets max over bit-i=0 codewords of <l, 1-2c> minus the max over
    bit-i=1 codewords. Returns (llrs (B,k), arg0, arg1) where arg0/arg1
    index the selected codewords in the leaf's sign table (used for
    gradients and for re-encoding checks).
    """
    data = leaf_decode_data(leaf.kind, leaf.m)
    return max_log_llrs(softmap_scores(leaf, l), data.mask0)


def soft_map_llrs(leaf: Leaf, l) -> np.ndarray:
    """Per-bit LLRs of a leaf's message bits under the max-log rule."""
    l = np.asarray(l, dtype=np.float64)
    single = l.ndim == 1
    llrs, _, _ = softmap_forward(leaf, np.atleast_2d(l))
    return llrs[0] if single else llrs


def soft_reencode(leaf: Leaf, soft_bits) -> np.ndarray:
    """Lift the leaf's linear encoder to soft signs.

    soft_bits holds per-bit probabilities of the bit being 1; each codeword
    position is the product of the soft signs 1-2p of the message bits in
    its generator column, multiplied in message-bit order. Hard inputs
    reproduce the BPSK image of the hard encoding exactly; p = 0.5 yields
    total uncertainty (soft sign 0).
    """
    p = np.asarray(soft_bits, dtype=np.float64)
    single = p.ndim == 1
    p = np.atleast_2d(p)
    t = 1.0 - 2.0 * p
    if leaf.kind == FROZEN:
        out = np.ones((p.shape[0], leaf.length))
    elif leaf.kind == FIRST_ORDER:
        out = np.empty((p.shape[0], leaf.length))
        # Generator row j >= 1 is parity_table row 2^(j-1): position x holds
        # t_0 times t_j for each set bit j-1 of x. Doubling the filled prefix
        # by t_j appends t_j as the last factor, the order of message bits.
        out[:, 0] = t[:, 0]
        for j in range(1, leaf.m + 1):
            half = 1 << (j - 1)
            np.multiply(out[:, :half], t[:, j:j + 1], out=out[:, half:2 * half])
    else:
        gen = leaf_decode_data(leaf.kind, leaf.m).generator
        out = np.ones((p.shape[0], leaf.length))
        for i in range(gen.shape[0]):
            out *= np.where(gen[i] == 1, t[:, i:i + 1], 1.0)
    return out[0] if single else out


# ---------------------------------------------------------------------------
# Recursive (Dumer / successive cancellation) decoding
# ---------------------------------------------------------------------------

@dataclass
class DecodeResult:
    """Decoded message bits; llrs is populated by the soft leaf rule only.

    The leaves decode in the order tree.message_leaves() lists them, so
    the sub-message of the i-th leaf to decode is message[..., lo:hi] of
    that leaf.
    """

    message: np.ndarray
    llrs: np.ndarray | None


def dumer_decode(tree: PlotkinTree, llr, leaf_rule: str = HARD_MAP) -> DecodeResult:
    """Recursive decoding over a Plotkin tree from per-position LLRs.

    At each internal node the v-child feature is the elementwise LSE of the
    two halves; the decoded v codeword then parity-adjusts the halves into
    the u-child feature. With leaf_rule "hard" the leaves decode by MAP and
    re-encode hard bits. With leaf_rule "soft" the leaves emit max-log
    LLRs, hard decisions are their signs, and the re-encoded codeword is
    the soft-sign lift of the sigmoid bit probabilities (the classical
    skeleton of the KO decoder). Input LLRs are clipped to +/-LLR_LIMIT.
    """
    llr = clip_llrs(llr)
    single = llr.ndim == 1
    l2 = np.atleast_2d(llr)
    if l2.shape[1] != tree.n:
        raise ValueError(f"LLR length {l2.shape[1]} != n={tree.n}")
    if leaf_rule not in (HARD_MAP, SOFT_MAP):
        raise ValueError(f"unknown leaf rule {leaf_rule!r}")
    batch = l2.shape[0]
    message = np.zeros((batch, tree.k), dtype=np.uint8)
    out_llrs = np.zeros((batch, tree.k), dtype=np.float64) if leaf_rule == SOFT_MAP else None

    def decode_leaf(leaf: Leaf, feat: np.ndarray) -> np.ndarray:
        if leaf.kind == FROZEN:
            if leaf_rule == SOFT_MAP:
                return np.ones((batch, leaf.length))
            return np.zeros((batch, leaf.length), dtype=np.uint8)
        if leaf_rule == SOFT_MAP:
            llrs, _, _ = softmap_forward(leaf, feat)
            bits = (llrs < 0).astype(np.uint8)
            out_llrs[:, leaf.lo:leaf.hi] = llrs
            cw = soft_reencode(leaf, stable_sigmoid(-llrs))
        elif leaf.kind == REPETITION:
            bits = majority_decode_repetition(feat)[:, None]
            cw = np.repeat(bits, leaf.length, axis=1)
        elif leaf.kind == FIRST_ORDER:
            cw, bits = fht_map_decode_rm1(feat, leaf.m)
        else:
            bits, cw = map_decode(_leaf_codebook(leaf), feat)
        message[:, leaf.lo:leaf.hi] = bits
        return cw

    def rec(node, feat: np.ndarray) -> np.ndarray:
        if isinstance(node, Leaf):
            return decode_leaf(node, feat)
        half = node.length // 2
        f1, f2 = feat[:, :half], feat[:, half:]
        v_cw = rec(node.v, lse(f1, f2))
        if v_cw.dtype.kind == "f":
            u_feat = f1 + v_cw * f2
        else:
            u_feat = f1 + (1.0 - 2.0 * v_cw) * f2
        u_cw = rec(node.u, u_feat)
        if u_cw.dtype.kind == "f":
            return np.concatenate([u_cw, u_cw * v_cw], axis=1)
        return np.concatenate([u_cw, u_cw ^ v_cw], axis=1)

    rec(tree.root, l2)
    if single:
        return DecodeResult(message[0], None if out_llrs is None else out_llrs[0])
    return DecodeResult(message, out_llrs)


@lru_cache(maxsize=None)
def _leaf_codebook(leaf: Leaf) -> Codebook:
    data = leaf_decode_data(leaf.kind, leaf.m)
    cw = ((1.0 - data.signs) / 2.0).astype(np.uint8)
    return Codebook(data.messages, cw)
