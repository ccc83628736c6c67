"""Classical decoders for Plotkin-tree codes.

Everything here is a pure function of (tree, LLRs) and batches over the
leading axis. The recursive decoder processes each internal node by forming
the LLR feature of its first-decoded (v) child with the elementwise LSE
rule, re-encoding the decoded child, and forming the u-child feature by
parity-adjusted addition. Leaves are decoded by MAP: majority for
repetition codes, a fast Walsh-Hadamard search for first-order codes,
brute force for small full-rate codes. Soft leaves emit max-log LLRs:
first-order leaves in closed form from the Walsh-Hadamard transform, the
others by a search over the codebook.

Tie rules, fixed so decoders are deterministic functions: argmax ties take
the lowest index and LLR sign ties decode to bit 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import (
    FIRST_ORDER,
    FROZEN,
    REPETITION,
    Codebook,
    Leaf,
    PlotkinTree,
    leaf_codebook,
    leaf_generator,
)

HARD_MAP = "hard"
SOFT_MAP = "soft"

# Rows per fht tile: a (length, rows) float64 tile of a length-128 leaf
# takes 1 MB, so its butterflies run in cache.
FHT_TILE_ROWS = 1024

# Rows per block in which dumer_decode transposes an input tile: on a
# 2-vCPU Xeon host a 1,024 x 256 tile took 1.3 ms in one copy, 0.5 ms in
# blocks, which stay in cache.
TRANSPOSE_ROWS = 128

# Floats per dumer_decode row tile, so a node's arrays stay in cache.
DECODE_TILE_FLOATS = 1 << 18

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
    Broadcasts; 0-d input gives a numpy scalar.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    shape = np.broadcast_shapes(a.shape, b.shape)
    out = _lse_into(a, b, np.empty(shape), np.empty(shape))
    return out if out.ndim else out[()]


def _lse_into(a, b, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """lse(a, b) written to out, with scratch (out's shape) as workspace.

    The leading term is copysign(min(|a|, |b|), a*b): a*b keeps the sign of
    the product where it underflows to zero or overflows to infinity, so
    this is sign(a)*sign(b)*min(|a|, |b|) bit for bit up to the sign of a
    zero, which adding the first correction (never -0) erases. The two
    corrections then follow in place, in the order of the formula.
    """
    np.abs(a, out=out)
    np.abs(b, out=scratch)
    np.minimum(out, scratch, out=out)
    # 0*inf is NaN, and copysign of the zero minimum then gives -0
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(a, b, out=scratch)
    np.copysign(out, scratch, out=out)
    for op in (np.add, np.subtract):
        op(a, b, out=scratch)
        np.copysign(scratch, -1.0, out=scratch)  # -|x| in one pass
        np.exp(scratch, out=scratch)
        np.log1p(scratch, out=scratch)
        op(out, scratch, out=out)
    return out


def parity_adjusted_add(l1, l2, v_hat, out=None) -> np.ndarray:
    """l1 + s*l2 where s = (-1)^v for hard bits or the soft sign itself,
    written to out if given (which must not overlap l1, l2 or v_hat)."""
    l1 = np.asarray(l1, dtype=np.float64)
    l2 = np.asarray(l2, dtype=np.float64)
    v = np.asarray(v_hat)
    if l1.shape[-1] != l2.shape[-1] or v.shape[-1] != l1.shape[-1]:
        raise ValueError("length mismatch between LLR halves and parity word")
    if out is None:
        out = np.empty(np.broadcast_shapes(l1.shape, l2.shape, v.shape))
    if v.dtype.kind == "f":
        np.multiply(v, l2, out=out)
    else:
        # -2v + 1 is 1 - 2v exactly for bits v in {0, 1}
        np.multiply(v, -2.0, out=out)
        out += 1.0
        out *= l2
    # l1 first, as in l1 + s*l2: of two NaN operands the sum keeps the first
    return np.add(l1, out, out=out)


def majority_decode_repetition(l) -> np.ndarray:
    """Decode a repetition code from LLRs: bit 1 iff the LLR sum is negative."""
    sums = np.asarray(l, dtype=np.float64).sum(axis=-1)
    return (sums < 0).astype(np.uint8)


def stable_sigmoid(x) -> np.ndarray:
    """1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) otherwise, so exp never
    sees a positive argument: exp(min(x, 0)) / (1 + exp(min(x, -x))), whose
    numerator is exactly 1 where x >= 0. No mask selects a branch, and
    minimum keeps a NaN's sign bit, where -|x| would flip it."""
    x = np.asarray(x, dtype=np.float64)
    d = np.negative(x, out=np.empty_like(x))  # out= keeps 0-d input an array
    np.minimum(x, d, out=d)
    np.exp(d, out=d)
    d += 1.0
    num = np.minimum(x, 0.0, out=np.empty_like(x))
    np.exp(num, out=num)
    return np.divide(num, d, out=num)


def fht(l) -> np.ndarray:
    """Unnormalized fast Walsh-Hadamard transform in Sylvester order.

    n log2(n) butterfly additions over the last axis; fht(fht(x)) == n*x.
    The rows are transformed a tile at a time in batch-major (length, rows)
    layout (fht_tiles), so every butterfly is an in-place pass over
    contiguous rows.
    """
    x = np.asarray(l, dtype=np.float64)
    n = x.shape[-1]
    if n < 1 or n & (n - 1):
        raise ValueError(f"length must be a power of two, got {n}")
    rows = x.reshape(-1, n)
    out = np.empty(rows.shape)
    for start, buf in fht_tiles(rows):
        out[start:start + buf.shape[1]] = buf.T
    return out.reshape(x.shape)


def row_tiles(rows: int, tile: int) -> list[tuple[int, int]]:
    """(lo, hi) bounds of consecutive tiles of tile rows that cover rows
    0:rows, the last taking the remainder too, so it is the largest and no
    tile has one row unless rows is 1: numpy multiplies a lone row by gemv,
    which rounds differently from the gemm of larger tiles."""
    starts = range(0, max(rows - tile, 0) + 1, tile)
    return list(zip(starts, [*starts[1:], rows]))


def fht_tiles(rows: np.ndarray):
    """Yield (start, tile) for every FHT_TILE_ROWS rows of a (B, n) array,
    n a power of two: tile is the (n, w) batch-major transform of
    rows[start:start + w], valid until the next tile is drawn."""
    n = rows.shape[1]
    tile = max(1, min(FHT_TILE_ROWS, rows.shape[0]))
    diff = np.empty(n // 2 * tile)
    for start in range(0, rows.shape[0], tile):
        yield start, _butterflies(rows[start:start + tile].T.copy(), diff)


def _butterflies(buf: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """Transform a C-contiguous batch-major (n, w) array in place, with diff
    (n/2 * w floats or more) as scratch: each butterfly is an in-place pass
    over contiguous rows. Returns buf."""
    n, width = buf.shape
    h = 1
    while h < n:
        pairs = buf.reshape(n // (2 * h), 2, h * width)
        a, b = pairs[:, 0], pairs[:, 1]
        t = diff[:n // 2 * width].reshape(a.shape)
        np.subtract(a, b, out=t)
        a += b
        b[...] = t
        h *= 2
    return buf


def map_decode(codebook: Codebook, l) -> tuple[np.ndarray, np.ndarray]:
    """Exhaustive MAP: argmax over codewords c of <l, 1-2c>.

    Returns (message, codeword); ties take the lowest message index. Valid
    for equal-prior, equal-energy codebooks.
    """
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
    codeword correlations at once: pick i* = argmax |t_i|; the decision is
    row i* of the leaf_codebook table, or row i* + n (its complement) when
    t_i* < 0. Returns (codeword, message).
    """
    l = np.asarray(l, dtype=np.float64)
    single = l.ndim == 1
    rows = np.atleast_2d(l)
    if rows.shape[-1] != 1 << m:
        raise ValueError(f"LLR length {rows.shape[-1]} != 2^{m}")
    best = np.empty(rows.shape[0], dtype=np.intp)
    for start, t in fht_tiles(rows):
        best[start:start + t.shape[1]] = _rm1_best(t)
    table = leaf_codebook(Leaf(FIRST_ORDER, m, 0, m + 1))
    cw, msg = table.codewords[best], table.messages[best]
    return (cw[0], msg[0]) if single else (cw, msg)


def _rm1_best(t: np.ndarray) -> np.ndarray:
    """The leaf_codebook row of each column of a batch-major (n, w)
    transform: i* = argmax |t_i|, plus n if t_i* < 0. t is left holding |t|."""
    neg = t < 0
    best = np.argmax(np.abs(t, out=t), axis=0)
    best += t.shape[0] * neg[best, np.arange(t.shape[1])]
    return best


# ---------------------------------------------------------------------------
# Soft-MAP: per-bit LLRs by the max-log rule over the leaf codebook
# ---------------------------------------------------------------------------

def softmap_scores(leaf: Leaf, l: np.ndarray) -> np.ndarray:
    """Correlations <l, 1-2c> for every codeword of the leaf.

    First-order leaves use the Walsh-Hadamard transform (n log n instead of
    the quadratic dense product); other leaves correlate densely with the
    rows of leaf_codebook(leaf).
    """
    if leaf.kind == FIRST_ORDER:
        t = fht(l)
        return np.concatenate([t, -t], axis=1)
    return l @ leaf_codebook(leaf).signs.T


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


def softmap_forward(leaf: Leaf, l: np.ndarray) -> np.ndarray:
    """Max-log per-bit LLRs (B, k) of a leaf from its (B, length) features.

    Bit i gets max over bit-i=0 codewords of <l, 1-2c> minus the max over
    bit-i=1 codewords, bit for bit what max_log_llrs gives on
    softmap_scores. A first-order leaf's scores are [t, -t] with
    t = fht(l), so per fht tile its affine bit is max(t) + min(t) and linear
    bit j is the max of |t_x| over x_j = 0 minus the max over x_j = 1
    (Ashikhmin & Litsyn, IEEE Trans. IT 2004). Rows with no nonzero |t_x|
    (or with a NaN) take the search, which fixes the sign of a zero LLR.
    """
    bit_is_zero = leaf_codebook(leaf).bit_is_zero
    if leaf.kind != FIRST_ORDER:
        return max_log_llrs(softmap_scores(leaf, l), bit_is_zero)[0]
    llrs = np.empty((l.shape[0], leaf.k))
    for start, t in fht_tiles(l):
        redo = start + np.flatnonzero(_first_order_llrs(leaf, t, llrs[start:start + t.shape[1]].T))
        if redo.size:
            llrs[redo] = max_log_llrs(softmap_scores(leaf, l[redo]), bit_is_zero)[0]
    return llrs


def _first_order_llrs(leaf: Leaf, t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """softmap_forward's closed form on a batch-major (n, w) transform t,
    written to out (k, w); t is left holding |t|. Returns the mask of the
    columns the search must redo."""
    n, width = t.shape
    np.add(t.max(axis=0), t.min(axis=0), out=out[0])
    mag = np.abs(t, out=t)
    for j in range(1, leaf.m + 1):
        halves = mag.reshape(n >> j, 2, 1 << (j - 1), width).max(axis=(0, 2))
        np.subtract(halves[0], halves[1], out=out[j])
    return ~(mag.max(axis=0) > 0)


def soft_map_llrs(leaf: Leaf, l) -> np.ndarray:
    """Per-bit LLRs of a leaf's message bits under the max-log rule
    (softmap_forward over one row or a batch)."""
    l = np.asarray(l, dtype=np.float64)
    single = l.ndim == 1
    llrs = softmap_forward(leaf, np.atleast_2d(l))
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
        _first_order_lift(t.T, out.T)
    else:
        gen = leaf_generator(leaf)
        out = np.ones((p.shape[0], leaf.length))
        for i in range(gen.shape[0]):
            out *= np.where(gen[i] == 1, t[:, i:i + 1], 1.0)
    return out[0] if single else out


def _first_order_lift(t: np.ndarray, out: np.ndarray) -> None:
    """soft_reencode of a first-order leaf in batch-major layout: out
    (2^m, w) from the soft signs t (m + 1, w). Generator row j >= 1 is
    parity_table row 2^(j-1): position x holds t_0 times t_j for each set
    bit j-1 of x. Doubling the filled prefix by t_j appends t_j as the last
    factor, the order of message bits."""
    out[0] = t[0]
    for j in range(1, t.shape[0]):
        half = 1 << (j - 1)
        np.multiply(out[:half], t[j], out=out[half:2 * half])


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

    The recursion runs over row_tiles of max(FHT_TILE_ROWS,
    DECODE_TILE_FLOATS // n) rows, so every tile decodes bit for bit as one
    tile of the whole batch would: below the floor BLAS would round the
    rows of its products differently.
    Each tile runs batch-major, as (length, rows) arrays, in a workspace
    allocated once per call, so no node allocates and every elementwise
    pass covers contiguous memory; the values are those of the row-major
    kernels, bit for bit.
    """
    llr = clip_llrs(llr)
    single = llr.ndim == 1
    l2 = np.atleast_2d(llr)
    if l2.shape[1] != tree.n:
        raise ValueError(f"LLR length {l2.shape[1]} != n={tree.n}")
    if leaf_rule not in (HARD_MAP, SOFT_MAP):
        raise ValueError(f"unknown leaf rule {leaf_rule!r}")
    batch = l2.shape[0]
    soft = leaf_rule == SOFT_MAP
    message = np.zeros((batch, tree.k), dtype=np.uint8)
    out_llrs = np.zeros((batch, tree.k), dtype=np.float64) if soft else None

    def decode_leaf(leaf: Leaf, feat: np.ndarray, out: np.ndarray) -> None:
        """Decode a leaf from its batch-major (length, rows) feature and
        write its batch-major codeword to out. A first-order leaf transforms
        a copy of its feature in the scratch buffer; the others read a
        row-major copy, the layout their BLAS products and sums always saw."""
        if leaf.kind == FROZEN:
            out.fill(1 if soft else 0)
            return
        if leaf.kind == FIRST_ORDER:
            t = scratch[:feat.size].reshape(feat.shape)
            np.copyto(t, feat)
            _butterflies(t, diff)
        else:
            by_row = np.ascontiguousarray(feat.T)
        if soft:
            if leaf.kind == FIRST_ORDER:
                llrs = np.empty((leaf.k, feat.shape[1]))
                redo = np.flatnonzero(_first_order_llrs(leaf, t, llrs))
                if redo.size:
                    llrs[:, redo] = softmap_forward(leaf, feat[:, redo].T).T
            else:
                llrs = softmap_forward(leaf, by_row).T
            out_llrs[rows, leaf.lo:leaf.hi] = llrs.T
            message[rows, leaf.lo:leaf.hi] = llrs.T < 0
            p = stable_sigmoid(-llrs)
            if leaf.kind == FIRST_ORDER:
                _first_order_lift(1.0 - 2.0 * p, out)
            else:
                out[...] = soft_reencode(leaf, p.T).T
            return
        if leaf.kind == REPETITION:
            bits = majority_decode_repetition(by_row)[:, None]
            out[...] = bits.T
        elif leaf.kind == FIRST_ORDER:
            table, best = leaf_codebook(leaf), _rm1_best(t)
            bits = table.messages[best]
            out[...] = table.codewords[best].T
        else:
            bits, cw = map_decode(leaf_codebook(leaf), by_row)
            out[...] = cw.T
        message[rows, leaf.lo:leaf.hi] = bits

    # One workspace per call, sized for the largest tile and batch-major, so
    # each half of a node is one contiguous block: the transposed input, a
    # feature buffer per child width (one node of each width is live at a
    # time, and its v then u feature reuse the buffer), one scratch buffer
    # (lse's, then a first-order leaf's transform), the butterflies'
    # difference buffer, and the codeword, which each node writes as [u; v]
    # and combines in place.
    tiles = row_tiles(batch, max(FHT_TILE_ROWS, DECODE_TILE_FLOATS // tree.n))
    span = tiles[-1][1] - tiles[-1][0]
    widest = max([lf.length for lf in tree.leaves() if lf.kind == FIRST_ORDER], default=0)
    root = np.empty(tree.n * span)
    feats = {nd.length // 2: np.empty(nd.length // 2 * span) for nd in tree.internal_nodes()}
    scratch = np.empty(max(tree.n // 2, widest) * span)
    diff = np.empty(widest // 2 * span)
    codeword = np.empty(tree.n * span, dtype=np.float64 if soft else np.uint8)
    for lo, hi in tiles:
        rows = slice(lo, hi)
        shape = (tree.n, hi - lo)
        feat = root[:tree.n * (hi - lo)].reshape(shape)
        for i in range(lo, hi, TRANSPOSE_ROWS):
            np.copyto(feat[:, i - lo:i - lo + TRANSPOSE_ROWS], l2[i:min(i + TRANSPOSE_ROWS, hi)].T)
        out = codeword[:feat.size].reshape(shape)
        _dumer_node(tree.root, feat, out, decode_leaf, feats, scratch)
    if single:
        return DecodeResult(message[0], None if out_llrs is None else out_llrs[0])
    return DecodeResult(message, out_llrs)


def _dumer_node(node, feat: np.ndarray, out: np.ndarray, decode_leaf, feats: dict,
                scratch: np.ndarray) -> None:
    """Decode node's subtree from its batch-major (length, rows) feature and
    write its batch-major codeword, hard bits or soft signs, to out. Leaves
    go to decode_leaf(leaf, feat, out); feats[w] holds the feature of a
    width-w child and scratch is lse's workspace."""
    if isinstance(node, Leaf):
        decode_leaf(node, feat, out)
        return
    half = node.length // 2
    f1, f2 = feat[:half], feat[half:]
    u_out, v_out = out[:half], out[half:]
    child = feats[half][:f1.size].reshape(f1.shape)
    v_feat = _lse_into(f1, f2, child, scratch[:f1.size].reshape(f1.shape))
    _dumer_node(node.v, v_feat, v_out, decode_leaf, feats, scratch)
    u_feat = parity_adjusted_add(f1, f2, v_out, out=child)
    _dumer_node(node.u, u_feat, u_out, decode_leaf, feats, scratch)
    if v_out.dtype.kind == "f":
        v_out *= u_out
    else:
        v_out ^= u_out
