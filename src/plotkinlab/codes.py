"""Reed-Muller and Polar code construction on Plotkin trees.

A Plotkin tree is the computation tree of a code built by repeated
applications of (u, v) -> (u, u XOR v). Internal nodes combine the codeword
``u`` of their second-half ("u") child with the codeword ``v`` of their
first-half ("v") child; recursive decoders process the v child first.

Message-slice convention: leaves are visited in decode order (v subtree
before u subtree, depth first) and the first-decoded leaf owns the highest
block of message indices. For RM(8,2) this places the RM(2,2) bits first in
the message word and the RM(7,1) bits last; for Polar codes it makes the
tree encoder agree with placing the message (in reverse order) on the
active rows of the Kronecker generator.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Union

import numpy as np

from .bits import as_bits, kronecker_generator, parity_table

REPETITION = "repetition"
FIRST_ORDER = "first_order"
FULL_RATE = "full_rate"
FROZEN = "frozen"

MAX_CODEBOOK_K = 20

# Largest supported code length 2^m, for RM and Polar codes alike. The tree
# grows about 4x for every 2 added to m (RM(18,9) has 24,309 internal
# nodes), so an unbounded m from a flag or a checkpoint exhausts memory.
MAX_TREE_M = 10


@dataclass(frozen=True)
class Leaf:
    """A sub-code at the bottom of a Plotkin tree.

    kind is one of repetition (RM(m,0), one bit), first_order (RM(m,1)),
    full_rate (RM(m,m)) or frozen (all-zero, no message bits). ``lo:hi`` is
    the slice of the message word this leaf encodes.
    """

    kind: str
    m: int
    lo: int
    hi: int

    @property
    def length(self) -> int:
        return 1 << self.m

    @property
    def k(self) -> int:
        return self.hi - self.lo

    def label(self) -> str:
        if self.kind == FROZEN:
            return f"frozen({self.length})"
        order = {REPETITION: 0, FIRST_ORDER: 1, FULL_RATE: self.m}[self.kind]
        return f"RM({self.m},{order})"


@dataclass(frozen=True)
class Internal:
    """Plotkin combination node: emits (u, u XOR v) of its children."""

    node_id: int
    v: "Node"  # first-half input positions, decoded first
    u: "Node"  # second-half input positions, decoded second
    length: int


Node = Union[Leaf, Internal]


@dataclass(frozen=True)
class PlotkinTree:
    root: Node
    m: int
    n: int
    k: int
    label: str

    def leaves(self) -> list[Leaf]:
        """All leaves in decode order (v before u, depth first)."""
        return [nd for nd in walk(self.root) if isinstance(nd, Leaf)]

    def message_leaves(self) -> list[Leaf]:
        return [lf for lf in self.leaves() if lf.kind != FROZEN]

    def internal_nodes(self) -> list[Internal]:
        return [nd for nd in walk(self.root) if isinstance(nd, Internal)]

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "m": self.m,
            "n": self.n,
            "k": self.k,
            "root": _node_dict(self.root),
        }

    def structure_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def walk(node: Node) -> Iterator[Node]:
    """Pre-order walk, v child first (the decoder's visit order)."""
    yield node
    if isinstance(node, Internal):
        yield from walk(node.v)
        yield from walk(node.u)


def _node_dict(node: Node) -> dict:
    if isinstance(node, Leaf):
        return {
            "leaf": node.kind,
            "m": node.m,
            "length": node.length,
            "slice": [node.lo, node.hi],
            "label": node.label(),
        }
    return {
        "node_id": node.node_id,
        "length": node.length,
        "v": _node_dict(node.v),
        "u": _node_dict(node.u),
    }


@dataclass(frozen=True)
class CodeSpec:
    family: str
    m: int
    r: int | None
    n: int
    k: int
    rate: float
    min_distance: int | None


def rm_k(m: int, r: int) -> int:
    return sum(math.comb(m, i) for i in range(r + 1))


def rm_spec(m: int, r: int) -> CodeSpec:
    """Parameters of RM(m,r): n=2^m, k=sum_{i<=r} C(m,i), d=2^(m-r)."""
    if not 0 <= r <= m <= MAX_TREE_M:
        raise ValueError(f"need 0 <= r <= m <= {MAX_TREE_M}, got m={m}, r={r}")
    n = 1 << m
    k = rm_k(m, r)
    return CodeSpec("rm", m, r, n, k, k / n, 1 << (m - r))


def build_rm_tree(m: int, r: int) -> PlotkinTree:
    """Plotkin tree realizing RM(m,r).

    Order-1 trees bottom out at repetition leaves and one RM(1,1); order-2
    trees keep first-order leaves intact and bottom out at RM(2,2). Higher
    orders expand by the generic recursion
    RM(m,r) = Plotkin(RM(m-1,r), RM(m-1,r-1)).
    """
    if not 0 <= r <= m <= MAX_TREE_M:
        raise ValueError(f"need 0 <= r <= m <= {MAX_TREE_M}, got m={m}, r={r}")
    k = rm_k(m, r)
    return PlotkinTree(_rm_node(m, r, 0, k, itertools.count(1)), m, 1 << m, k, f"RM({m},{r})")


def _rm_node(mm: int, rr: int, lo: int, hi: int, ids: Iterator[int]) -> Node:
    """The subtree of RM(mm,rr) encoding message slice lo:hi; its internal
    nodes draw their ids from ids in visit order."""
    if rr == 0:
        return Leaf(REPETITION, mm, lo, hi)
    if rr == mm:
        return Leaf(FULL_RATE, mm, lo, hi)
    node_id = next(ids)
    kv = rm_k(mm - 1, rr - 1)
    if rr == 2 and mm - 1 >= 2:
        v: Node = Leaf(FIRST_ORDER, mm - 1, hi - kv, hi)
    else:
        v = _rm_node(mm - 1, rr - 1, hi - kv, hi, ids)
    u = _rm_node(mm - 1, rr, lo, hi - kv, ids)
    return Internal(node_id, v, u, 1 << mm)


# ---------------------------------------------------------------------------
# Leaf encoders (all XOR-linear; batched over leading axes)
# ---------------------------------------------------------------------------

def encode_first_order(m: int, msg: np.ndarray) -> np.ndarray:
    """RM(m,1) encoder: codeword position x carries b0 XOR sum_i b_i * x_{i-1}.

    This closed form equals the Plotkin recursion with the repetition bit in
    the last message slot, e.g. (b0,b1,b2) -> (b0, b0^b1, b0^b2, b0^b1^b2).
    The linear part is row sum_i b_i 2^(i-1) of the parity table.
    """
    msg = np.atleast_2d(msg)
    index = msg[:, 1:] @ (1 << np.arange(m))
    return (parity_table(m)[index] ^ msg[:, :1]).astype(np.uint8, copy=False)


def encode_full_rate(m: int, msg: np.ndarray) -> np.ndarray:
    """RM(m,m) encoder via the Plotkin recursion down to single bits."""
    msg = np.atleast_2d(msg)
    if m == 0:
        return msg.astype(np.uint8)
    half = 1 << (m - 1)
    u = encode_full_rate(m - 1, msg[:, :half])
    v = encode_full_rate(m - 1, msg[:, half:])
    return np.concatenate([u, u ^ v], axis=1)


def encode_leaf(leaf: Leaf, msg: np.ndarray) -> np.ndarray:
    """Encode a leaf's message slice bits (batched) into its codeword."""
    msg = np.atleast_2d(msg)
    if leaf.kind == FROZEN:
        return np.zeros((msg.shape[0], leaf.length), dtype=np.uint8)
    if leaf.kind == REPETITION:
        return np.repeat(msg[:, :1], leaf.length, axis=1)
    if leaf.kind == FIRST_ORDER:
        return encode_first_order(leaf.m, msg)
    if leaf.kind == FULL_RATE:
        return encode_full_rate(leaf.m, msg)
    raise ValueError(f"unknown leaf kind {leaf.kind!r}")


@lru_cache(maxsize=None)
def leaf_generator(leaf: Leaf) -> np.ndarray:
    """Read-only (k, length) generator bits of a leaf: rows encode unit messages."""
    if leaf.kind == FROZEN:
        return np.zeros((0, leaf.length), dtype=np.uint8)
    return _read_only(encode_leaf(leaf, np.eye(leaf.k, dtype=np.uint8)))


def tree_encode(tree: PlotkinTree, msg) -> np.ndarray:
    """Encode a message word (or batch) through the Plotkin tree.

    Repetition leaves repeat their bit, first-order/full-rate leaves use the
    closed-form RM encoders, frozen leaves emit zeros; internal nodes emit
    (u, u XOR v).
    """
    arr = as_bits(msg, "message")
    single = arr.ndim == 1
    arr = np.atleast_2d(arr)
    if arr.shape[1] != tree.k:
        raise ValueError(f"message length {arr.shape[1]} != k={tree.k}")
    out = _encode_node(tree.root, arr)
    return out[0] if single else out


def _encode_node(node: Node, msg: np.ndarray) -> np.ndarray:
    """The (B, length) codeword of node's subtree for message words msg."""
    if isinstance(node, Leaf):
        return encode_leaf(node, msg[:, node.lo:node.hi])
    u = _encode_node(node.u, msg)
    v = _encode_node(node.v, msg)
    return np.concatenate([u, u ^ v], axis=1)


def rm_generator_rows(m: int, r: int) -> np.ndarray:
    """Rows of the Kronecker generator with Hamming weight >= 2^(m-r)."""
    if not 0 <= r <= m:
        raise ValueError(f"need 0 <= r <= m, got m={m}, r={r}")
    if m == 0:
        return np.ones((1, 1), dtype=np.uint8)
    g = kronecker_generator(m)
    keep = g.sum(axis=1) >= (1 << (m - r))
    return g[keep]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Codebook:
    """(message, codeword) pairs of a code, one per row; all arrays are read-only."""

    messages: np.ndarray  # (V, k) uint8
    codewords: np.ndarray  # (V, n) uint8

    def __post_init__(self):
        _read_only(self.messages)
        _read_only(self.codewords)

    @cached_property
    def signs(self) -> np.ndarray:
        """(V, n) float64 BPSK images 1 - 2c of the codewords."""
        return _read_only(1.0 - 2.0 * self.codewords.astype(np.float64))

    @cached_property
    def bit_is_zero(self) -> np.ndarray:
        """(k, V) bool: bit_is_zero[i, c] tells whether row c's message bit i is 0."""
        return _read_only((self.messages == 0).T.copy())


def all_messages(k: int) -> np.ndarray:
    """(2^k, k) matrix of all k-bit words, most significant bit first."""
    idx = np.arange(1 << k)
    return ((idx[:, None] >> np.arange(k - 1, -1, -1)[None, :]) & 1).astype(np.uint8)


def message_index(msgs: np.ndarray) -> np.ndarray:
    """Row of each message word in all_messages(k): its binary value."""
    weights = 1 << np.arange(msgs.shape[-1] - 1, -1, -1, dtype=np.int64)
    return msgs.astype(np.int64) @ weights


def enumerate_codebook(tree: PlotkinTree) -> Codebook:
    """All 2^k codewords of a tree code, for brute-force oracles (k <= 20)."""
    if tree.k > MAX_CODEBOOK_K:
        raise ValueError(f"k={tree.k} too large to enumerate (limit {MAX_CODEBOOK_K})")
    msgs = all_messages(tree.k)
    return Codebook(msgs, tree_encode(tree, msgs))


@lru_cache(maxsize=None)
def leaf_codebook(leaf: Leaf) -> Codebook:
    """Every codeword of a leaf: the table its MAP and max-log decoders search.

    First-order rows are the Hadamard rows, then their negations, the order
    in which the Walsh-Hadamard transform scores them: row i has affine bit
    i >= n and linear bits those of i mod n, least significant first. Other
    kinds list all_messages(k)."""
    if leaf.kind == FROZEN:
        raise ValueError(f"leaf {leaf.label()} has no message bits to decode")
    if leaf.k > MAX_CODEBOOK_K:
        raise ValueError(f"cannot decode leaf {leaf.label()}: its {leaf.k} message bits "
                         f"exceed the {MAX_CODEBOOK_K}-bit codebook limit")
    if leaf.kind == FIRST_ORDER:
        idx = np.arange(2 * leaf.length)[:, None]
        msgs = np.hstack([idx >> leaf.m, idx >> np.arange(leaf.m) & 1]).astype(np.uint8)
    else:
        msgs = all_messages(leaf.k)
    return Codebook(msgs, encode_leaf(leaf, msgs))


# ---------------------------------------------------------------------------
# Polar construction
# ---------------------------------------------------------------------------

# Active set reported for Polar(64,7), reproduced by the Bhattacharyya
# recursion with design value 0.5; shipped as a pinned reference constant.
POLAR_64_7_ACTIVE_SET = (48, 56, 60, 61, 62, 63, 64)


@dataclass(frozen=True)
class PolarSpec:
    n: int
    k: int
    active_set: tuple[int, ...]  # sorted, 1-indexed leaf positions
    reliabilities: tuple[float, ...]  # Bhattacharyya parameter per position
    design_z0: float

    @property
    def m(self) -> int:
        return self.n.bit_length() - 1

    @property
    def frozen_set(self) -> tuple[int, ...]:
        active = set(self.active_set)
        return tuple(i for i in range(1, self.n + 1) if i not in active)


def polar_reliabilities(n: int, design_z0: float = 0.5) -> np.ndarray:
    """Bhattacharyya parameters of the n synthetic bit-channels.

    Starting from the design value z0, each polarization step maps a channel
    with parameter z to the pair (2z - z^2, z^2): the first-half (XOR)
    position degrades, the second-half position improves. Smaller values are
    more reliable. Exact for the binary erasure channel, a standard proxy
    otherwise.
    """
    if not 1 <= n <= 1 << MAX_TREE_M or n & (n - 1):
        raise ValueError(f"n must be a power of two up to {1 << MAX_TREE_M}, got {n}")
    if not 0.0 < design_z0 < 1.0:
        raise ValueError(f"design_z0 must be in (0,1), got {design_z0}")
    z = np.array([design_z0], dtype=np.float64)
    while z.size < n:
        z = np.stack([2.0 * z - z * z, z * z], axis=1).reshape(-1)
    return z


def polar_spec(n: int, k: int, design_z0: float = 0.5) -> PolarSpec:
    """Select the k most reliable positions (smallest z) as the active set.

    Ties break toward the larger index; positions are reported 1-indexed.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    z = polar_reliabilities(n, design_z0)
    # stable sort on (z, -index): among equal z prefer the larger index
    order = sorted(range(n), key=lambda i: (z[i], -i))
    active = tuple(sorted(i + 1 for i in order[:k]))
    return PolarSpec(n, k, active, tuple(z), design_z0)


def build_polar_tree(spec: PolarSpec) -> PlotkinTree:
    """Plotkin tree of a polar code with redundant branches simplified.

    Maximal all-frozen subtrees collapse into single frozen leaves and
    proper subtrees whose only active position is their last collapse into
    repetition leaves (single active positions become RM(0,0)); everything
    else stays an explicit Plotkin node, so the root survives unless the
    code is fully active, which degenerates to one full-rate leaf.
    """
    m = spec.m
    active = np.zeros(spec.n, dtype=bool)
    active[[i - 1 for i in spec.active_set]] = True
    root = (Leaf(FULL_RATE, m, 0, spec.k) if active.all()
            else _polar_node(active, itertools.count(1), 0, spec.n, 0, spec.k, True))
    return PlotkinTree(root, m, spec.n, spec.k, f"Polar({spec.n},{spec.k})")


def _polar_node(active: np.ndarray, ids: Iterator[int], p_lo: int, p_hi: int,
                lo: int, hi: int, is_root: bool = False) -> Node:
    """The collapsed subtree over positions p_lo:p_hi (active marks the
    active ones) encoding message slice lo:hi; its internal nodes draw
    their ids from ids in visit order."""
    size = p_hi - p_lo
    mm = size.bit_length() - 1
    mask = active[p_lo:p_hi]
    if not is_root:
        if not mask.any():
            return Leaf(FROZEN, mm, lo, lo)
        if mask.sum() == 1 and mask[-1]:
            return Leaf(REPETITION, mm, lo, hi)
    node_id = next(ids)
    mid = p_lo + size // 2
    kv = int(active[p_lo:mid].sum())
    v = _polar_node(active, ids, p_lo, mid, hi - kv, hi)
    u = _polar_node(active, ids, mid, p_hi, lo, hi - kv)
    return Internal(node_id, v, u, size)
