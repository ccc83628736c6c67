"""KO codes: residual neural blocks on a Plotkin-tree skeleton.

A KO model keeps the classical tree but attaches, to each neuralized
internal node i, an encoder network g_i (2 inputs) and a decoder pair
f_left (2 inputs) / f_right (4 inputs), all applied coordinate-wise and all
residual on top of the classical rules:

    encode:  (u, v) -> (u, g_i(u, v) + u*v)
    decode:  left feature  = f_left(y1, y2) + LSE(y1, y2)
             right feature = f_right(y1, y2, y_left, v_soft) + y1 + v_soft*y2

Codewords live in the soft-sign domain where the Plotkin XOR is the
elementwise product, so zeroing every network parameter reduces the model
exactly to the classical code with soft-MAP leaf decoding. Decoding is
channel agnostic: it consumes raw received symbols, not channel LLRs.
"""
from __future__ import annotations

import base64
import json
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import DenseBlock, Node, init_weights
from .bits import as_bits, bpsk
from .codes import (
    FROZEN,
    Internal,
    Leaf,
    PlotkinTree,
    build_polar_tree,
    build_rm_tree,
    encode_leaf,
    polar_spec,
)
from .decoding import (
    DecodeResult,
    count_lse,
    count_parity,
    count_sigmoid,
    count_soft_reencode,
    leaf_decode_data,
    softmap_forward,
)

PROFILES = {"standard": [32, 32, 32], "tiny": [4]}
ALL_INTERNAL = "all_internal"
ALL_BUT_ROOT = "all_but_root"

CHECKPOINT_VERSION = 1
CHECKPOINT_KEYS = ("code", "profile", "neuralize", "seed", "tree_hash", "blocks")


class CheckpointError(ValueError):
    """A checkpoint file is corrupt, stale or belongs to a different code."""


@dataclass
class KoModel:
    """Tree topology plus per-node neural blocks and their init lineage."""

    tree: PlotkinTree
    code: dict
    profile: str
    neuralize: str
    enc: dict[int, DenseBlock]
    dec_left: dict[int, DenseBlock]
    dec_right: dict[int, DenseBlock]
    seed: int

    @property
    def k(self) -> int:
        return self.tree.k

    @property
    def n(self) -> int:
        return self.tree.n

    def neural_ids(self) -> list[int]:
        return sorted(self.enc)

    def encoder_params(self) -> list[np.ndarray]:
        return [p for nid in self.neural_ids() for p in self.enc[nid].parameters()]

    def decoder_params(self) -> list[np.ndarray]:
        out = []
        for nid in self.neural_ids():
            out.extend(self.dec_left[nid].parameters())
            out.extend(self.dec_right[nid].parameters())
        return out

    def zero_all(self) -> None:
        for p in self.encoder_params() + self.decoder_params():
            p[...] = 0.0


def tree_for_code(code: dict) -> PlotkinTree:
    """The tree a checkpoint's code description names; CheckpointError if
    the description is malformed."""
    try:
        if code["family"] == "rm":
            return build_rm_tree(code["m"], code["r"])
        if code["family"] == "polar":
            spec = polar_spec(code["n"], code["k"], code.get("design_z0", 0.5))
            if tuple(code.get("active_set", spec.active_set)) != spec.active_set:
                raise ValueError("stored active set disagrees with construction")
            return build_polar_tree(spec)
        raise ValueError(f"unknown code family {code['family']!r}")
    except KeyError as exc:
        raise CheckpointError(f"checkpoint code description lacks {exc}") from None
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"bad checkpoint code description: {exc}") from None


def build_ko_model(tree: PlotkinTree, code: dict, profile: str = "standard",
                   neuralize: str = ALL_INTERNAL, seed: int = 0,
                   init: str = "normal") -> KoModel:
    """Allocate and initialize blocks for every neuralized internal node.

    RM-skeleton models neuralize every internal node; the polar variant
    keeps the root as a plain Plotkin combination. Weights are N(0, 0.02^2)
    draws from a generator seeded by ``seed`` (blocks filled in node-id
    order: encoder, decoder-left, decoder-right), or exactly zero with
    init="zeros" for reduction tests.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    if neuralize not in (ALL_INTERNAL, ALL_BUT_ROOT):
        raise ValueError(f"unknown neuralize mode {neuralize!r}")
    hidden = PROFILES[profile]
    internal = tree.internal_nodes()
    ids = [nd.node_id for nd in internal]
    if neuralize == ALL_BUT_ROOT and isinstance(tree.root, Internal):
        ids = [i for i in ids if i != tree.root.node_id]
    rng = np.random.default_rng(seed)
    enc, dec_l, dec_r = {}, {}, {}
    for nid in sorted(ids):
        shapes = ([2] + hidden + [1], [2] + hidden + [1], [4] + hidden + [1])
        blocks = []
        for widths in shapes:
            blk = DenseBlock.zeros(widths)
            if init == "normal":
                blk = init_weights(blk, rng)
            blocks.append(blk)
        enc[nid], dec_l[nid], dec_r[nid] = blocks
    return KoModel(tree, code, profile, neuralize, enc, dec_l, dec_r, seed)


# ---------------------------------------------------------------------------
# Parameter binding: wrap model arrays in tape nodes once per forward pass
# ---------------------------------------------------------------------------

@dataclass
class Binding:
    enc: dict[int, list[Node]]
    dec_left: dict[int, list[Node]]
    dec_right: dict[int, list[Node]]

    def encoder_nodes(self) -> list[Node]:
        return [nd for nid in sorted(self.enc) for nd in self.enc[nid]]

    def decoder_nodes(self) -> list[Node]:
        out = []
        for nid in sorted(self.dec_left):
            out.extend(self.dec_left[nid])
            out.extend(self.dec_right[nid])
        return out


def bind(model: KoModel, train_encoder: bool = False,
         train_decoder: bool = False) -> Binding:
    enc_wrap = ad.var if train_encoder else ad.const
    dec_wrap = ad.var if train_decoder else ad.const
    return Binding(
        {nid: [enc_wrap(p) for p in blk.parameters()] for nid, blk in model.enc.items()},
        {nid: [dec_wrap(p) for p in blk.parameters()] for nid, blk in model.dec_left.items()},
        {nid: [dec_wrap(p) for p in blk.parameters()] for nid, blk in model.dec_right.items()},
    )


def binding_from_nodes(model: KoModel, nodes: list[Node]) -> Binding:
    """Rebuild a Binding from a flat node list ordered like
    encoder_params() followed by decoder_params() (finite-difference use)."""
    binding = Binding({}, {}, {})
    it = iter(nodes)
    for nid in model.neural_ids():
        binding.enc[nid] = [next(it) for _ in model.enc[nid].parameters()]
    for nid in model.neural_ids():
        binding.dec_left[nid] = [next(it) for _ in model.dec_left[nid].parameters()]
        binding.dec_right[nid] = [next(it) for _ in model.dec_right[nid].parameters()]
    return binding


def _apply_coordinatewise(block: DenseBlock, params: list[Node],
                          features: list[Node], ops=None) -> Node:
    """Run a d-input block over every coordinate of d equal-shape features.

    Ops counted per coordinate: each fan_in -> fan_out layer costs
    fan_in*fan_out multiplies plus fan_in*fan_out adds, and each hidden
    SELU unit costs 5 (one comparison, one exp, two multiplies, one add).
    """
    batch, width = features[0].shape
    packed = ad.reshape(ad.stack_last(features), (batch * width, len(features)))
    out = block.apply(packed, params)
    if ops is not None:
        rows = batch * width
        widths = block.widths
        for i in range(len(widths) - 1):
            fan_in, fan_out = widths[i], widths[i + 1]
            ops.count(muls=rows * fan_in * fan_out, adds=rows * fan_in * fan_out)
            if i < len(widths) - 2:
                ops.count(comparisons=rows * fan_out, exp_logs=rows * fan_out,
                          muls=2 * rows * fan_out, adds=rows * fan_out)
    return ad.reshape(out, (batch, width))


# ---------------------------------------------------------------------------
# Fused tape operations for the decoder leaves
# ---------------------------------------------------------------------------

def softmap_node(leaf: Leaf, feat: Node, ops=None) -> Node:
    """Max-log per-bit LLRs of a leaf as a fused differentiable op.

    The subgradient routes through the two selected codewords of each bit:
    d llr_i / d feat = signs[argmax0_i] - signs[argmax1_i].
    """
    llrs, arg0, arg1 = softmap_forward(leaf, feat.value, ops)
    signs = leaf_decode_data(leaf.kind, leaf.m).signs

    def vjp(g):
        dl = np.zeros_like(feat.value)
        for i in range(llrs.shape[1]):
            dl += g[:, i:i + 1] * (signs[arg0[:, i]] - signs[arg1[:, i]])
        return (dl,)

    return ad.custom_op(llrs, (feat,), vjp)


def soft_reencode_node(leaf: Leaf, p_one: Node) -> Node:
    """Soft-sign re-encoding: position j is the product of 1-2p over the
    message bits in its generator column. Exact on hard bits."""
    gen = leaf_decode_data(leaf.kind, leaf.m).generator
    t = p_one.value * -2.0 + 1.0
    involved = gen[None, :, :] == 1
    out = np.prod(np.where(involved, t[:, :, None], 1.0), axis=1)

    def vjp(g):
        dt = np.zeros_like(t)
        for i in range(gen.shape[0]):
            others = np.delete(gen, i, axis=0)
            loo = np.prod(np.where(others[None, :, :] == 1,
                                   np.delete(t, i, axis=1)[:, :, None], 1.0), axis=1)
            dt[:, i] = np.sum(g * gen[i][None, :] * loo, axis=1)
        return (-2.0 * dt,)

    return ad.custom_op(out, (p_one,), vjp)


# ---------------------------------------------------------------------------
# Forward graphs
# ---------------------------------------------------------------------------

def ko_encode_graph(model: KoModel, msg: np.ndarray, binding: Binding) -> Node:
    """Differentiable encoder: classical leaves in the soft-sign domain,
    residual neural combination at neuralized nodes, energy-n output."""
    msg = np.atleast_2d(as_bits(msg, "message"))
    if msg.shape[1] != model.k:
        raise ValueError(f"message length {msg.shape[1]} != k={model.k}")

    def enc(node) -> Node:
        if isinstance(node, Leaf):
            return ad.const(bpsk(encode_leaf(node, msg[:, node.lo:node.hi])))
        u = enc(node.u)
        v = enc(node.v)
        skip = ad.mul(u, v)
        if node.node_id in model.enc:
            r = _apply_coordinatewise(model.enc[node.node_id],
                                      binding.enc[node.node_id], [u, v])
            second = ad.add(r, skip)
        else:
            second = skip
        return ad.concat_cols([u, second])

    try:
        return ad.row_normalize(enc(model.tree.root), float(model.n))
    finally:
        del enc  # break the closure's self-reference so refcounting frees the tape


def ko_decode_graph(model: KoModel, y: Node, binding: Binding, ops=None):
    """Differentiable decoder from raw received symbols.

    Returns (llrs, leaf_order) where llrs is the (batch, k) node with each
    leaf's LLR block placed at its message slice, and leaf_order lists the
    non-frozen leaves in decode order.
    """
    batch = y.shape[0]
    leaf_llrs: dict[tuple[int, int], Node] = {}
    leaf_order: list[Leaf] = []

    def dec(node, feat: Node) -> Node:
        if isinstance(node, Leaf):
            if node.kind == FROZEN:
                return ad.const(np.ones((batch, node.length)))
            llr = softmap_node(node, feat, ops)
            leaf_llrs[(node.lo, node.hi)] = llr
            leaf_order.append(node)
            p_one = ad.sigmoid(ad.neg(llr))
            count_sigmoid(ops, batch * node.k)
            count_soft_reencode(ops, leaf_decode_data(node.kind, node.m).generator, batch)
            return soft_reencode_node(node, p_one)
        half = node.length // 2
        y1 = ad.slice_cols(feat, 0, half)
        y2 = ad.slice_cols(feat, half, node.length)
        base = ad.lse_pair(y1, y2)
        count_lse(ops, batch * half)
        neural = node.node_id in model.dec_left
        if neural:
            r = _apply_coordinatewise(model.dec_left[node.node_id],
                                      binding.dec_left[node.node_id], [y1, y2], ops)
            left = ad.add(r, base)
            if ops is not None:
                ops.count(adds=batch * half)
        else:
            left = base
        v_soft = dec(node.v, left)
        base_r = ad.add(y1, ad.mul(v_soft, y2))
        count_parity(ops, batch * half)
        if neural:
            r = _apply_coordinatewise(model.dec_right[node.node_id],
                                      binding.dec_right[node.node_id],
                                      [y1, y2, left, v_soft], ops)
            right = ad.add(r, base_r)
            if ops is not None:
                ops.count(adds=batch * half)
        else:
            right = base_r
        u_soft = dec(node.u, right)
        if ops is not None:
            ops.count(muls=batch * half)
        return ad.concat_cols([u_soft, ad.mul(u_soft, v_soft)])

    try:
        dec(model.tree.root, y)
    finally:
        del dec  # break the closure's self-reference so refcounting frees the tape
    ordered = sorted(leaf_llrs.items())
    llrs = ad.concat_cols([nd for _, nd in ordered])
    return llrs, leaf_order


# ---------------------------------------------------------------------------
# Plain (inference) entry points
# ---------------------------------------------------------------------------

def ko_encode(model: KoModel, msg) -> np.ndarray:
    """Encode messages to real codewords with per-codeword energy n
    (ko_encode_graph, recording no tape)."""
    arr = as_bits(msg, "message")
    single = arr.ndim == 1
    with ad.no_tape():
        out = ko_encode_graph(model, np.atleast_2d(arr), bind(model)).value
    return out[0] if single else out


def binarize_kob(model: KoModel, msg) -> np.ndarray:
    """KO-b codeword: the sign pattern of the KO codeword (0 maps to +1),
    which has energy exactly n without rescaling."""
    x = ko_encode(model, msg)
    return np.where(x < 0, -1.0, 1.0)


def ko_decode(model: KoModel, y, ops=None) -> tuple[np.ndarray, DecodeResult]:
    """Decode raw received symbols; returns (bit LLRs, DecodeResult).

    Hard decisions set bit j to 1 iff its LLR is negative. Leaf records are
    listed in decode order for block-error attribution. Runs ko_decode_graph
    without recording a tape.
    """
    y = np.asarray(y, dtype=np.float64)
    single = y.ndim == 1
    y2 = np.atleast_2d(y)
    if y2.shape[1] != model.n:
        raise ValueError(f"received length {y2.shape[1]} != n={model.n}")
    with ad.no_tape():
        llr_node, leaf_order = ko_decode_graph(model, ad.const(y2), bind(model), ops)
    llrs = llr_node.value
    message = (llrs < 0).astype(np.uint8)
    result = DecodeResult(
        message[0] if single else message,
        llrs[0] if single else llrs,
        [lf.label() for lf in leaf_order],
        [(lf.lo, lf.hi) for lf in leaf_order],
        [message[0, lf.lo:lf.hi] if single else message[:, lf.lo:lf.hi]
         for lf in leaf_order],
    )
    return (llrs[0] if single else llrs), result


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def _encode_array(a: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(a, dtype="<f8").tobytes()).decode()


def _decode_array(s: str, shape) -> np.ndarray:
    raw = base64.b64decode(s)
    arr = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    if arr.size != int(np.prod(shape)):
        raise CheckpointError(f"array payload has {arr.size} values, expected {shape}")
    return arr.reshape(shape)


def _block_dict(block: DenseBlock) -> dict:
    return {
        "widths": block.widths,
        "weights": [_encode_array(w) for w in block.weights],
        "biases": [_encode_array(b) for b in block.biases],
    }


def _block_from_dict(d: dict) -> DenseBlock:
    """A block from its checkpoint entry; CheckpointError if the entry is
    malformed or holds a non-finite weight."""
    try:
        widths = d["widths"]
        ws = [_decode_array(s, (widths[i], widths[i + 1])) for i, s in enumerate(d["weights"])]
        bs = [_decode_array(s, (widths[i + 1],)) for i, s in enumerate(d["biases"])]
    except KeyError as exc:
        raise CheckpointError(f"checkpoint block lacks {exc}") from None
    except (TypeError, ValueError, IndexError) as exc:
        raise CheckpointError(f"bad checkpoint block: {exc}") from None
    if not 0 < len(ws) == len(bs) == len(widths) - 1:
        raise CheckpointError("checkpoint block layer count disagrees with its widths")
    if not all(np.isfinite(p).all() for p in ws + bs):
        raise CheckpointError("checkpoint block holds a non-finite weight")
    return DenseBlock(ws, bs)


def save_checkpoint(model: KoModel, path) -> None:
    """Write the model as JSON: tree description, block weights in base64
    little-endian float64 (row major), init seed and a tree-structure hash."""
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "code": model.code,
        "profile": model.profile,
        "neuralize": model.neuralize,
        "seed": model.seed,
        "tree": model.tree.to_dict(),
        "tree_hash": model.tree.structure_hash(),
        "blocks": {
            str(nid): {
                "enc": _block_dict(model.enc[nid]),
                "dec_left": _block_dict(model.dec_left[nid]),
                "dec_right": _block_dict(model.dec_right[nid]),
            }
            for nid in model.neural_ids()
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_checkpoint(path) -> KoModel:
    """Rebuild a model from a checkpoint, validating version and topology."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise CheckpointError(f"checkpoint {path} is not a JSON object")
    if doc.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {doc.get('format_version')}")
    missing = [key for key in CHECKPOINT_KEYS if key not in doc]
    if missing:
        raise CheckpointError(f"checkpoint {path} lacks {', '.join(missing)}")
    tree = tree_for_code(doc["code"])
    if tree.structure_hash() != doc["tree_hash"]:
        raise CheckpointError("tree hash mismatch: checkpoint belongs to a different code")
    try:
        model = build_ko_model(tree, doc["code"], doc["profile"], doc["neuralize"],
                               seed=doc["seed"], init="zeros")
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"bad checkpoint: {exc}") from None
    blocks = doc["blocks"]
    if not isinstance(blocks, dict) or set(blocks) != {str(nid) for nid in model.neural_ids()}:
        raise CheckpointError("checkpoint blocks do not match the tree's neural nodes")
    for nid in model.neural_ids():
        entry = blocks[str(nid)]
        for name, want_in in (("enc", 2), ("dec_left", 2), ("dec_right", 4)):
            if not isinstance(entry, dict) or name not in entry:
                raise CheckpointError(f"checkpoint lacks the {name} block of node {nid}")
            blk = _block_from_dict(entry[name])
            if blk.widths[0] != want_in or blk.widths[-1] != 1:
                raise CheckpointError(f"block shape mismatch at node {nid}")
            getattr(model, name)[nid] = blk
    return model
