"""Minimal reverse-mode automatic differentiation and the Adam optimizer.

The tape is a graph of Node objects holding numpy array values at vector
granularity (whole-layer affines, whole-vector activations), so the node
count scales with network depth and tree size rather than block length.
Forward values are computed by the same numpy expressions as the plain
implementations, so taped and untaped results agree bit for bit.

Gradients flow only through nodes reachable from a ``var``; subgraphs built
purely from ``const`` inputs are skipped during the backward pass, and
nothing at all is recorded inside ``no_tape()``, where KO runs its dense
blocks on a row-tiled kernel (``dense_forward``) with bit-identical values.
"""
from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .decoding import lse as lse_values
from .decoding import row_tiles, stable_sigmoid

SELU_LAMBDA = 1.0507009873554805
SELU_ALPHA = 1.6732632423543772

# Floats per row tile of an untaped dense block (see dense_forward): 512 KB,
# 2,048 rows of a width-32 layer, so a tile's activations stay in cache.
TILE_FLOATS = 1 << 16


class Node:
    """One tape entry: a value, its parents and the vector-Jacobian pullback."""

    __slots__ = ("value", "parents", "vjp", "requires", "grad")

    def __init__(self, value, parents=(), vjp=None, requires=False):
        self.value = np.asarray(value, dtype=np.float64)
        self.parents = tuple(parents)
        self.vjp = vjp
        self.requires = requires
        self.grad = None

    @property
    def shape(self):
        return self.value.shape


def var(value) -> Node:
    """A leaf that accumulates a gradient (a trainable parameter)."""
    return Node(value, requires=True)


def const(value) -> Node:
    """A leaf with no gradient (inputs, noise, fixed parameters)."""
    return Node(value)


class _TapeState(threading.local):
    recording = True


_tape = _TapeState()


@contextmanager
def no_tape():
    """Record no tape on this thread inside the block: ops return parentless
    nodes without a pullback, with bit-identical values, so each
    intermediate is freed as soon as the forward pass drops it."""
    previous = _tape.recording
    _tape.recording = False
    try:
        yield
    finally:
        _tape.recording = previous


def recording() -> bool:
    """Whether ops on this thread record a tape: False inside no_tape()."""
    return _tape.recording


def _op(value, parents, vjp) -> Node:
    if not _tape.recording:
        return Node(value)
    requires = any(p.requires for p in parents)
    return Node(value, parents, vjp if requires else None, requires)


def custom_op(value, parents, vjp) -> Node:
    """Build a fused operation node from a precomputed value and pullback."""
    return _op(value, parents, vjp)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a: Node, b: Node, out: np.ndarray | None = None) -> Node:
    """a + b, written into out when given, which then is the node's value.
    out may be a.value when no pullback reads a's value (a matmul product,
    say): this pullback reads only the shapes."""
    return _op(np.add(a.value, b.value, out=out), (a, b),
               lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a: Node, b: Node) -> Node:
    return _op(a.value - b.value, (a, b),
               lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def mul(a: Node, b: Node) -> Node:
    return _op(a.value * b.value, (a, b),
               lambda g: (_unbroadcast(g * b.value, a.shape),
                          _unbroadcast(g * a.value, b.shape)))


def neg(a: Node) -> Node:
    return _op(-a.value, (a,), lambda g: (-g,))


def matmul(a: Node, b: Node) -> Node:
    return _op(a.value @ b.value, (a, b),
               lambda g: (g @ b.value.T, a.value.T @ g))


def selu_into(x: np.ndarray, out: np.ndarray, ex: np.ndarray, slope: bool = False):
    """Write L*max(x, 0) + L*A*(exp(min(x, 0)) - 1) to out, which may be x,
    using ex (x's shape) as scratch: bit-identical to selecting either term
    by the sign of x, as the other one is exactly 0. Returns the derivative
    if slope is set, else None: L*A*exp(min(x, 0)), less the exact
    L*A - L where x > 0, which leaves exactly L there."""
    np.minimum(x, 0.0, out=ex)
    np.exp(ex, out=ex)
    dx = np.multiply(SELU_LAMBDA * SELU_ALPHA, ex) if slope else None
    ex -= 1.0
    ex *= SELU_LAMBDA * SELU_ALPHA
    np.maximum(x, 0.0, out=out)
    out *= SELU_LAMBDA
    out += ex
    if slope:
        # if out is x, x now holds selu(x), which is > 0 exactly where x is
        np.greater(x, 0.0, out=ex)
        ex *= SELU_LAMBDA * SELU_ALPHA - SELU_LAMBDA
        dx -= ex
    return dx


def selu(a: Node, out: np.ndarray | None = None) -> Node:
    """SELU; the derivative is formed only if a gradient is needed. The
    value is written into out when given, which then is the node's value.
    out may be a.value when no pullback reads a's value (a sum, say): this
    pullback reads only the derivative, formed before a.value is
    overwritten."""
    x = a.value
    val = np.empty_like(x) if out is None else out
    dx = selu_into(x, val, np.empty_like(x), slope=a.requires)
    return _op(val, (a,), lambda g: (g * dx,))


def sigmoid(a: Node) -> Node:
    s = stable_sigmoid(a.value)
    return _op(s, (a,), lambda g: (g * s * (1.0 - s),))


def lse_pair(a: Node, b: Node) -> Node:
    """Elementwise LSE(a, b), the LLR-of-XOR rule, with exact gradients."""
    av, bv = a.value, b.value
    val = lse_values(av, bv)

    def vjp(g):
        s_sum = stable_sigmoid(av + bv)
        return (g * (s_sum - stable_sigmoid(av - bv)),
                g * (s_sum - stable_sigmoid(bv - av)))

    return _op(val, (a, b), vjp)


def concat_cols(nodes: list[Node]) -> Node:
    widths = [nd.value.shape[1] for nd in nodes]
    bounds = np.cumsum([0] + widths)
    val = np.concatenate([nd.value for nd in nodes], axis=1)
    return _op(val, tuple(nodes),
               lambda g: tuple(g[:, bounds[i]:bounds[i + 1]] for i in range(len(nodes))))


def slice_cols(a: Node, lo: int, hi: int) -> Node:
    def vjp(g):
        out = np.zeros_like(a.value)
        out[:, lo:hi] = g
        return (out,)

    return _op(a.value[:, lo:hi], (a,), vjp)


def reshape(a: Node, shape) -> Node:
    return _op(a.value.reshape(shape), (a,),
               lambda g: (g.reshape(a.value.shape),))


def stack_last(nodes: list[Node]) -> Node:
    val = np.stack([nd.value for nd in nodes], axis=-1)
    return _op(val, tuple(nodes),
               lambda g: tuple(g[..., i] for i in range(len(nodes))))


def row_normalize(a: Node, energy: float) -> Node:
    """Scale each row x to sqrt(energy) * x / ||x|| (energy-n codewords)."""
    x = a.value
    r = np.linalg.norm(x, axis=1, keepdims=True)
    c = np.sqrt(energy)
    val = c * x / r

    def vjp(g):
        dot = np.sum(g * x, axis=1, keepdims=True)
        return (c * (g / r - x * dot / r**3),)

    return _op(val, (a,), vjp)


def sum_all(a: Node) -> Node:
    return _op(a.value.sum(), (a,),
               lambda g: (np.broadcast_to(g, a.value.shape).copy(),))


def bce_with_logits(llr: Node, targets) -> Node:
    """Mean binary cross entropy where sigmoid(llr) is the bit-0 probability.

    Computed through the softplus identity, which is the numerically stable
    form of clamping the sigmoid away from 0 and 1: each element costs
    (1-m)*softplus(-L) + m*softplus(L), with gradient sigmoid(L) - (1-m).
    """
    t = np.asarray(targets, dtype=np.float64)
    x = llr.value
    val = np.mean((1.0 - t) * np.logaddexp(0.0, -x) + t * np.logaddexp(0.0, x))

    def vjp(g):
        return (g * (stable_sigmoid(x) - (1.0 - t)) / x.size,)

    return _op(val, (llr,), vjp)


def backward(loss: Node) -> None:
    """Reverse accumulation from a scalar loss into every reachable var.

    Afterwards only the vars and the loss hold a .grad: vars not reachable
    keep grad None (treated as zero by the optimizer), and each
    intermediate node drops its gradient and its pullback once the sweep
    has consumed them, so the sweep holds only the gradients still live.
    Parent links stay, but a second backward on the same loss is not
    supported.
    """
    if loss.value.size != 1:
        raise ValueError("backward() needs a scalar loss node")
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen or not node.requires:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            stack.append((p, False))
    loss.grad = np.ones_like(loss.value)
    for node in reversed(order):
        if node.grad is None or node.vjp is None:
            continue
        parent_grads = node.vjp(node.grad)
        node.vjp = None
        if node is not loss:
            node.grad = None
        for parent, pg in zip(node.parents, parent_grads):
            if not parent.requires:
                continue
            if parent.grad is None:
                # pg + 0 is 0 + pg bit for bit (-0 gives +0), in one pass
                parent.grad = np.add(pg, 0.0, out=np.empty_like(parent.value))
            else:
                parent.grad += pg
        del parent_grads, pg  # consumed: free them before the next pullback runs


def grad_or_zero(node: Node) -> np.ndarray:
    return np.zeros_like(node.value) if node.grad is None else node.grad


# ---------------------------------------------------------------------------
# Dense blocks
# ---------------------------------------------------------------------------

@dataclass
class DenseBlock:
    """Fully connected stack with SeLU between layers and a linear output."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def widths(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    @classmethod
    def zeros(cls, widths: list[int]) -> "DenseBlock":
        ws = [np.zeros((widths[i], widths[i + 1])) for i in range(len(widths) - 1)]
        bs = [np.zeros(widths[i + 1]) for i in range(len(widths) - 1)]
        return cls(ws, bs)

    def parameters(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters())

    def apply(self, x: Node, params: list[Node]) -> Node:
        """The block's output node. Taped, each layer is a matmul, add and
        selu node (add only, on the output layer) sharing one buffer: the
        sum and the SELU value overwrite the product in place, which
        backward never reads but for its shape, so a hidden layer keeps
        one activation array and the SELU slope. Without a tape,
        dense_forward gives the same values from the unpacked features."""
        h = x
        layers = len(self.weights)
        for i in range(layers):
            p = matmul(h, params[2 * i])
            h = add(p, params[2 * i + 1], out=p.value)
            if i < layers - 1:
                h = selu(h, out=h.value)
        return h


def dense_forward(features: list[np.ndarray], params: list[np.ndarray]) -> np.ndarray:
    """DenseBlock's forward value from its (weight, bias, ...) arrays over
    every coordinate of the d equal-shape (batch, width) features, without
    a tape: bit-identical to the taped DenseBlock.apply on the
    (batch * width, d) array that stacks them along a last axis.

    That array is never made whole: each tile of batch rows is packed into
    one reused buffer, and the SELU hidden layers run on it in place
    (h = tile @ W; h += b; SELU), so a tile's activations stay in cache
    from layer to layer. A tile has about TILE_FLOATS // (widest hidden
    layer) packed rows, and gemm rounds each row alike whatever the row
    count; but no tile has one row unless the input has, as numpy
    multiplies a lone row by gemv (see row_tiles). The output layer is one
    product over all rows, as in the taped block: numpy multiplies by a
    one-column weight (every KO block's output layer) with gemv, whose BLAS
    threads split the rows at places that depend on the row count, so tile
    by tile some rows would round differently.
    """
    weights, biases = params[0::2], params[1::2]
    batch, width = features[0].shape
    d = len(features)
    hidden = [w.shape[1] for w in weights[:-1]]
    tiles = row_tiles(batch, max(TILE_FLOATS // max(hidden, default=d) // width, 2 // width, 1))
    span = (tiles[-1][1] - tiles[-1][0]) * width
    # the last hidden layer's rows, or the packed input of a block with none
    h = np.empty((batch * width, weights[-1].shape[0]))
    pack = np.empty((span, d)) if hidden else None
    buffers = [np.empty((span, n)) for n in hidden[:-1]]
    ex = np.empty(span * max(hidden, default=0))
    for lo, hi in tiles:
        last = h[lo * width:hi * width]
        a = last if pack is None else pack[:len(last)]
        view = a.reshape(hi - lo, width, d)
        for i, f in enumerate(features):
            view[..., i] = f[lo:hi]
        for w, b, buf in zip(weights[:-1], biases[:-1], [*buffers, last]):
            out = buf[:len(last)]
            np.matmul(a, w, out=out)
            out += b
            selu_into(out, out, ex[:out.size].reshape(out.shape))
            a = out
    y = h @ weights[-1]
    y += biases[-1]
    return y


def init_weights(block: DenseBlock, rng: np.random.Generator, std: float = 0.02) -> DenseBlock:
    """Fresh block with every weight and bias drawn i.i.d. from N(0, std^2)."""
    ws = [rng.normal(0.0, std, size=w.shape) for w in block.weights]
    bs = [rng.normal(0.0, std, size=b.shape) for b in block.biases]
    return DenseBlock(ws, bs)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    """Adam moments for a fixed list of parameter arrays."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def for_params(cls, params: list[np.ndarray], lr: float) -> "AdamState":
        return cls(lr=lr, m=[np.zeros_like(p) for p in params],
                   v=[np.zeros_like(p) for p in params])


def adam_step(state: AdamState, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
    """One bias-corrected Adam update, applied to the arrays in place."""
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**state.t)
        v_hat = v / (1.0 - b2**state.t)
        p -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


# ---------------------------------------------------------------------------
# Finite-difference validation harness
# ---------------------------------------------------------------------------

def finite_diff_check(f, params: list[np.ndarray], h: float = 1e-6,
                      floor: float = 1e-3) -> dict:
    """Compare backward() gradients of f against central finite differences.

    f maps a list of parameter Nodes to a scalar Node. The relative error of
    each coordinate is |analytic - fd| / max(|analytic|, |fd|, floor); the
    floor keeps roundoff on near-zero gradients from registering as error.
    Returns {"max_rel_err", "per_param"}.
    """
    if not 1e-8 <= h <= 1e-4:
        raise ValueError("h must be in [1e-8, 1e-4]")
    nodes = [var(p.copy()) for p in params]
    loss = f(nodes)
    backward(loss)
    analytic = [grad_or_zero(nd) for nd in nodes]

    def value_at(ps):
        out = f([const(p) for p in ps])
        return float(out.value)

    per_param = []
    for idx, p in enumerate(params):
        fd = np.zeros_like(p, dtype=np.float64)
        flat = fd.reshape(-1)
        base = [q.copy() for q in params]
        pb = base[idx].reshape(-1)
        for j in range(flat.size):
            orig = pb[j]
            pb[j] = orig + h
            up = value_at(base)
            pb[j] = orig - h
            down = value_at(base)
            pb[j] = orig
            flat[j] = (up - down) / (2.0 * h)
        an = analytic[idx]
        denom = np.maximum(np.maximum(np.abs(an), np.abs(fd)), floor)
        per_param.append(float(np.max(np.abs(an - fd) / denom)) if fd.size else 0.0)
    return {"max_rel_err": max(per_param) if per_param else 0.0, "per_param": per_param}
