import threading
import tracemalloc

import numpy as np
import pytest

from plotkinlab import autodiff as ad
from plotkinlab.autodiff import (
    AdamState,
    DenseBlock,
    adam_step,
    backward,
    const,
    finite_diff_check,
    grad_or_zero,
    init_weights,
    var,
)
from plotkinlab.channel import make_channel, snr_to_sigma
from plotkinlab.codes import build_rm_tree
from plotkinlab.decoding import lse as lse_values
from plotkinlab.decoding import stable_sigmoid
from plotkinlab.ko import bind, build_ko_model
from plotkinlab.training import _run_step, _softmap_step, sample_messages


def mean_all(a):
    """The mean of a's entries as a scalar node."""
    size = a.value.size
    return ad.custom_op(a.value.mean(), (a,),
                        lambda g: (np.broadcast_to(g / size, a.value.shape).copy(),))


class TestForwardValues:
    def test_selu_constants(self):
        z = ad.selu(const(np.array([0.0])))
        assert z.value[0] == 0.0
        one = ad.selu(const(np.array([1.0])))
        assert one.value[0] == pytest.approx(1.0507, abs=1e-4)

    def test_sigmoid_midpoint(self):
        assert ad.sigmoid(const(np.array([0.0]))).value[0] == 0.5

    def test_taped_equals_untaped_bit_for_bit(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal(100), rng.standard_normal(100)
        assert np.array_equal(ad.lse_pair(const(a), const(b)).value, lse_values(a, b))
        assert np.array_equal(ad.sigmoid(const(a)).value, stable_sigmoid(a))
        assert np.array_equal(ad.add(const(a), const(b)).value, a + b)
        assert np.array_equal(ad.mul(const(a), const(b)).value, a * b)

    def test_row_normalize_energy(self):
        x = np.random.default_rng(1).standard_normal((7, 16))
        y = ad.row_normalize(const(x), 16.0).value
        assert np.sum(y**2, axis=1) == pytest.approx(np.full(7, 16.0), abs=1e-12)

    def test_bce_values(self):
        llr = const(np.zeros((2, 3)))
        assert ad.bce_with_logits(llr, np.zeros((2, 3))).value == pytest.approx(np.log(2))
        got = ad.bce_with_logits(const(np.array([[2.0, -2.0]])),
                                 np.array([[0.0, 1.0]]))
        assert got.value == pytest.approx(0.126928, abs=1e-6)

    def test_backward_requires_scalar(self):
        with pytest.raises(ValueError):
            backward(var(np.zeros(3)))


def selu_where_form(x):
    """The np.where SELU that the in-place kernel replaced: (value, derivative)."""
    pos = x > 0
    ex = np.exp(np.minimum(x, 0.0))
    with np.errstate(over="ignore", invalid="ignore"):
        val = np.where(pos, ad.SELU_LAMBDA * x, ad.SELU_LAMBDA * ad.SELU_ALPHA * (ex - 1.0))
    dx = np.where(pos, ad.SELU_LAMBDA, ad.SELU_LAMBDA * ad.SELU_ALPHA * ex)
    return val, dx


def selu_inputs():
    rng = np.random.default_rng(3)
    tiny, big = np.finfo(np.float64).tiny, np.finfo(np.float64).max
    edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                      1e-310, -1e-310, tiny, -tiny, big, -big, 1e-17, -1e-17,
                      -708.5, -745.2, -746.0, 709.0, 30.0, -30.0])
    patterns = rng.integers(0, 2**63, size=20000, dtype=np.int64).view(np.float64)
    return np.concatenate([edges, 12.0 * rng.standard_normal(20000), patterns, -patterns])


class TestSeluKernel:
    def test_value_equals_where_form_bit_for_bit(self):
        x = selu_inputs()
        want, _ = selu_where_form(x)
        with np.errstate(over="ignore", invalid="ignore"):
            for leaf in (const(x), var(x)):
                got = ad.selu(leaf).value
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_gradient_equals_where_form_bit_for_bit(self):
        x = selu_inputs()
        g = np.random.default_rng(4).standard_normal(x.shape)
        _, dx = selu_where_form(x)
        with np.errstate(over="ignore", invalid="ignore"):
            (got,) = ad.selu(var(x)).vjp(g)
        assert np.array_equal(got.view(np.uint64), (g * dx).view(np.uint64))

    def test_input_left_unchanged(self):
        x = selu_inputs()
        before = x.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            ad.selu(const(x))
            ad.selu(var(x))
        assert np.array_equal(x.view(np.uint64), before.view(np.uint64))

    @pytest.mark.parametrize("slope", [False, True])
    def test_in_place_equals_out_of_place_bit_for_bit(self, slope):
        """selu_into(x, x, ...), which a taped dense layer runs on its sum,
        gives the value and slope bits of a call into a separate out."""
        x = selu_inputs()
        want = np.empty_like(x)
        with np.errstate(over="ignore", invalid="ignore"):
            want_dx = ad.selu_into(x, want, np.empty_like(x), slope=slope)
            y = x.copy()
            dx = ad.selu_into(y, y, np.empty_like(y), slope=slope)
        assert np.array_equal(y.view(np.uint64), want.view(np.uint64))
        if slope:
            assert np.array_equal(dx.view(np.uint64), want_dx.view(np.uint64))
        else:
            assert dx is None and want_dx is None

    def test_selu_node_with_out_writes_there(self):
        x = selu_inputs()
        with np.errstate(over="ignore", invalid="ignore"):
            want = ad.selu(var(x.copy()))
            a = var(x.copy())
            got = ad.selu(a, out=a.value)
            g = np.random.default_rng(5).standard_normal(x.shape)
            (want_g,), (got_g,) = want.vjp(g), got.vjp(g)
        assert got.value is a.value
        assert np.array_equal(got.value.view(np.uint64), want.value.view(np.uint64))
        assert np.array_equal(got_g.view(np.uint64), want_g.view(np.uint64))


class TestNoTape:
    def test_nodes_made_inside_have_no_parents(self):
        rng = np.random.default_rng(5)
        w, x = var(rng.standard_normal((3, 2))), const(rng.standard_normal((4, 3)))
        taped = ad.selu(ad.matmul(x, w))
        with ad.no_tape():
            plain = ad.selu(ad.matmul(x, w))
        assert taped.parents and taped.requires
        assert plain.parents == () and plain.vjp is None and not plain.requires
        assert np.array_equal(plain.value, taped.value)

    def test_restored_after_exception(self):
        with pytest.raises(RuntimeError):
            with ad.no_tape():
                raise RuntimeError("inside")
        a = var(np.ones(2))
        assert ad.add(a, a).parents == (a, a)

    def test_nested_scopes_restore_the_outer_one(self):
        with ad.no_tape():
            with ad.no_tape():
                pass
            assert ad.neg(var(np.ones(2))).parents == ()
            assert not ad.recording()
        assert ad.recording()

    def test_other_threads_keep_recording(self):
        seen = []

        def build():
            a = var(np.ones(2))
            seen.append(ad.mul(a, a).parents)

        with ad.no_tape():
            worker = threading.Thread(target=build)
            worker.start()
            worker.join(timeout=30)
            assert ad.neg(var(np.ones(2))).parents == ()
        assert not worker.is_alive()
        assert len(seen) == 1 and len(seen[0]) == 2


def fd_scalar(f, x0: float, h: float = 1e-6) -> float:
    return (f(x0 + h) - f(x0 - h)) / (2 * h)


class TestGradients:
    def test_square(self):
        x = var(np.array(3.0))
        backward(ad.mul(x, x))
        assert x.grad == pytest.approx(6.0)

    def test_lse_partial_matches_finite_difference(self):
        # frozen from the central-difference oracle at (1, 1)
        def f(a):
            return float(lse_values(np.array(a), np.array(1.0)))

        want = fd_scalar(f, 1.0)
        assert want == pytest.approx(0.380797, abs=1e-6)
        a, b = var(np.array(1.0)), const(np.array(1.0))
        backward(ad.lse_pair(a, b))
        assert a.grad == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("op_name", [
        "add", "sub", "mul", "lse_pair", "selu", "sigmoid",
        "matmul", "row_normalize", "concat", "slice", "stack", "bce",
    ])
    def test_ops_match_finite_differences(self, op_name):
        rng = np.random.default_rng(hash(op_name) % 2**32)
        for trial in range(100):
            if op_name in ("add", "sub", "mul", "lse_pair"):
                shapes = [(3, 4), (3, 4)]
            elif op_name == "matmul":
                shapes = [(3, 4), (4, 2)]
            elif op_name in ("selu", "sigmoid", "row_normalize"):
                shapes = [(2, 5)]
            elif op_name in ("concat", "stack"):
                shapes = [(2, 3), (2, 3)]
            else:
                shapes = [(2, 4)]
            params = [rng.standard_normal(s) for s in shapes]
            if op_name == "selu":
                # keep draws away from the activation kink at zero
                params = [np.where(np.abs(p) < 1e-3, 0.5, p) for p in params]

            def f(nodes):
                if op_name == "add":
                    out = ad.add(*nodes)
                elif op_name == "sub":
                    out = ad.sub(*nodes)
                elif op_name == "mul":
                    out = ad.mul(*nodes)
                elif op_name == "lse_pair":
                    out = ad.lse_pair(*nodes)
                elif op_name == "matmul":
                    out = ad.matmul(*nodes)
                elif op_name == "selu":
                    out = ad.selu(nodes[0])
                elif op_name == "sigmoid":
                    out = ad.sigmoid(nodes[0])
                elif op_name == "row_normalize":
                    out = ad.row_normalize(nodes[0], 5.0)
                elif op_name == "concat":
                    out = ad.concat_cols(list(nodes))
                elif op_name == "slice":
                    out = ad.slice_cols(nodes[0], 1, 3)
                elif op_name == "stack":
                    out = ad.reshape(ad.stack_last(list(nodes)), (6, 2))
                else:
                    return ad.bce_with_logits(
                        nodes[0], (np.arange(8).reshape(2, 4) % 2).astype(float))
                # reduce with a fixed random projection to get a scalar
                w = const(np.linspace(0.5, 1.5, out.value.size).reshape(out.value.shape))
                return ad.sum_all(ad.mul(out, w))

            report = finite_diff_check(f, params, h=1e-6)
            assert report["max_rel_err"] <= 1e-4, (op_name, trial, report)
            if trial >= 4 and op_name in ("concat", "slice", "stack"):
                break  # structural ops need no repetition

    def test_dense_block_gradient(self):
        rng = np.random.default_rng(42)
        block = init_weights(DenseBlock.zeros([2, 4, 1]), rng, std=0.5)
        x = rng.standard_normal((6, 2))

        def f(nodes):
            out = block.apply(const(x), nodes)
            return mean_all(ad.sigmoid(out))

        report = finite_diff_check(f, block.parameters(), h=1e-6)
        assert report["max_rel_err"] <= 1e-4

    def test_unreached_parameter_gets_zero(self):
        a, b = var(np.ones(3)), var(np.ones(3))
        backward(ad.sum_all(ad.mul(a, a)))
        assert grad_or_zero(b).tolist() == [0.0, 0.0, 0.0]

    def test_grad_accumulates_over_reuse(self):
        x = var(np.array(2.0))
        backward(ad.add(ad.mul(x, x), ad.mul(x, x)))
        assert x.grad == pytest.approx(8.0)


def reference_backward(loss):
    """backward as it was before it released consumed gradients and
    pullbacks: zero-filled gradient seeds, every node keeps its .grad."""
    order, seen, stack = [], set(), [(loss, False)]
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
        for parent, pg in zip(node.parents, node.vjp(node.grad)):
            if not parent.requires:
                continue
            if parent.grad is None:
                parent.grad = np.zeros_like(parent.value)
            parent.grad += pg


def tape(loss):
    """Every node reachable from the loss through parent links."""
    seen, stack = {id(loss): loss}, [loss]
    while stack:
        for p in stack.pop().parents:
            if id(p) not in seen:
                seen[id(p)] = p
                stack.append(p)
    return list(seen.values())


def unit_broadcast():
    w, b = var(np.full((3, 2), 0.5)), var(np.array([0.25, -1.0]))
    x = const(np.arange(12.0).reshape(4, 3))
    weight = const(np.linspace(-1, 1, 8).reshape(4, 2))
    return ad.sum_all(ad.mul(ad.add(ad.matmul(x, w), b), weight)), [w, b]


def unit_reuse():
    x = var(np.array([1.5, -2.0, 0.125]))
    y = ad.selu(ad.mul(x, const(np.array([3.0, 0.5, -7.0]))))
    return ad.sum_all(ad.add(ad.mul(y, y), ad.sub(y, x))), [x]


def unit_negative_zero():
    # x's first (and only) contribution is 1 * -0.0
    x = var(np.array([2.0, -3.0]))
    return ad.sum_all(ad.mul(x, const(np.array([-0.0, 1.0])))), [x]


def unit_nan():
    x, z = var(np.array([1.0, 2.0])), var(np.array([0.5, 0.5]))
    y = ad.mul(x, const(np.array([np.nan, 1.0])))
    return ad.sum_all(ad.add(ad.mul(y, z), x)), [x, z]


def ko_step(m, r, mode):
    """One training step's loss and trained vars for a tiny KO model: the
    decoder phase, the encoder phase or an encoder_only_softmap step."""
    model = build_ko_model(build_rm_tree(m, r), {"family": "rm", "m": m, "r": r},
                           "tiny", seed=5)
    rng = np.random.default_rng(11)
    msgs = sample_messages(16, model.k, rng)
    train_enc = mode != "dec"
    binding = bind(model, train_encoder=train_enc, train_decoder=not train_enc)
    step = _softmap_step if mode == "softmap" else _run_step
    loss = step(model, msgs, make_channel("awgn", snr_to_sigma(-1.0)), rng, binding)
    params = model.encoder_params() if train_enc else model.decoder_params()
    return loss, [binding[id(p)] for p in params]


GRAPHS = {
    "broadcast": unit_broadcast,
    "reuse": unit_reuse,
    "negative_zero": unit_negative_zero,
    "nan": unit_nan,
    # k = 37 leaves KO(8,2) out of encoder_only_softmap
    **{f"ko{m}{r}_{mode}": (lambda m=m, r=r, mode=mode: ko_step(m, r, mode))
       for m, r, modes in ((3, 1, ("dec", "enc", "softmap")), (8, 2, ("dec", "enc")))
       for mode in modes},
}


class TestBackwardRelease:
    @pytest.mark.parametrize("name", list(GRAPHS))
    def test_var_gradients_bit_identical_to_reference(self, name):
        ref_loss, ref_vars = GRAPHS[name]()
        reference_backward(ref_loss)
        loss, vars_ = GRAPHS[name]()
        backward(loss)
        for want, got in zip(ref_vars, vars_, strict=True):
            assert (want.grad is None) == (got.grad is None)
            if want.grad is not None:
                assert np.array_equal(want.grad.view(np.int64), got.grad.view(np.int64))

    @pytest.mark.parametrize("name", ["reuse", "ko31_dec", "ko31_softmap"])
    def test_only_vars_and_loss_keep_gradients(self, name):
        loss, vars_ = GRAPHS[name]()
        nodes = tape(loss)
        parents = {id(n): n.parents for n in nodes}
        backward(loss)
        assert loss.grad is not None
        assert any(v.grad is not None for v in vars_)
        for node in nodes:
            assert node.parents is parents[id(node)]
            if node is not loss and node.parents:
                assert node.grad is None and node.vjp is None


def three_op_apply(block, x, params):
    """DenseBlock.apply as it was before its layers shared a buffer: each
    matmul, add and selu node writes a new array."""
    h = x
    layers = len(block.weights)
    for i in range(layers):
        h = ad.add(ad.matmul(h, params[2 * i]), params[2 * i + 1])
        if i < layers - 1:
            h = ad.selu(h)
    return h


def tape_structure(out):
    """The tape below out in depth-first order: each node's parents as
    positions in that order (leaves by identity), its shape and whether it
    needs a gradient and has a pullback."""
    order, index, stack = [], {}, [out]
    while stack:
        node = stack.pop()
        if id(node) in index:
            continue
        index[id(node)] = len(order)
        order.append(node)
        stack.extend(reversed(node.parents))
    return [(tuple(index[id(p)] for p in node.parents), node.shape, node.requires,
             node.vjp is None, id(node) if not node.parents else None)
            for node in order]


class TestDenseBlockBuffer:
    """Taped, a dense layer's sum and SELU value overwrite its product in
    place; the tape, values and gradients are the three-op composition's."""

    WIDTHS = {"standard-2in": [2, 32, 32, 32, 1], "standard-4in": [4, 32, 32, 32, 1],
              "tiny": [2, 4, 1]}

    @pytest.mark.parametrize("widths", list(WIDTHS), ids=str)
    @pytest.mark.parametrize("rows", [1, 300])
    @pytest.mark.parametrize("leaf", [var, const], ids=["var-x", "const-x"])
    def test_same_tape_values_and_gradients_as_three_ops(self, widths, rows, leaf):
        rng = np.random.default_rng(rows)
        block = init_weights(DenseBlock.zeros(self.WIDTHS[widths]), rng, std=0.5)
        x = leaf(rng.standard_normal((rows, block.widths[0])))
        weight = const(rng.standard_normal((rows, 1)))
        params = [var(p) for p in block.parameters()]
        ref_params = [var(p) for p in block.parameters()]
        want = three_op_apply(block, x, ref_params)
        got = block.apply(x, params)
        assert np.array_equal(got.value.view(np.int64), want.value.view(np.int64))
        shared = {id(p): id(q) for p, q in zip(ref_params, params)}
        want_tape = [(ps, shape, req, no_vjp, shared.get(leaf_id, leaf_id))
                     for ps, shape, req, no_vjp, leaf_id in tape_structure(want)]
        assert tape_structure(got) == want_tape
        grads = []
        for out, ps in ((want, ref_params), (got, params)):
            x.grad = None
            backward(ad.sum_all(ad.mul(out, weight)))
            grads.append([grad_or_zero(p) for p in ps] + [x.grad])
        for a, b in zip(*grads, strict=True):
            assert (a is None) == (b is None)
            if a is not None:
                assert np.array_equal(a.view(np.int64), b.view(np.int64))

    def test_standard_block_keeps_two_arrays_per_hidden_layer(self):
        """A taped standard block holds each hidden layer's shared buffer
        and SELU slope; it held four arrays (product, sum, value, slope)
        when each op wrote a new one."""
        rows, widths = 2000, self.WIDTHS["standard-4in"]
        rng = np.random.default_rng(9)
        block = init_weights(DenseBlock.zeros(widths), rng)
        x = const(rng.standard_normal((rows, widths[0])))
        params = [var(p) for p in block.parameters()]
        tracemalloc.start()
        try:
            out = block.apply(x, params)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        hidden = len(widths) - 2
        layer_array = rows * 32 * 8
        # plus the output layer's one rows x 1 buffer and the nodes
        assert held <= 2 * hidden * layer_array + rows * 8 + 64 * 1024
        del out


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        p = [np.array([1.0, -2.0])]
        state = AdamState.for_params(p, lr=0.1)
        adam_step(state, p, [np.zeros(2)])
        assert p[0].tolist() == [1.0, -2.0]

    def test_first_step_moves_by_lr(self):
        p = [np.array([0.0])]
        state = AdamState.for_params(p, lr=0.1)
        adam_step(state, p, [np.array([1.0])])
        assert p[0][0] == pytest.approx(-0.1, abs=1e-6)

    def test_constant_gradient_steps_shrink(self):
        p = [np.array([0.0])]
        state = AdamState.for_params(p, lr=0.1)
        deltas = []
        last = 0.0
        for _ in range(5):
            adam_step(state, p, [np.array([1.0])])
            deltas.append(abs(p[0][0] - last))
            last = p[0][0]
        assert all(d1 >= d2 - 1e-12 for d1, d2 in zip(deltas, deltas[1:]))

    def test_step_counter(self):
        p = [np.zeros(1)]
        state = AdamState.for_params(p, lr=0.1)
        for _ in range(3):
            adam_step(state, p, [np.ones(1)])
        assert state.t == 3


class TestInitWeights:
    def test_sample_variance(self):
        rng = np.random.default_rng(0)
        block = init_weights(DenseBlock.zeros([100, 500, 100]), rng)
        flat = np.concatenate([p.reshape(-1) for p in block.parameters()])
        assert flat.size >= 10**5
        assert 0.02**2 * 0.97 <= flat.var() <= 0.02**2 * 1.03

    def test_seed_determinism(self):
        b1 = init_weights(DenseBlock.zeros([2, 4, 1]), np.random.default_rng(5))
        b2 = init_weights(DenseBlock.zeros([2, 4, 1]), np.random.default_rng(5))
        for p1, p2 in zip(b1.parameters(), b2.parameters()):
            assert np.array_equal(p1, p2)

    def test_forced_zero_mode(self):
        block = DenseBlock.zeros([4, 4, 1])
        assert all(not p.any() for p in block.parameters())

    def test_parameter_count_tiny_right_block(self):
        assert DenseBlock.zeros([4, 4, 1]).parameter_count() == 25


class TestFiniteDiffHarness:
    def test_linear_function_is_exact(self):
        w = np.array([1.5, -2.0, 0.5])

        def f(nodes):
            return ad.sum_all(ad.mul(nodes[0], const(w)))

        report = finite_diff_check(f, [np.array([1.0, 2.0, 3.0])])
        assert report["max_rel_err"] <= 1e-9

    def test_rejects_bad_h(self):
        with pytest.raises(ValueError):
            finite_diff_check(lambda nodes: ad.sum_all(nodes[0]), [np.ones(2)], h=1.0)
