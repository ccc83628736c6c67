import json
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plotkinlab import autodiff as ad
from plotkinlab.bits import bpsk
from plotkinlab.codes import all_messages, build_polar_tree, build_rm_tree, polar_spec, tree_encode
from plotkinlab import ko as ko_module
from plotkinlab.decoding import LLR_LIMIT, dumer_decode, softmap_forward
from plotkinlab.ko import (
    CheckpointError,
    binarize_kob,
    bind,
    binding_from_nodes,
    build_ko_model,
    ko_decode,
    ko_decode_graph,
    ko_encode,
    ko_encode_graph,
    load_checkpoint,
    save_checkpoint,
)

RM82 = {"family": "rm", "m": 8, "r": 2}


def make_model(m, r, profile="tiny", seed=0, init="normal"):
    tree = build_rm_tree(m, r)
    return build_ko_model(tree, {"family": "rm", "m": m, "r": r}, profile,
                          seed=seed, init=init)


class TestBuild:
    def test_ko_8_2_block_inventory(self):
        model = make_model(8, 2, "standard")
        assert len(model.enc) == 6
        assert len(model.dec_left) + len(model.dec_right) == 12
        for nid in model.neural_ids():
            assert model.enc[nid].widths == [2, 32, 32, 32, 1]
            assert model.dec_left[nid].widths == [2, 32, 32, 32, 1]
            assert model.dec_right[nid].widths == [4, 32, 32, 32, 1]

    def test_ko_polar_64_7_keeps_root_classical(self):
        tree = build_polar_tree(polar_spec(64, 7))
        model = build_ko_model(tree, {"family": "polar", "n": 64, "k": 7},
                               "standard", "all_but_root")
        assert len(tree.internal_nodes()) == 7
        assert len(model.enc) == 6
        assert tree.root.node_id not in model.enc

    def test_tiny_decoder_right_parameter_count(self):
        model = make_model(3, 1, "tiny")
        nid = model.neural_ids()[0]
        assert model.dec_right[nid].parameter_count() == 25

    def test_init_seed_changes_weights(self):
        m1, m2 = make_model(3, 1, seed=0), make_model(3, 1, seed=1)
        nid = m1.neural_ids()[0]
        assert not np.array_equal(m1.enc[nid].weights[0], m2.enc[nid].weights[0])

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            make_model(3, 1, profile="huge")


class TestZeroResidualReduction:
    def test_encoder_equals_bpsk_rm(self):
        model = make_model(8, 2, "standard", init="zeros")
        msgs = np.random.default_rng(0).integers(0, 2, (64, 37), dtype=np.uint8)
        want = bpsk(tree_encode(model.tree, msgs))
        got = ko_encode(model, msgs)
        assert np.array_equal(got, want)

    def test_decoder_equals_classical_soft_leaf_rule(self):
        model = make_model(8, 2, "standard", init="zeros")
        rng = np.random.default_rng(1)
        msgs = rng.integers(0, 2, (1000, 37), dtype=np.uint8)
        y = bpsk(tree_encode(model.tree, msgs)) + 1.0 * rng.standard_normal((1000, 256))
        llrs, result = ko_decode(model, y)
        classical = dumer_decode(model.tree, y, "soft")
        assert np.array_equal(result.message, classical.message)
        assert np.array_equal(llrs, classical.llrs)

    def test_polar_zero_residual_round_trip(self):
        tree = build_polar_tree(polar_spec(64, 7))
        model = build_ko_model(tree, {"family": "polar", "n": 64, "k": 7},
                               "tiny", "all_but_root", init="zeros")
        msgs = all_messages(7)
        y = bpsk(tree_encode(tree, msgs)) + 0.01 * np.random.default_rng(2).standard_normal((128, 64))
        _, result = ko_decode(model, y)
        assert np.array_equal(result.message, msgs)


class TestKoEncode:
    def test_output_shape_8_2(self):
        model = make_model(8, 2)
        x = ko_encode(model, np.zeros(37, dtype=np.uint8))
        assert x.shape == (256,)

    def test_energy_normalized_random_weights(self):
        model = make_model(4, 2, seed=9)
        msgs = np.random.default_rng(3).integers(0, 2, (100, model.k), dtype=np.uint8)
        x = ko_encode(model, msgs)
        assert np.abs(np.sum(x**2, axis=1) - model.n).max() <= 1e-9 * model.n

    def test_message_length_checked(self):
        with pytest.raises(ValueError):
            ko_encode(make_model(3, 1), [0, 1])

    def test_nonlinear_when_weights_nonzero(self):
        model = make_model(3, 1, seed=4)
        x = ko_encode(model, np.array([1, 0, 1, 1], dtype=np.uint8))
        assert not np.allclose(np.abs(x), 1.0)


class TestKoDecode:
    def test_llr_length_and_decisions(self):
        model = make_model(8, 2)
        y = np.random.default_rng(5).standard_normal(256)
        llrs, result = ko_decode(model, y)
        assert llrs.shape == (37,)
        assert np.array_equal(result.message, (llrs < 0).astype(np.uint8))

    def test_leaf_visit_order(self, monkeypatch):
        model = make_model(8, 2)
        seen = []

        def recording(leaf, feat):
            seen.append(leaf)
            return softmap_forward(leaf, feat)

        monkeypatch.setattr(ko_module, "softmap_forward", recording)
        ko_decode(model, np.random.default_rng(6).standard_normal(256))
        assert seen == model.tree.message_leaves()
        assert [lf.label() for lf in seen] == ["RM(7,1)", "RM(6,1)", "RM(5,1)", "RM(4,1)",
                                               "RM(3,1)", "RM(2,1)", "RM(2,2)"]

    def test_llr_blocks_align_with_message_slices(self, monkeypatch):
        model = make_model(8, 2)
        leaf_llrs = {}

        def recording(leaf, feat):
            out = softmap_forward(leaf, feat)
            leaf_llrs[leaf] = out
            return out

        monkeypatch.setattr(ko_module, "softmap_forward", recording)
        y = np.random.default_rng(7).standard_normal((5, 256))
        with ad.no_tape():
            llr_node, leaves = ko_decode_graph(model, ad.const(y), bind(model))
        assert leaves == model.tree.message_leaves()
        assert (leaves[0].lo, leaves[0].hi) == (29, 37)   # first decoded, highest block
        assert (leaves[-1].lo, leaves[-1].hi) == (0, 4)
        for lf in leaves:
            assert np.array_equal(llr_node.value[:, lf.lo:lf.hi], leaf_llrs[lf])

    def test_length_checked(self):
        with pytest.raises(ValueError):
            ko_decode(make_model(3, 1), np.zeros(4))

    def test_oversized_full_rate_leaf_is_named(self):
        with pytest.raises(ValueError, match=r"RM\(5,5\)"):
            ko_decode(make_model(6, 5), np.ones(64))

    def test_end_to_end_gradients_match_finite_differences(self):
        model = make_model(3, 1, "tiny", seed=11)
        rng = np.random.default_rng(12)
        msgs = rng.integers(0, 2, (8, 4), dtype=np.uint8)
        noise = rng.standard_normal((8, 8))
        params = model.encoder_params() + model.decoder_params()

        def f(nodes):
            binding = binding_from_nodes(model, nodes)
            x = ko_encode_graph(model, msgs, binding)
            y = ad.add(x, ad.const(noise))
            llrs, _ = ko_decode_graph(model, y, binding)
            return ad.bce_with_logits(llrs, msgs)

        report = ad.finite_diff_check(f, params, h=1e-6)
        assert report["max_rel_err"] <= 1e-4


def polar_model(seed=3):
    tree = build_polar_tree(polar_spec(64, 7))
    return build_ko_model(tree, {"family": "polar", "n": 64, "k": 7},
                          "tiny", "all_but_root", seed=seed)


class TestTapeFreeInference:
    """ko_encode/ko_decode run the graphs without a tape; their values must
    equal the taped graphs' values bit for bit."""

    MODELS = {
        "ko82_standard": lambda: make_model(8, 2, "standard", seed=1),
        "ko82_tiny": lambda: make_model(8, 2, "tiny", seed=1),
        "polar64_all_but_root": polar_model,
    }

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_values_equal_taped_graphs(self, name):
        model = self.MODELS[name]()
        rng = np.random.default_rng(8)
        msgs = rng.integers(0, 2, (12, model.k), dtype=np.uint8)
        binding = bind(model, train_encoder=True, train_decoder=True)
        taped_x = ko_encode_graph(model, msgs, binding)
        assert taped_x.parents
        assert np.array_equal(ko_encode(model, msgs), taped_x.value)
        y = taped_x.value + 0.8 * rng.standard_normal(taped_x.shape)
        taped_llrs, _ = ko_decode_graph(model, ad.const(y), binding)
        llrs, result = ko_decode(model, y)
        assert np.array_equal(llrs, taped_llrs.value)
        assert np.array_equal(result.message, (taped_llrs.value < 0).astype(np.uint8))

    @staticmethod
    def warm_peak_in_inputs(call):
        """Peak traced allocation of the second of two calls of call(model,
        msgs, y) on 1,000 KO(8,2)-tiny blocks, in units of the (1000, 256)
        float64 input y."""
        model = make_model(8, 2, "tiny", seed=1)
        rng = np.random.default_rng(0)
        msgs = rng.integers(0, 2, (1000, model.k), dtype=np.uint8)
        y = ko_encode(model, msgs) + 0.8 * rng.standard_normal((1000, model.n))
        call(model, msgs, y)
        tracemalloc.start()
        try:
            call(model, msgs, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / y.nbytes

    def test_tiny_decode_peaks_below_five_and_a_half_inputs(self):
        """A warm ko_decode peaks at about 5.0 inputs: each block packs its
        features a tile at a time. It peaked at 6.5 while a node's block
        input was packed whole, (batch * width, d), and at 7.5 while a
        node's block output and classical base stayed alive as its
        children decoded."""
        assert self.warm_peak_in_inputs(lambda model, msgs, y: ko_decode(model, y)) <= 5.5

    def test_tiny_encode_peaks_below_five_and_a_quarter_inputs(self):
        """A warm ko_encode peaks at about 4.7 inputs, and at 5.5 while a
        node's block input was packed whole."""
        assert self.warm_peak_in_inputs(lambda model, msgs, y: ko_encode(model, msgs)) <= 5.25

    def test_one_dimensional_input(self):
        model = make_model(8, 2, "standard", seed=1)
        msg = np.random.default_rng(9).integers(0, 2, model.k, dtype=np.uint8)
        binding = bind(model, train_encoder=True, train_decoder=True)
        taped_x = ko_encode_graph(model, msg, binding).value
        x = ko_encode(model, msg)
        assert x.shape == (model.n,) and np.array_equal(x, taped_x[0])
        llrs, result = ko_decode(model, x)
        taped_llrs, _ = ko_decode_graph(model, ad.const(taped_x), binding)
        assert llrs.shape == (model.k,) and np.array_equal(llrs, taped_llrs.value[0])
        assert result.message.shape == (model.k,)


class TestLlrLimit:
    """ko_decode clips its input to +/-LLR_LIMIT, as dumer_decode does, and
    rejects non-finite output LLRs."""

    CODEWORDS = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 1], [1, 1, 1]], dtype=np.uint8)

    @pytest.mark.parametrize("profile", ["tiny", "standard"])
    def test_codewords_near_the_float_limit(self, profile):
        model = make_model(2, 1, profile, init="zeros")
        y = 1.7e308 * bpsk(tree_encode(model.tree, self.CODEWORDS))
        llrs, result = ko_decode(model, y)
        assert np.array_equal(result.message, self.CODEWORDS)
        assert np.isfinite(llrs).all()

    @given(st.sampled_from(["tiny", "standard"]),
           st.lists(st.one_of(st.floats(-LLR_LIMIT, LLR_LIMIT), st.sampled_from(
               [0.0, -0.0, LLR_LIMIT, -LLR_LIMIT, 5e-324, -5e-324])), min_size=4, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_in_range_input_passes_through_bit_for_bit(self, profile, values):
        model = make_model(2, 1, profile, init="zeros")
        y = np.array(values)
        llrs, _ = ko_decode(model, y)
        taped, _ = ko_decode_graph(model, ad.const(y[None, :]), bind(model))
        assert np.array_equal(llrs.view(np.uint64), taped.value[0].view(np.uint64))

    def test_overflowing_block_raises(self):
        model = make_model(2, 1, "tiny", init="zeros")
        (nid,) = model.neural_ids()
        model.dec_left[nid].biases[-1][:] = 1.5e308
        with pytest.raises(ValueError, match="KO decoder output"):
            with np.errstate(over="ignore", invalid="ignore"):
                ko_decode(model, np.ones((2, 4)))


class TestBinarize:
    def test_zero_model_unchanged(self):
        model = make_model(4, 2, init="zeros")
        msgs = np.random.default_rng(8).integers(0, 2, (20, model.k), dtype=np.uint8)
        assert np.array_equal(binarize_kob(model, msgs), ko_encode(model, msgs))

    def test_sign_rule(self):
        model = make_model(3, 1, seed=13)
        x = ko_encode(model, np.array([1, 1, 0, 1], dtype=np.uint8))
        b = binarize_kob(model, np.array([1, 1, 0, 1], dtype=np.uint8))
        assert set(np.unique(b)) <= {-1.0, 1.0}
        assert np.array_equal(b, np.where(x < 0, -1.0, 1.0))

    def test_energy_exact(self):
        model = make_model(4, 1, seed=14)
        msgs = np.random.default_rng(9).integers(0, 2, (10, model.k), dtype=np.uint8)
        b = binarize_kob(model, msgs)
        assert (np.sum(b**2, axis=1) == model.n).all()


class TestCheckpoints:
    def test_round_trip_bit_exact(self, tmp_path):
        model = make_model(3, 1, seed=21)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(model, p1)
        loaded = load_checkpoint(p1)
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        for nid in model.neural_ids():
            for a, b in zip(model.enc[nid].parameters(), loaded.enc[nid].parameters()):
                assert np.array_equal(a, b)

    def test_rejects_other_code(self, tmp_path):
        model = make_model(3, 1)
        path = tmp_path / "m.json"
        save_checkpoint(model, path)
        doc = json.loads(path.read_text())
        doc["code"] = {"family": "rm", "m": 4, "r": 1}
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_rejects_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_rejects_wrong_version(self, tmp_path):
        model = make_model(3, 1)
        path = tmp_path / "m.json"
        save_checkpoint(model, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_rejects_json_list(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(CheckpointError, match="not a JSON object"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["code", "tree_hash", "blocks", "seed"])
    def test_rejects_missing_key(self, tmp_path, key):
        path = tmp_path / "m.json"
        save_checkpoint(make_model(3, 1), path)
        doc = json.loads(path.read_text())
        del doc[key]
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=key):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, match", [
        (lambda doc: doc["code"].pop("m"), "lacks 'm'"),
        (lambda doc: doc["code"].update(family="bch"), "unknown code family"),
        (lambda doc: doc["code"].update(m="8"), "bad checkpoint code description"),
        (lambda doc: doc.update(profile="huge"), "unknown profile"),
        (lambda doc: doc["blocks"]["1"].pop("dec_left"), "dec_left block of node 1"),
        (lambda doc: doc["blocks"]["1"]["enc"].pop("widths"), "block lacks 'widths'"),
        (lambda doc: doc["blocks"]["1"]["enc"].update(weights=[]), "layer count"),
        (lambda doc: doc["blocks"]["1"]["enc"]["weights"].append("AAAA"), "bad checkpoint block"),
        (lambda doc: doc["blocks"]["1"]["enc"].update(biases="x"), "bad checkpoint block"),
        (lambda doc: doc.update(blocks=5), "do not match"),
    ], ids=["code_lacks_m", "unknown_family", "m_is_text", "unknown_profile",
            "entry_lacks_block", "block_lacks_widths", "no_layers", "extra_layer",
            "biases_not_a_list", "blocks_not_a_dict"])
    def test_rejects_malformed_nested_field(self, tmp_path, edit, match):
        path = tmp_path / "m.json"
        save_checkpoint(make_model(3, 1), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)

    @pytest.mark.parametrize("code", [
        {"family": "rm", "m": 30, "r": 15},
        {"family": "rm", "m": 11, "r": 1},
        {"family": "polar", "n": 1 << 30, "k": 7},
        {"family": "polar", "n": 2048, "k": 7},
    ], ids=["rm30_15", "rm11_1", "polar2^30", "polar2048"])
    def test_rejects_oversized_code_quickly(self, tmp_path, code):
        path = tmp_path / "m.json"
        save_checkpoint(make_model(3, 1), path)
        doc = json.loads(path.read_text())
        doc["code"] = code
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        with pytest.raises(CheckpointError, match="bad checkpoint code description"):
            load_checkpoint(path)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_weights(self, tmp_path, bad):
        model = make_model(3, 1)
        nid = model.neural_ids()[0]
        model.dec_right[nid].biases[-1][0] = bad
        path = tmp_path / "m.json"
        save_checkpoint(model, path)
        with pytest.raises(CheckpointError, match="non-finite"):
            load_checkpoint(path)

    def test_records_block_inventory(self, tmp_path):
        model = make_model(8, 2, "standard")
        path = tmp_path / "m.json"
        save_checkpoint(model, path)
        doc = json.loads(path.read_text())
        assert len(doc["blocks"]) == 6
        entry = next(iter(doc["blocks"].values()))
        assert entry["enc"]["widths"] == [2, 32, 32, 32, 1]
        assert entry["dec_right"]["widths"] == [4, 32, 32, 32, 1]

    def test_polar_checkpoint_round_trip(self, tmp_path):
        tree = build_polar_tree(polar_spec(64, 7))
        model = build_ko_model(tree, {"family": "polar", "n": 64, "k": 7,
                                      "design_z0": 0.5},
                               "tiny", "all_but_root", seed=2)
        path = tmp_path / "p.json"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        msgs = all_messages(7)[:16]
        assert np.array_equal(ko_encode(model, msgs), ko_encode(loaded, msgs))


class TestDegenerateTrees:
    def test_single_full_rate_leaf_polar(self):
        spec = polar_spec(2, 2)
        tree = build_polar_tree(spec)
        model = build_ko_model(tree, {"family": "polar", "n": 2, "k": 2},
                               "tiny", "all_but_root", seed=0)
        assert not model.enc  # no internal nodes to neuralize
        msgs = np.array([[0, 1], [1, 1]], dtype=np.uint8)
        x = ko_encode(model, msgs)
        _, res = ko_decode(model, x)
        assert np.array_equal(res.message, msgs)

    def test_single_repetition_leaf_rm(self):
        model = make_model(3, 0)
        assert not model.enc
        y = ko_encode(model, np.array([[1]], dtype=np.uint8))
        _, res = ko_decode(model, y)
        assert res.message.tolist() == [[1]]


class TestBindingIsolation:
    def test_const_binding_blocks_gradients(self):
        model = make_model(3, 1, seed=1)
        msgs = np.zeros((4, 4), dtype=np.uint8)
        binding = bind(model, train_encoder=False, train_decoder=True)
        x = ko_encode_graph(model, msgs, binding)
        y = ad.add(x, ad.const(np.random.default_rng(0).standard_normal((4, 8))))
        llrs, _ = ko_decode_graph(model, y, binding)
        ad.backward(ad.bce_with_logits(llrs, msgs))
        assert all(binding[id(p)].grad is None for p in model.encoder_params())
        assert any(binding[id(p)].grad is not None and binding[id(p)].grad.any()
                   for p in model.decoder_params())
