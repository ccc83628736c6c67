import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest

from plotkinlab import autodiff as ad
from plotkinlab.bits import bpsk
from plotkinlab.channel import awgn, bursty, rayleigh_fast, transmit
from plotkinlab.codes import build_polar_tree, build_rm_tree, polar_spec, tree_encode
from plotkinlab.decoding import dumer_decode
from plotkinlab.ko import (
    bind,
    build_ko_model,
    ko_decode,
    ko_decode_graph,
    ko_encode,
    ko_encode_graph,
    save_checkpoint,
)
from plotkinlab.training import (
    TrainConfig,
    TrainingDiverged,
    _transmit_node,
    bce_loss,
    sample_messages,
    train,
)


def make_model(m, r, seed=0, init="normal"):
    tree = build_rm_tree(m, r)
    return build_ko_model(tree, {"family": "rm", "m": m, "r": r}, "tiny",
                          seed=seed, init=init)


def train_encoder_only(model, cfg, channel_kind="awgn"):
    return train(model, dataclasses.replace(cfg, mode="encoder_only_softmap"), channel_kind)


def snapshot(model):
    return [p.copy() for p in model.encoder_params() + model.decoder_params()]


def params_equal(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))


class TestSampleMessages:
    def test_shape_and_alphabet(self):
        batch = sample_messages(100, 7, np.random.default_rng(0))
        assert batch.shape == (100, 7)
        assert set(np.unique(batch)) <= {0, 1}

    def test_per_bit_mean(self):
        batch = sample_messages(10**5, 8, np.random.default_rng(1))
        mean = batch.mean()
        assert 0.497 <= mean <= 0.503

    def test_seed_determinism(self):
        a = sample_messages(50, 4, np.random.default_rng(7))
        b = sample_messages(50, 4, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_single_bit(self):
        assert sample_messages(1, 1, np.random.default_rng(2)).shape == (1, 1)


class TestBceLoss:
    def test_zero_llr_costs_log_two(self):
        assert bce_loss(np.zeros((4, 3)), np.zeros((4, 3), dtype=np.uint8)) == pytest.approx(np.log(2))

    def test_confident_correct_costs_nothing(self):
        assert bce_loss(np.full((1, 2), 60.0), np.zeros((1, 2), dtype=np.uint8)) == pytest.approx(0.0, abs=1e-12)

    def test_mixed_example(self):
        got = bce_loss(np.array([[2.0, -2.0]]), np.array([[0, 1]], dtype=np.uint8))
        assert got == pytest.approx(0.126928, abs=1e-6)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        llrs = rng.standard_normal((50, 6)) * 5
        msgs = rng.integers(0, 2, (50, 6), dtype=np.uint8)
        assert bce_loss(llrs, msgs) >= 0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            bce_loss(np.zeros((2, 2)), np.zeros((2, 3), dtype=np.uint8))


SMOKE = TrainConfig(epochs=2, dec_steps=3, enc_steps=2, snr_dec=0.0, snr_enc=0.0,
                    lr_dec=1e-3, lr_enc=1e-3, batch_size=64, seed=5)


class TestTrain:
    def test_zero_epochs_is_identity(self):
        model = make_model(3, 1, seed=1)
        before = snapshot(model)
        cfg = TrainConfig(epochs=0, dec_steps=5, enc_steps=5, batch_size=8, seed=0)
        train(model, cfg)
        assert params_equal(before, snapshot(model))

    def test_phase_isolation(self):
        model = make_model(3, 1, seed=2)
        enc_before = [p.copy() for p in model.encoder_params()]
        cfg = TrainConfig(epochs=1, dec_steps=4, enc_steps=0, snr_dec=0.0,
                          lr_dec=1e-3, lr_enc=1e-3, batch_size=32, seed=3)
        train(model, cfg)
        assert params_equal(enc_before, model.encoder_params())
        dec_before = [p.copy() for p in model.decoder_params()]
        cfg = TrainConfig(epochs=1, dec_steps=0, enc_steps=4, snr_enc=0.0,
                          lr_dec=1e-3, lr_enc=1e-3, batch_size=32, seed=3)
        train(model, cfg)
        assert params_equal(dec_before, model.decoder_params())

    def test_bit_reproducible(self, tmp_path):
        runs = []
        for _ in range(2):
            model = make_model(3, 1, seed=4)
            train(model, SMOKE)
            path = tmp_path / f"run{len(runs)}.json"
            save_checkpoint(model, path)
            runs.append(path.read_bytes())
        assert runs[0] == runs[1]

    def test_loss_logged_per_step(self):
        model = make_model(3, 1, seed=6)
        _, log = train(model, SMOKE)
        assert len(log.records) == SMOKE.epochs * (SMOKE.dec_steps + SMOKE.enc_steps)
        assert all(np.isfinite(loss) for loss in log.losses())

    def test_zero_init_loss_equals_classical_pipeline(self):
        # residuals vanish, so the first-step loss must equal the BCE of
        # the classical soft-leaf decoder on the same messages and noise
        model = make_model(4, 2, seed=7, init="zeros")
        cfg = TrainConfig(epochs=1, dec_steps=1, enc_steps=0, snr_dec=0.0,
                          lr_dec=1e-9, lr_enc=1e-9, batch_size=128, seed=11)
        _, log = train(model, cfg)
        rng = np.random.default_rng([11, 0, 0, 0])
        msgs = sample_messages(128, model.k, rng)
        noise = 1.0 * rng.standard_normal((128, model.n))
        y = bpsk(tree_encode(model.tree, msgs)) + noise
        classical = dumer_decode(model.tree, y, "soft")
        assert log.losses()[0] == pytest.approx(bce_loss(classical.llrs, msgs), abs=1e-9)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_log_entry(self):
        model = make_model(3, 1, seed=8)
        nid = model.neural_ids()[0]
        model.dec_left[nid].weights[0][0, 0] = np.nan
        with pytest.raises(TrainingDiverged):
            train(model, SMOKE)


class TestEncoderOnly:
    def test_gradients_reach_every_encoder_block(self):
        model = make_model(3, 1, seed=9)
        assert len(model.enc) == 2
        cfg = TrainConfig(epochs=1, dec_steps=0, enc_steps=1, snr_enc=0.0,
                          lr_enc=1e-3, lr_dec=1e-3, batch_size=32, seed=12,
                          mode="encoder_only_softmap")
        before = [p.copy() for p in model.encoder_params()]
        _, log = train_encoder_only(model, cfg)
        assert log.records[0][4] > 0  # nonzero gradient norm on step one
        moved = [not np.array_equal(a, b)
                 for a, b in zip(before, model.encoder_params())]
        per_block = len(model.enc[model.neural_ids()[0]].parameters())
        assert any(moved[:per_block]) and any(moved[per_block:])

    def test_decoder_blocks_untouched(self):
        model = make_model(3, 1, seed=10)
        dec_before = [p.copy() for p in model.decoder_params()]
        cfg = TrainConfig(epochs=1, dec_steps=0, enc_steps=2, snr_enc=0.0,
                          lr_enc=1e-3, lr_dec=1e-3, batch_size=16, seed=13)
        train_encoder_only(model, cfg)
        assert params_equal(dec_before, model.decoder_params())

    def test_zero_init_matches_classical_map_loss(self):
        # with zero residuals the codebook is the BPSK image of the linear
        # code, so the first loss equals the classical max-log decoder BCE
        model = make_model(3, 1, seed=14, init="zeros")
        cfg = TrainConfig(epochs=1, dec_steps=0, enc_steps=1, snr_enc=0.0,
                          lr_enc=1e-9, lr_dec=1e-9, batch_size=64, seed=15)
        _, log = train_encoder_only(model, cfg)

        from plotkinlab.codes import all_messages

        rng = np.random.default_rng([15, 0, 2, 0])
        msgs = sample_messages(64, model.k, rng)
        noise = rng.standard_normal((64, model.n))
        cb_signs = bpsk(tree_encode(model.tree, all_messages(model.k)))
        idx = msgs @ (1 << np.arange(model.k - 1, -1, -1))
        y = cb_signs[idx] + noise
        scores = y @ cb_signs.T
        all_msgs = all_messages(model.k)
        llrs = np.empty((64, model.k))
        for i in range(model.k):
            llrs[:, i] = (scores[:, all_msgs[:, i] == 0].max(axis=1)
                          - scores[:, all_msgs[:, i] == 1].max(axis=1))
        assert log.losses()[0] == pytest.approx(bce_loss(llrs, msgs), abs=1e-9)

    def test_ko_6_1_accepted(self):
        model = make_model(6, 1, seed=16)
        assert model.k == 7
        cfg = TrainConfig(epochs=1, dec_steps=0, enc_steps=1, snr_enc=0.0,
                          lr_enc=1e-4, lr_dec=1e-4, batch_size=8, seed=17)
        train_encoder_only(model, cfg)

    @pytest.mark.parametrize("channel", ["rayleigh", "bursty"])
    def test_channel_is_honoured(self, channel):
        cfg = TrainConfig(epochs=1, dec_steps=0, enc_steps=2, snr_enc=0.0,
                          lr_enc=1e-3, lr_dec=1e-3, batch_size=16, seed=19)
        awgn_model, awgn_log = train_encoder_only(make_model(3, 1, seed=20), cfg)
        model, log = train_encoder_only(make_model(3, 1, seed=20), cfg, channel)
        assert log.losses() != awgn_log.losses()
        assert not params_equal(awgn_model.encoder_params(), model.encoder_params())

    def test_large_k_rejected(self):
        model = make_model(5, 3, seed=18)
        assert model.k > 16
        with pytest.raises(ValueError):
            train_encoder_only(model, SMOKE)


class TestTrainConfig:
    def test_paper_defaults(self):
        cfg = TrainConfig()
        assert (cfg.epochs, cfg.dec_steps, cfg.enc_steps) == (2000, 500, 50)
        assert (cfg.snr_dec, cfg.snr_enc) == (-5.0, -3.0)
        assert (cfg.lr_dec, cfg.lr_enc) == (1e-4, 1e-5)
        assert cfg.batch_size == 50000
        assert cfg.clip_norm is None

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(lr_dec=0.0)
        with pytest.raises(ValueError):
            TrainConfig(mode="nonsense")
        with pytest.raises(ValueError):
            TrainConfig(clip_norm=0.0)

    @pytest.mark.parametrize("field", ["snr_dec", "snr_enc", "lr_dec", "lr_enc", "clip_norm"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            TrainConfig(**{field: value})


class TestGradientClipping:
    def test_clip_bounds_global_norm(self):
        from plotkinlab.training import _clip_grads

        grads = [np.full(4, 3.0), np.full(9, 4.0)]  # norm = sqrt(36+144)
        clipped = _clip_grads(grads, 1.0)
        total = np.sqrt(sum(np.sum(g * g) for g in clipped))
        assert total == pytest.approx(1.0, rel=1e-12)

    def test_no_clip_below_threshold(self):
        from plotkinlab.training import _clip_grads

        grads = [np.array([0.1, 0.2])]
        assert _clip_grads(grads, 10.0) is grads

    def test_clipped_training_matches_unclipped_when_loose(self):
        # a very loose bound never activates, so results are bit-identical
        kw = dict(epochs=1, dec_steps=3, enc_steps=1, snr_dec=0.0, snr_enc=0.0,
                  lr_dec=1e-3, lr_enc=1e-3, batch_size=32, seed=21)
        m1 = make_model(3, 1, seed=20)
        train(m1, TrainConfig(**kw))
        m2 = make_model(3, 1, seed=20)
        train(m2, TrainConfig(clip_norm=1e9, **kw))
        assert params_equal(snapshot(m1), snapshot(m2))

    def test_tight_clip_changes_updates_but_stays_finite(self):
        kw = dict(epochs=1, dec_steps=3, enc_steps=1, snr_dec=0.0, snr_enc=0.0,
                  lr_dec=1e-3, lr_enc=1e-3, batch_size=32, seed=22)
        m1 = make_model(3, 1, seed=23)
        _, log = train(m1, TrainConfig(clip_norm=1e-3, **kw))
        assert all(np.isfinite(l) for l in log.losses())
        m2 = make_model(3, 1, seed=23)
        train(m2, TrainConfig(**kw))
        assert not params_equal(snapshot(m1), snapshot(m2))


class TestChannelPass:
    @pytest.mark.parametrize("ch", [awgn(0.7), rayleigh_fast(0.7), bursty(0.7)],
                             ids=["awgn", "rayleigh", "bursty"])
    def test_equals_transmit_bit_for_bit(self, ch):
        x = np.random.default_rng(1).standard_normal((64, 16))
        taped = _transmit_node(ad.const(x), ch, np.random.default_rng([5, 0, 1, 2]))
        plain = transmit(x, ch, np.random.default_rng([5, 0, 1, 2]))
        assert np.array_equal(taped.value, plain)

    def test_gradient_is_the_fading_gain(self):
        x = ad.var(np.ones((8, 4)))
        y = _transmit_node(x, rayleigh_fast(0.5), np.random.default_rng(3))
        ad.backward(ad.sum_all(y))
        rng = np.random.default_rng(3)
        rng.standard_normal((8, 4))
        gain = rng.rayleigh(scale=1.0 / np.sqrt(2.0), size=(8, 4))
        assert np.array_equal(x.grad, gain)


class TestTapeLifetime:
    def test_refcounting_alone_frees_every_tape(self):
        """No tree construction, step or inference call leaves a reference
        cycle behind, so the tape is freed when the step ends, not at a
        later cyclic collection."""
        alternating = TrainConfig(epochs=1, dec_steps=2, enc_steps=2, batch_size=20, seed=3)
        softmap = TrainConfig(epochs=1, dec_steps=0, enc_steps=2, batch_size=20, seed=3,
                              mode="encoder_only_softmap")
        train(make_model(3, 1, seed=2), alternating)
        gc.collect()
        gc.disable()
        try:
            model = make_model(3, 1, seed=2)
            train(model, alternating)
            train(model, softmap)
            ko_decode(model, ko_encode(model, np.ones((4, 4), dtype=np.uint8)))
            polar = build_ko_model(build_polar_tree(polar_spec(16, 5)),
                                   {"family": "polar", "n": 16, "k": 5}, "tiny",
                                   "all_but_root", seed=2)
            msgs = np.ones((4, 5), dtype=np.uint8)
            binding = bind(polar, train_encoder=True, train_decoder=True)
            llrs, _ = ko_decode_graph(polar, ko_encode_graph(polar, msgs, binding), binding)
            ad.backward(ad.bce_with_logits(llrs, msgs))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_second_step_does_not_carry_the_first_steps_tape(self):
        """A 2-step run peaks like a 1-step run: each step's tape is freed
        before the next step's forward pass, and backward frees each
        intermediate gradient once consumed."""

        def peak(steps):
            model = make_model(8, 2)
            tracemalloc.start()
            try:
                train(model, TrainConfig(epochs=1, dec_steps=steps, enc_steps=0,
                                         batch_size=100, seed=1))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(2) <= 1.2 * peak(1)

    @pytest.mark.parametrize("phase", ["dec", "enc"])
    def test_standard_step_at_batch_50_peaks_below_70_mb(self, phase):
        """A KO(8,2)-standard step's tape holds two arrays per hidden dense
        layer (a shared activation buffer and the SELU slope); it peaked
        near 105 MB (decoder) and 115 MB (encoder) with four."""
        model = build_ko_model(build_rm_tree(8, 2), {"family": "rm", "m": 8, "r": 2},
                               "standard", seed=0)
        steps = {"dec_steps": int(phase == "dec"), "enc_steps": int(phase == "enc")}
        tracemalloc.start()
        try:
            train(model, TrainConfig(epochs=1, batch_size=50, seed=1, **steps))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 70 * 2**20
