"""Alternating encoder/decoder training for KO models.

Each epoch runs a block of decoder-only Adam steps at the decoder training
SNR, then a block of encoder-only steps at the encoder training SNR. Every
step draws a fresh message batch and fresh channel noise (infinite-data
regime) from generators derived deterministically from (seed, epoch, phase,
step), so a (seed, config, initial model) triple fully determines the final
parameters.

The encoder-only mode replaces the neural decoder with the differentiable
max-log decoder run over the full codebook, which is exact but limits the
code dimension.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import AdamState, adam_step, backward, grad_or_zero
from .channel import Channel, draw_noise, make_channel, snr_to_sigma
from .codes import all_messages, message_index
from .decoding import max_log_llrs
from .ko import KoModel, bind, ko_decode_graph, ko_encode_graph

ALTERNATING = "alternating"
ENCODER_ONLY_SOFTMAP = "encoder_only_softmap"
TRAIN_MODES = (ALTERNATING, ENCODER_ONLY_SOFTMAP)

MAX_FULL_CODEBOOK_K = 16


class TrainingDiverged(RuntimeError):
    """The loss became non-finite; the aborted step is in the log."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 2000
    dec_steps: int = 500
    enc_steps: int = 50
    snr_dec: float = -5.0
    snr_enc: float = -3.0
    lr_dec: float = 1e-4
    lr_enc: float = 1e-5
    batch_size: int = 50000
    seed: int = 0
    mode: str = ALTERNATING
    clip_norm: float | None = None  # optional global-norm gradient clip

    def __post_init__(self):
        if not np.isfinite([self.snr_dec, self.snr_enc, self.lr_dec, self.lr_enc,
                            self.clip_norm or 0.0]).all():
            raise ValueError("SNRs, learning rates and clip_norm must be finite")
        if min(self.epochs, self.dec_steps, self.enc_steps) < 0:
            raise ValueError("step counts must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.lr_dec <= 0 or self.lr_enc <= 0:
            raise ValueError("learning rates must be positive")
        if self.mode not in TRAIN_MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.clip_norm is not None and self.clip_norm <= 0:
            raise ValueError("clip_norm must be positive")


@dataclass
class TrainLog:
    records: list[tuple[str, int, int, float, float]] = field(default_factory=list)
    wall_seconds: float = 0.0

    def add(self, phase: str, epoch: int, step: int, loss: float, gnorm: float):
        self.records.append((phase, epoch, step, loss, gnorm))

    def losses(self, phase: str | None = None) -> list[float]:
        return [r[3] for r in self.records if phase is None or r[0] == phase]

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("phase,epoch,step,loss,grad_norm\n")
            for phase, epoch, step, loss, gnorm in self.records:
                fh.write(f"{phase},{epoch},{step},{loss!r},{gnorm!r}\n")


def sample_messages(batch_size: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """A batch of i.i.d. uniform k-bit message words."""
    return rng.integers(0, 2, size=(batch_size, k), dtype=np.uint8)


def bce_loss(llrs, messages) -> float:
    """Mean binary cross entropy over batch and bits.

    sigmoid(llr) is the probability of the bit being 0, so a zero LLR costs
    log 2 per bit and a confidently correct bit costs nothing. Evaluated
    via softplus for stability.
    """
    llrs = np.asarray(llrs, dtype=np.float64)
    m = np.asarray(messages, dtype=np.float64)
    if llrs.shape != m.shape:
        raise ValueError("LLR and message shapes disagree")
    return float(np.mean((1.0 - m) * np.logaddexp(0.0, -llrs)
                         + m * np.logaddexp(0.0, llrs)))


def _step_rng(seed: int, epoch: int, phase: int, step: int) -> np.random.Generator:
    return np.random.default_rng([seed, epoch, phase, step])


def _transmit_node(x: ad.Node, ch: Channel, rng: np.random.Generator) -> ad.Node:
    """channel.transmit as a tape op; fading gains and noise are constants,
    so gradients flow through the transmitted symbols only."""
    gain, offset = draw_noise(ch, x.shape, rng)
    return ad.add(x if gain is None else ad.mul(ad.const(gain), x), ad.const(offset))


def _run_step(model: KoModel, msgs: np.ndarray, ch: Channel,
              rng: np.random.Generator, binding: dict[int, ad.Node]) -> ad.Node:
    x = ko_encode_graph(model, msgs, binding)
    y = _transmit_node(x, ch, rng)
    llrs, _ = ko_decode_graph(model, y, binding)
    return ad.bce_with_logits(llrs, msgs)


def _softmap_step(model: KoModel, msgs: np.ndarray, ch: Channel,
                  rng: np.random.Generator, binding: dict[int, ad.Node]) -> ad.Node:
    """_run_step with the exact max-log decoder over the full codebook in
    place of the neural decoder."""
    codebook = ko_encode_graph(model, all_messages(model.k), binding)
    x = _gather_rows(codebook, message_index(msgs))
    y = _transmit_node(x, ch, rng)
    scores = ad.matmul(y, _transpose(codebook))
    return ad.bce_with_logits(softmap_codebook_llrs(scores, model.k), msgs)


def _grad_norm(grads: list[np.ndarray]) -> float:
    return float(np.sqrt(sum(float(np.sum(g * g)) for g in grads)))


def _clip_grads(grads: list[np.ndarray], clip_norm: float | None,
                norm: float | None = None) -> list[np.ndarray]:
    """grads scaled down to global norm clip_norm if their norm (given as
    norm, or computed here) exceeds it."""
    if clip_norm is None:
        return grads
    total = _grad_norm(grads) if norm is None else norm
    if total <= clip_norm:
        return grads
    scale = clip_norm / total
    return [g * scale for g in grads]


def train(model: KoModel, cfg: TrainConfig,
          channel_kind: str = "awgn") -> tuple[KoModel, TrainLog]:
    """Training over a simulated channel; mutates and returns the model.

    Per epoch in alternating mode: cfg.dec_steps Adam updates of only the
    decoder blocks at snr_dec, then cfg.enc_steps updates of only the
    encoder blocks at snr_enc. The inactive parameter group is bound as
    constants, so it is bit-identical before and after each phase. In
    encoder_only_softmap mode each epoch is the encoder phase alone, decoded
    by the exact max-log decoder over the full codebook (k <= 16).
    """
    if cfg.mode == ENCODER_ONLY_SOFTMAP and model.k > MAX_FULL_CODEBOOK_K:
        raise ValueError(f"k={model.k} too large for full-codebook decoding "
                         f"(limit {MAX_FULL_CODEBOOK_K})")
    log = TrainLog()
    start = time.monotonic()
    adam_dec = AdamState.for_params(model.decoder_params(), cfg.lr_dec)
    adam_enc = AdamState.for_params(model.encoder_params(), cfg.lr_enc)
    # (phase, RNG stream, steps, SNR, Adam state, trains the encoder, step loss)
    if cfg.mode == ENCODER_ONLY_SOFTMAP:
        phases = [("enc", 2, cfg.enc_steps, cfg.snr_enc, adam_enc, True, _softmap_step)]
    else:
        phases = [("dec", 0, cfg.dec_steps, cfg.snr_dec, adam_dec, False, _run_step),
                  ("enc", 1, cfg.enc_steps, cfg.snr_enc, adam_enc, True, _run_step)]

    for epoch in range(cfg.epochs):
        for phase, stream, steps, snr, adam, train_enc, step_loss in phases:
            ch = make_channel(channel_kind, snr_to_sigma(snr))
            for step in range(steps):
                rng = _step_rng(cfg.seed, epoch, stream, step)
                msgs = sample_messages(cfg.batch_size, model.k, rng)
                binding = bind(model, train_encoder=train_enc,
                               train_decoder=not train_enc)
                loss = step_loss(model, msgs, ch, rng, binding)
                if not np.isfinite(loss.value):
                    log.add(phase, epoch, step, float(loss.value), float("nan"))
                    raise TrainingDiverged(
                        f"non-finite loss at epoch {epoch}, {phase} step {step}")
                backward(loss)
                params = (model.encoder_params() if train_enc
                          else model.decoder_params())
                grads = [grad_or_zero(binding[id(p)]) for p in params]
                gnorm = _grad_norm(grads)
                adam_step(adam, params, _clip_grads(grads, cfg.clip_norm, gnorm))
                log.add(phase, epoch, step, float(loss.value), gnorm)
                del loss, grads  # free this step's tape before the next forward pass
    log.wall_seconds = time.monotonic() - start
    return model, log


def softmap_codebook_llrs(scores: ad.Node, k: int) -> ad.Node:
    """Differentiable max-log bit LLRs from a (batch, 2^k) correlation node.

    Bit i takes the difference of subset maxima over messages with bit i
    equal to 0 and 1, with gradients routed through the selected scores.
    Valid when the codebook rows share the same energy.
    """
    s = scores.value
    batch = s.shape[0]
    llr_vals, arg0, arg1 = max_log_llrs(s, (all_messages(k) == 0).T)

    def vjp(g):
        ds = np.zeros_like(s)
        rows = np.arange(batch)
        for i in range(k):
            np.add.at(ds, (rows, arg0[:, i]), g[:, i])
            np.add.at(ds, (rows, arg1[:, i]), -g[:, i])
        return (ds,)

    return ad.custom_op(llr_vals, (scores,), vjp)


def _transpose(a: ad.Node) -> ad.Node:
    return ad.custom_op(a.value.T, (a,), lambda g: (g.T,))


def _gather_rows(a: ad.Node, idx: np.ndarray) -> ad.Node:
    def vjp(g):
        out = np.zeros_like(a.value)
        np.add.at(out, idx, g)
        return (out,)

    return ad.custom_op(a.value[idx], (a,), vjp)
