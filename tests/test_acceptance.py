"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
execute. Every tolerance is pinned here; nothing is deferred to later
calibration.
"""
import time

import numpy as np
import pytest

from plotkinlab import autodiff as ad
from plotkinlab.bits import bpsk
from plotkinlab.channel import awgn, bursty, channel_llr, transmit
from plotkinlab.codes import (
    all_messages,
    build_polar_tree,
    build_rm_tree,
    enumerate_codebook,
    polar_spec,
    rm_generator_rows,
    tree_encode,
)
from plotkinlab.decoding import dumer_decode, fht_map_decode_rm1, map_decode
from plotkinlab.evaluation import (
    bler_decomposition,
    count_decode_ops,
    gaussian_codebook,
    ko_system,
    pairwise_distance_histogram,
    rm_system,
    simulate_error_rates,
)
from plotkinlab.ko import (
    PROFILES,
    binding_from_nodes,
    build_ko_model,
    ko_decode,
    ko_decode_graph,
    ko_encode,
    ko_encode_graph,
    save_checkpoint,
)
from plotkinlab.evaluation import REFERENCE_BER_KO82
from plotkinlab.training import TrainConfig, train


def ko_ber(model, snr_db: float, blocks: int, seed: int) -> float:
    """Monte-Carlo BER of a KO model on AWGN at one SNR, over exactly
    `blocks` blocks."""
    return simulate_error_rates(ko_system(model), "awgn", [snr_db], blocks,
                                min_block_errors=0, max_blocks=blocks,
                                seed=seed)[0].ber


def check(num: int, name: str, condition: bool, detail: str = ""):
    status = "PASS" if condition else "FAIL"
    print(f"ACCEPTANCE {num:02d} [{name}]: {status} {detail}".rstrip())
    assert condition, f"criterion {num} ({name}) failed {detail}"


def row_span(rows: np.ndarray) -> set:
    span = set()
    for bits in all_messages(rows.shape[0]):
        span.add(((bits @ rows) % 2).astype(np.uint8).tobytes())
    return span


def test_criterion_01_codebook_equivalence():
    start = time.monotonic()
    for m in range(5):
        for r in range(m + 1):
            tree = build_rm_tree(m, r)
            tree_set = {cw.tobytes() for cw in enumerate_codebook(tree).codewords}
            assert tree_set == row_span(rm_generator_rows(m, r)), (m, r)
    elapsed = time.monotonic() - start
    check(1, "codebook equivalence", elapsed < 10.0, f"({elapsed:.2f}s)")


def test_criterion_02_minimum_distance():
    for m in range(5):
        for r in range(m + 1):
            cb = enumerate_codebook(build_rm_tree(m, r))
            nonzero = [int(cw.sum()) for cw in cb.codewords if cw.any()]
            assert min(nonzero) == 2 ** (m - r), (m, r)
    check(2, "minimum distance", True)


def test_criterion_03_fht_map_oracle():
    start = time.monotonic()
    for m in range(2, 7):
        tree = build_rm_tree(m, 1)
        cb = enumerate_codebook(tree)
        llrs = np.random.default_rng(100 + m).standard_normal((1000, 2**m))
        cw_fht, msg_fht = fht_map_decode_rm1(llrs, m)
        msg_map, cw_map = map_decode(cb, llrs)
        assert np.array_equal(msg_fht, msg_map), m
        assert np.array_equal(cw_fht, cw_map), m
    elapsed = time.monotonic() - start
    check(3, "FHT-MAP oracle equivalence", elapsed < 30.0, f"({elapsed:.2f}s)")


def test_criterion_04_soft_map_sign_oracle():
    from plotkinlab.codes import FIRST_ORDER, FULL_RATE, Leaf, encode_leaf
    from plotkinlab.decoding import soft_map_llrs

    for leaf in (Leaf(FIRST_ORDER, 3, 0, 4), Leaf(FULL_RATE, 2, 0, 4)):
        msgs = all_messages(leaf.k)
        signs = bpsk(encode_leaf(leaf, msgs))
        llrs = np.random.default_rng(200 + leaf.m).standard_normal((1000, leaf.length))
        got = soft_map_llrs(leaf, llrs)
        scores = llrs @ signs.T
        want = np.empty_like(got)
        for i in range(leaf.k):
            want[:, i] = (scores[:, msgs[:, i] == 0].max(axis=1)
                          - scores[:, msgs[:, i] == 1].max(axis=1))
        assert np.array_equal(got < 0, want < 0), leaf.label()
    check(4, "soft-MAP sign oracle", True)


def test_criterion_05_noiseless_round_trips():
    rng = np.random.default_rng(5)
    for m, r in [(3, 1), (4, 1), (4, 2), (5, 2)]:
        tree = build_rm_tree(m, r)
        msgs = all_messages(tree.k)
        y = bpsk(tree_encode(tree, msgs)) + 0.01 * rng.standard_normal((2**tree.k, tree.n))
        res = dumer_decode(tree, channel_llr(y, 0.01))
        assert np.array_equal(res.message, msgs), (m, r)
    ptree = build_polar_tree(polar_spec(64, 7))
    msgs = all_messages(7)
    y = bpsk(tree_encode(ptree, msgs)) + 0.01 * rng.standard_normal((128, 64))
    res = dumer_decode(ptree, channel_llr(y, 0.01))
    assert np.array_equal(res.message, msgs)
    check(5, "noiseless round trips", True)


def test_criterion_06_polar_construction():
    active = polar_spec(64, 7, 0.5).active_set
    check(6, "polar active set", active == (48, 56, 60, 61, 62, 63, 64),
          f"A={list(active)}")


def test_criterion_07_gradient_correctness():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        a, b = rng.standard_normal((2, 3)), rng.standard_normal((2, 3))
        w, x = rng.standard_normal((3, 2)), rng.standard_normal((2, 3))
        x = np.where(np.abs(x) < 1e-3, 0.5, x)  # avoid the selu kink

        def scalar(out):
            proj = ad.const(np.linspace(0.5, 1.5, out.value.size).reshape(out.value.shape))
            return ad.sum_all(ad.mul(out, proj))

        cases = [
            ([a, b], lambda ns: scalar(ad.add(*ns))),
            ([a, b], lambda ns: scalar(ad.mul(*ns))),
            ([a, b], lambda ns: scalar(ad.lse_pair(*ns))),
            ([a, w], lambda ns: scalar(ad.matmul(*ns))),
            ([x], lambda ns: scalar(ad.selu(ns[0]))),
            ([x], lambda ns: scalar(ad.sigmoid(ns[0]))),
            ([x], lambda ns: scalar(ad.row_normalize(ns[0], 3.0))),
            ([x], lambda ns: ad.bce_with_logits(ns[0], (np.arange(6).reshape(2, 3) % 2).astype(float))),
        ]
        for params, f in cases:
            report = ad.finite_diff_check(f, params, h=1e-6)
            worst = max(worst, report["max_rel_err"])
    assert worst <= 1e-4

    tree = build_rm_tree(3, 1)
    model = build_ko_model(tree, {"family": "rm", "m": 3, "r": 1}, "tiny", seed=77)
    msgs = np.random.default_rng(8).integers(0, 2, (8, 4), dtype=np.uint8)
    noise = np.random.default_rng(9).standard_normal((8, 8))
    params = model.encoder_params() + model.decoder_params()

    def loss_fn(nodes):
        binding = binding_from_nodes(model, nodes)
        x = ko_encode_graph(model, msgs, binding)
        y = ad.add(x, ad.const(noise))
        llrs, _ = ko_decode_graph(model, y, binding)
        return ad.bce_with_logits(llrs, msgs)

    report = ad.finite_diff_check(loss_fn, params, h=1e-6)
    worst = max(worst, report["max_rel_err"])
    check(7, "gradient correctness", worst <= 1e-4, f"(max rel err {worst:.2e})")


def test_criterion_08_zero_residual_reduction():
    tree = build_rm_tree(8, 2)
    model = build_ko_model(tree, {"family": "rm", "m": 8, "r": 2}, "standard",
                           init="zeros")
    rng = np.random.default_rng(88)
    msgs = rng.integers(0, 2, (1000, 37), dtype=np.uint8)
    x_rm = bpsk(tree_encode(tree, msgs))
    x_ko = ko_encode(model, msgs)
    enc_err = float(np.max(np.abs(x_ko - x_rm)))
    assert enc_err <= 1e-12
    y = x_rm + 1.0 * rng.standard_normal((1000, 256))
    _, result = ko_decode(model, y)
    classical = dumer_decode(tree, y, "soft")
    assert np.array_equal(result.message, classical.message)
    check(8, "zero-residual reduction", True, f"(encoder max err {enc_err:.1e})")


@pytest.fixture(scope="module")
def training_smoke():
    cfg = TrainConfig(epochs=20, dec_steps=50, enc_steps=10, snr_dec=0.0,
                      snr_enc=0.0, lr_dec=1e-4, lr_enc=1e-5, batch_size=500,
                      seed=7)

    def fresh_model():
        tree = build_rm_tree(3, 1)
        return build_ko_model(tree, {"family": "rm", "m": 3, "r": 1}, "tiny",
                              seed=7)

    model = fresh_model()
    ber_init = ko_ber(model, 0.0, 100000, seed=4242)
    start = time.monotonic()
    model, _ = train(model, cfg)
    wall = time.monotonic() - start
    ber_trained = ko_ber(model, 0.0, 100000, seed=4242)
    rerun, _ = train(fresh_model(), cfg)
    return model, rerun, wall, ber_init, ber_trained


def test_criterion_09_training_smoke(training_smoke, tmp_path):
    model, rerun, wall, ber_init, ber_trained = training_smoke
    assert wall < 300.0, f"training took {wall:.0f}s"
    assert ber_trained <= ber_init, (ber_trained, ber_init)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_checkpoint(model, p1)
    save_checkpoint(rerun, p2)
    assert p1.read_bytes() == p2.read_bytes(), "training not bit-reproducible"
    check(9, "training smoke", True,
          f"({wall:.0f}s, BER {ber_init:.4f} -> {ber_trained:.4f}, reproducible)")


def test_criterion_10_bler_decomposition_identity():
    system = rm_system(8, 2)
    blocks = 10000
    contribs, bler = bler_decomposition(system, "awgn", -5.0, blocks, seed=10)
    total = sum(c.first_error_blocks for c in contribs)
    assert total / blocks == bler  # same integers, bitwise-identical ratio
    assert contribs[0].label == "RM(7,1)"
    check(10, "BLER decomposition identity", True,
          f"(BLER {bler:.4f} = sum of {len(contribs)} leaf contributions)")


def test_criterion_11_distance_oracle():
    system = rm_system(3, 1)
    hist = pairwise_distance_histogram(system.encode, 4, 8, keep_distances=True)
    d = np.sort(hist.distances)
    assert hist.pairs == 120
    assert np.allclose(d[:112], 4.0, atol=1e-12)
    assert np.allclose(d[112:], 2 * np.sqrt(8), atol=1e-12)

    cb = gaussian_codebook(64, 7, np.random.default_rng(11))

    def encode(msgs):
        return cb[msgs @ (1 << np.arange(6, -1, -1))]

    ghist = pairwise_distance_histogram(encode, 7, 64)
    target = np.sqrt(2 * 64)
    assert abs(ghist.mean - target) <= 0.05 * target
    check(11, "pairwise distance oracle", True,
          f"(gaussian mean {ghist.mean:.3f} vs {target:.3f})")


def test_criterion_12_channel_statistics():
    rng = np.random.default_rng(12)
    a = rng.rayleigh(scale=1.0 / np.sqrt(2.0), size=10**6)
    ray = float(np.mean(a**2))
    assert abs(ray - 1.0) <= 0.01

    y = transmit(np.zeros(10**6), bursty(1e-9, 0.1, burst_sigma_mult=1e9),
                 np.random.default_rng(13))
    frac = float(np.mean(np.abs(y) > 1e-6))
    assert 0.098 <= frac <= 0.102

    sigma = 0.8
    noise = transmit(np.zeros(10**6), awgn(sigma), np.random.default_rng(14))
    var = float(np.var(noise))
    assert abs(var - sigma**2) <= 0.01 * sigma**2
    check(12, "channel statistics", True,
          f"(E[a^2]={ray:.4f}, burst={frac:.4f}, var={var:.4f})")


def test_criterion_13_baseline_sanity_curve():
    start = time.monotonic()
    system = rm_system(3, 1)
    grid = list(range(-10, 5, 2))
    results = simulate_error_rates(system, "awgn", grid, min_blocks=10000,
                                   min_block_errors=10**9, max_blocks=10000,
                                   seed=13)
    elapsed = time.monotonic() - start
    for prev, nxt in zip(results, results[1:]):
        slack = 2.0 * float(np.hypot(prev.ber_se, nxt.ber_se))
        assert nxt.ber <= prev.ber + slack, (prev.snr_db, nxt.snr_db)
    check(13, "baseline sanity curve", elapsed < 60.0,
          f"({elapsed:.1f}s, BER {results[0].ber:.3f} -> {results[-1].ber:.2e})")


def _block_ops(widths: list[int]) -> int:
    """Scalar operations of one dense block applied at one coordinate.

    README "KO decoder operation counts": a fan_in -> fan_out layer costs
    fan_in*fan_out multiplies plus fan_in*fan_out adds (dot products and
    bias), and each hidden SELU unit costs 5 (sign test, exp, subtract,
    two scale multiplies).
    """
    layers = sum(2 * fan_in * fan_out for fan_in, fan_out in zip(widths, widths[1:]))
    return layers + 5 * sum(widths[1:-1])


def test_criterion_14_op_count_band():
    # The KO decoder is the soft Dumer recursion plus coordinate-wise
    # networks, so under the scalar counting convention its cost is exactly
    #   soft-Dumer ops + sum over neuralized internal nodes of
    #   (length / 2) * (ops(f_left) + ops(f_right) + 2),
    # where f_left is the 2-in block, f_right the 4-in block and the 2 is
    # the two residual adds. For RM(8,2) the halves sum to 252 coordinates;
    # standard blocks cost 4,768 + 4,896 and tiny blocks 44 + 60.
    tree = build_rm_tree(8, 2)
    ops_hard = count_decode_ops(rm_system(8, 2), snr_db=-5.0, seed=1).total
    ops_soft = count_decode_ops(rm_system(8, 2, "dumer-soft"), snr_db=-5.0, seed=1).total
    nodes = {nd.node_id: nd for nd in tree.internal_nodes()}
    measured, derived, sums = {}, {}, []
    for profile in ("standard", "tiny"):
        model = build_ko_model(tree, {"family": "rm", "m": 8, "r": 2}, profile,
                               seed=14)
        hidden = PROFILES[profile]
        per_coord = _block_ops([2] + hidden + [1]) + _block_ops([4] + hidden + [1]) + 2
        coords = sum(nodes[nid].length // 2 for nid in model.dec_left)
        measured[profile] = count_decode_ops(ko_system(model), snr_db=-5.0, seed=1).total
        derived[profile] = ops_soft + coords * per_coord
        relation = "==" if measured[profile] == derived[profile] else "!="
        sums.append(f"{profile} {measured[profile]} {relation} "
                    f"{ops_soft} + {coords} x {per_coord}")
    ratio = measured["standard"] / ops_hard
    exact = measured == derived and ratio == derived["standard"] / ops_hard
    check(14, "op-count decomposition", exact,
          f"(ratio {ratio:.1f}, RM {ops_hard}, KO {measured['standard']}; "
          f"{', '.join(sums)})")


@pytest.mark.skipif("PLOTKINLAB_KO82_CHECKPOINT" not in __import__("os").environ,
                    reason="full-scale KO(8,2) reference check needs an "
                           "externally trained checkpoint")
def test_reference_full_scale_ko82_ber():
    """Check a full-scale trained KO(8,2) checkpoint against the shipped
    reference error rates (25% relative at the two most practical points)."""
    import os

    from plotkinlab.ko import load_checkpoint

    model = load_checkpoint(os.environ["PLOTKINLAB_KO82_CHECKPOINT"])
    for snr_db in (-5, -3):
        want, _ = REFERENCE_BER_KO82[snr_db]
        got = ko_ber(model, float(snr_db), blocks=2 * 10**6, seed=4321)
        assert abs(got - want) <= 0.25 * want, (snr_db, got, want)
