"""Properties over small random RM and Polar codes.

Both recursive decoders visit the non-frozen leaves in the order
PlotkinTree.message_leaves() lists them; the properties here pin what
relies on that: a zero-weight KO model is soft Dumer exactly, and
bler_decomposition charges each block error to the first wrong leaf. The
untaped KO encoder and decoder equal the taped graphs bit for bit, and
simulated counts do not depend on the thread count; both run with dense
block tiles of a few rows, so that every tile edge case occurs. A KO
checkpoint saved, loaded and saved again is the same file, with the same
parameters and decoder.
"""
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from plotkinlab import autodiff as ad
from plotkinlab import evaluation
from plotkinlab.bits import bpsk
from plotkinlab.channel import make_channel, snr_to_sigma
from plotkinlab.codes import FULL_RATE, build_polar_tree, build_rm_tree, polar_spec, tree_encode
from plotkinlab.decoding import dumer_decode
from plotkinlab.evaluation import (
    _chunk_blocks,
    bler_decomposition,
    ko_system,
    polar_system,
    rm_system,
    simulate_error_rates,
)
from plotkinlab.ko import (
    ALL_BUT_ROOT,
    ALL_INTERNAL,
    PROFILES,
    bind,
    build_ko_model,
    ko_decode,
    ko_decode_graph,
    ko_encode,
    ko_encode_graph,
    load_checkpoint,
    save_checkpoint,
)

BOUNDED = settings(max_examples=60, deadline=10000)


# Full-rate leaves decode over all 2^k codewords; up to 8 bits keeps each
# example within milliseconds.
MAX_FULL_RATE_BITS = 8


@st.composite
def small_codes(draw):
    """(code description, tree) for RM(m <= 5, r) or Polar(n <= 32, k)."""
    if draw(st.booleans()):
        m = draw(st.integers(1, 5))
        r = draw(st.integers(0, m))
        code, tree = {"family": "rm", "m": m, "r": r}, build_rm_tree(m, r)
    else:
        n = 1 << draw(st.integers(1, 5))
        k = draw(st.integers(1, n))
        code, tree = {"family": "polar", "n": n, "k": k}, build_polar_tree(polar_spec(n, k))
    assume(all(lf.kind != FULL_RATE or lf.k <= MAX_FULL_RATE_BITS for lf in tree.leaves()))
    return code, tree


models = st.tuples(small_codes(), st.sampled_from(sorted(PROFILES)),
                   st.sampled_from([ALL_INTERNAL, ALL_BUT_ROOT]))


@given(models, st.integers(0, 2**32 - 1), st.floats(0.1, 3.0))
@BOUNDED
def test_zero_weight_ko_is_soft_dumer(model_args, seed, sigma):
    (code, tree), profile, neuralize = model_args
    model = build_ko_model(tree, code, profile, neuralize, init="zeros")
    rng = np.random.default_rng(seed)
    msgs = rng.integers(0, 2, (6, tree.k), dtype=np.uint8)
    y = bpsk(tree_encode(tree, msgs)) + sigma * rng.standard_normal((6, tree.n))
    llrs, result = ko_decode(model, y)
    classical = dumer_decode(tree, y, "soft")
    assert np.array_equal(result.message, classical.message)
    assert np.array_equal(llrs.view(np.uint64), classical.llrs.view(np.uint64))
    assert np.array_equal(result.llrs, llrs)


def first_wrong_leaf_counts(tree, msgs, decoded):
    """Per-block scan of tree.message_leaves() for the first wrong leaf."""
    leaves = tree.message_leaves()
    counts = [0] * len(leaves)
    for want, got in zip(msgs, decoded):
        for i, lf in enumerate(leaves):
            if (want[lf.lo:lf.hi] != got[lf.lo:lf.hi]).any():
                counts[i] += 1
                break
    return counts


@given(st.one_of(st.tuples(small_codes(), st.just("classical")), st.tuples(models, st.just("ko"))),
       st.integers(0, 2**16), st.floats(-6.0, 2.0))
@BOUNDED
def test_bler_decomposition_charges_the_first_wrong_leaf(system_args, seed, snr_db):
    spec, decoder = system_args
    if decoder == "ko":
        (code, tree), profile, neuralize = spec
        system = ko_system(build_ko_model(tree, code, profile, neuralize, seed=seed))
    else:  # hard-rule Dumer for RM codes, SC for Polar codes
        code, tree = spec
        system = (rm_system(code["m"], code["r"]) if code["family"] == "rm"
                  else polar_system(polar_spec(code["n"], code["k"])))
    blocks = 200
    contribs, bler = bler_decomposition(system, "awgn", snr_db, blocks, seed=seed)
    ch = make_channel("awgn", snr_to_sigma(snr_db))
    msgs, y = _chunk_blocks(system, ch, seed, 0, 0, blocks)
    decoded = system.decode(y, snr_to_sigma(snr_db))
    assert [c.label for c in contribs] == [lf.label() for lf in tree.message_leaves()]
    assert [c.first_error_blocks for c in contribs] == first_wrong_leaf_counts(tree, msgs, decoded)
    assert sum(c.first_error_blocks for c in contribs) / blocks == bler
    assert bler == (decoded != msgs).any(axis=1).mean()


# Dense-block tiles of 2 rows for width-32 layers and 16 for width-4 ones.
SMALL_TILE_FLOATS = 64


@given(models, st.integers(0, 2**32 - 1), st.integers(1, 9), st.floats(0.1, 3.0))
@BOUNDED
def test_untaped_ko_equals_taped_graphs(model_args, seed, batch, sigma):
    (code, tree), profile, neuralize = model_args
    model = build_ko_model(tree, code, profile, neuralize, seed=seed)
    rng = np.random.default_rng(seed)
    msgs = rng.integers(0, 2, (batch, tree.k), dtype=np.uint8)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad, "TILE_FLOATS", SMALL_TILE_FLOATS)
        x = ko_encode(model, msgs)
        taped_x = ko_encode_graph(model, msgs, bind(model))
        y = x + sigma * rng.standard_normal(x.shape)
        llrs, _ = ko_decode(model, y)
        taped_llrs, _ = ko_decode_graph(model, ad.const(y), bind(model))
    assert taped_x.parents and taped_llrs.parents
    assert np.array_equal(x.view(np.uint64), taped_x.value.view(np.uint64))
    assert np.array_equal(llrs.view(np.uint64), taped_llrs.value.view(np.uint64))


@given(st.one_of(st.tuples(small_codes(), st.just("classical")), st.tuples(models, st.just("ko"))),
       st.integers(0, 2**16), st.floats(-4.0, 4.0))
@settings(max_examples=20, deadline=20000)
def test_simulated_counts_do_not_depend_on_threads(system_args, seed, snr_db):
    spec, decoder = system_args
    if decoder == "ko":
        (code, tree), profile, neuralize = spec
        system = ko_system(build_ko_model(tree, code, profile, neuralize, seed=seed))
    else:
        code, tree = spec
        system = (rm_system(code["m"], code["r"]) if code["family"] == "rm"
                  else polar_system(polar_spec(code["n"], code["k"])))
    counts = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad, "TILE_FLOATS", SMALL_TILE_FLOATS)
        mp.setattr(evaluation, "CHUNK_BLOCKS", 37)  # five chunks, the last one short
        for threads in (1, 2):
            results = simulate_error_rates(system, "awgn", [snr_db], 170, min_block_errors=0,
                                           max_blocks=170, seed=seed, threads=threads)
            counts.append([(r.blocks, r.bit_errors, r.block_errors) for r in results])
    assert counts[0] == counts[1]


@given(models, st.integers(0, 2**32 - 1))
@BOUNDED
def test_checkpoint_round_trip_is_byte_exact(model_args, seed):
    (code, tree), profile, neuralize = model_args
    model = build_ko_model(tree, code, profile, neuralize, seed=seed)
    rng = np.random.default_rng(seed)
    y = bpsk(tree_encode(tree, rng.integers(0, 2, (4, tree.k), dtype=np.uint8))) \
        + rng.standard_normal((4, tree.n))
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a.json"), Path(tmp, "b.json")
        save_checkpoint(model, first)
        loaded = load_checkpoint(first)
        save_checkpoint(loaded, second)
        assert first.read_bytes() == second.read_bytes()
    params = model.encoder_params() + model.decoder_params()
    loaded_params = loaded.encoder_params() + loaded.decoder_params()
    assert len(params) == len(loaded_params)
    assert all(np.array_equal(a.view(np.uint64), b.view(np.uint64))
               for a, b in zip(params, loaded_params))
    assert np.array_equal(ko_decode(loaded, y)[0].view(np.uint64),
                          ko_decode(model, y)[0].view(np.uint64))
