"""Monte-Carlo error-rate estimation, error attribution and code analysis.

Simulation is batched and deterministic: each (seed, SNR index, chunk
index) triple seeds its own generator, so results are reproducible and
independent of how chunks are scheduled across threads.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .bits import bpsk
from .channel import (
    BURST_PROB,
    BURST_SIGMA_MULT,
    Channel,
    channel_llr,
    make_channel,
    snr_to_sigma,
    transmit,
)
from .codes import (
    FIRST_ORDER,
    FROZEN,
    FULL_RATE,
    REPETITION,
    Leaf,
    PlotkinTree,
    PolarSpec,
    all_messages,
    build_polar_tree,
    build_rm_tree,
    enumerate_codebook,
    leaf_generator,
    tree_encode,
)
from .decoding import (
    HARD_MAP,
    SOFT_MAP,
    dumer_decode,
    fht_map_decode_rm1,
    map_decode,
    require_finite,
)

CHUNK_BLOCKS = 10000

# Reference bit error rates for full-scale trained KO(8,2) models (standard
# and tiny profiles) on AWGN, keyed by SNR in dB with their measurement
# uncertainty. Reaching these requires the full training budget (2000 epochs
# x 550 steps x batch 50000), far beyond a desk run; they are checked only
# against an externally supplied checkpoint.
REFERENCE_BER_KO82 = {
    -10: (0.36555, 2e-7),
    -9: (0.27428, 2e-7),
    -8: (0.15890, 2e-7),
    -7: (0.06167, 1e-7),
    -6: (0.01349, 7e-8),
    -5: (1.46003e-3, 2e-8),
    -4: (0.64702e-4, 4e-9),
    -3: (3.16216e-6, 1e-9),
}
REFERENCE_BER_TINYKO82 = {
    -10: (0.38414, 2e-7),
    -9: (0.29671, 2e-7),
    -8: (0.18037, 2e-7),
    -7: (0.07455, 2e-7),
    -6: (0.01797, 8e-8),
    -5: (2.18083e-3, 3e-8),
    -4: (1.18919e-4, 7e-9),
    -3: (4.54054e-6, 1e-9),
}


@dataclass
class SimResult:
    """Error-rate estimates at one SNR point with binomial standard errors."""

    snr_db: float
    blocks: int
    bit_errors: int
    block_errors: int
    ber: float
    bler: float
    ber_se: float
    bler_se: float
    code: str
    decoder: str
    channel: str
    seed: int

    @classmethod
    def from_counts(cls, snr_db, blocks, bit_errors, block_errors, k,
                    code, decoder, channel, seed) -> "SimResult":
        ber = bit_errors / (blocks * k)
        bler = block_errors / blocks
        return cls(snr_db, blocks, bit_errors, block_errors, ber, bler,
                   standard_error(ber, blocks * k), standard_error(bler, blocks),
                   code, decoder, channel, seed)


def standard_error(p_hat: float, trials: int) -> float:
    return float(np.sqrt(p_hat * (1.0 - p_hat) / trials))


CSV_HEADER = "snr_db,blocks,bit_errors,block_errors,ber,bler,ber_se,bler_se,code,decoder,channel,seed"


def results_to_csv(results: list[SimResult], path, preamble: str | None = None) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        if preamble:
            fh.write(f"# {preamble}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        for r in results:
            writer.writerow([repr(r.snr_db), r.blocks, r.bit_errors,
                             r.block_errors, repr(r.ber), repr(r.bler),
                             repr(r.ber_se), repr(r.bler_se), r.code,
                             r.decoder, r.channel, r.seed])


# ---------------------------------------------------------------------------
# Code systems: a uniform encode/decode interface for the simulator
# ---------------------------------------------------------------------------

# Decoders each code family accepts, by name; the first is the default.
DECODERS = {
    "rm": ("dumer", "dumer-soft", "map", "fht-map"),
    "polar": ("sc", "map"),
    "ko": ("ko",),
}


class UnsupportedDecoder(ValueError):
    """The requested decoder does not apply to the code."""


def check_decoder(family: str, decoder: str | None) -> str:
    """The decoder name to use for a code family (None picks its default)."""
    names = DECODERS[family]
    if decoder is None:
        return names[0]
    if decoder not in names:
        raise UnsupportedDecoder(f"{family} codes take decoder {', '.join(names)}, "
                                 f"not {decoder!r}")
    return decoder


@dataclass
class CodeSystem:
    """Bundle of batch encode/decode callables plus identifying metadata.

    encode maps (B, k) bits to (B, n) symbols of energy n in a fresh
    array, which the simulator transmits in place when it is a writeable
    C-contiguous float64 array; decode maps received (B, n) symbols and
    the noise sigma to (B, k) hard bits and may overwrite the symbols.
    tree is set when the decoder goes leaf by leaf over it, in the order
    tree.message_leaves() lists them; decoders that take the whole code at
    once leave it None. Classical codes also expose decode_llrs, which
    maps channel LLRs to hard bits; KO decoders read raw symbols only.
    decode_ops returns the scalar operations one decode spends per block.
    """

    name: str
    decoder_name: str
    k: int
    n: int
    encode: callable
    decode: callable
    tree: PlotkinTree | None = None
    decode_llrs: callable | None = None
    decode_ops: callable | None = None


# Decoders that go leaf by leaf over the code's tree.
LEAF_DECODERS = ("dumer", "dumer-soft", "sc", "ko")


def _llr_decoder(tree: PlotkinTree, decoder: str):
    """A classical decoder, named as in DECODERS, as llrs -> message bits."""
    if decoder in LEAF_DECODERS:
        rule = SOFT_MAP if decoder == "dumer-soft" else HARD_MAP
        return lambda llrs: dumer_decode(tree, llrs, rule).message
    if decoder == "map":
        codebook = enumerate_codebook(tree)
        return lambda llrs: map_decode(codebook, require_finite(llrs))[0]
    return lambda llrs: fht_map_decode_rm1(require_finite(llrs), tree.m)[1]


def _classical_system(name: str, tree: PlotkinTree, decoder: str) -> CodeSystem:
    decode_llrs = _llr_decoder(tree, decoder)

    def encode(msgs):
        return bpsk(tree_encode(tree, msgs))

    def decode(y, sigma):
        """LLRs in y's own buffer when it is a writeable float64 array."""
        y = np.asarray(y, dtype=np.float64)
        return decode_llrs(channel_llr(y, sigma, out=y if y.flags.writeable else None))

    return CodeSystem(name, decoder, tree.k, tree.n, encode, decode,
                      tree if decoder in LEAF_DECODERS else None, decode_llrs,
                      lambda: _classical_decode_ops(tree, decoder))


def rm_system(m: int, r: int, decoder: str = "dumer") -> CodeSystem:
    decoder = check_decoder("rm", decoder)
    if decoder == "fht-map" and r != 1:
        raise UnsupportedDecoder("fht-map decodes first-order codes only")
    return _classical_system(f"RM({m},{r})", build_rm_tree(m, r), decoder)


def polar_system(spec: PolarSpec, decoder: str = "sc") -> CodeSystem:
    return _classical_system(f"Polar({spec.n},{spec.k})", build_polar_tree(spec),
                             check_decoder("polar", decoder))


def ko_system(model, binarized: bool = False) -> CodeSystem:
    from .ko import binarize_kob, ko_decode, ko_encode

    def encode(msgs):
        return binarize_kob(model, msgs) if binarized else ko_encode(model, msgs)

    name = ("KO-b" if binarized else "KO") + model.tree.label[model.tree.label.index("("):]
    return CodeSystem(name, "ko", model.k, model.n, encode,
                      lambda y, sigma: ko_decode(model, y)[1].message, model.tree,
                      decode_ops=lambda: tree_decode_ops(model.tree, soft=True, model=model))


# ---------------------------------------------------------------------------
# Monte-Carlo simulation
# ---------------------------------------------------------------------------

# After min_blocks, the early-stop condition is evaluated every
# STOP_CHECK_CHUNKS chunks, a fixed cadence, so the simulated block count
# never depends on the worker count.
STOP_CHECK_CHUNKS = 4


def simulate_error_rates(system: CodeSystem, channel_kind: str, snr_grid,
                         min_blocks: int, min_block_errors: int = 100,
                         max_blocks: int | None = None, seed: int = 0,
                         burst_prob: float = BURST_PROB,
                         burst_sigma_mult: float = BURST_SIGMA_MULT,
                         threads: int = 1) -> list[SimResult]:
    """Estimate BER/BLER on a grid of SNR points.

    Each point simulates chunks of blocks until at least min_blocks have
    run and either min_block_errors block errors were seen or max_blocks
    (default 100x min_blocks) is reached. Chunk RNG streams depend only on
    (seed, snr index, chunk index) and the stopping rule is evaluated at a
    fixed cadence, so any thread count gives identical results.
    """
    if min_blocks < 1:
        raise ValueError("min_blocks must be >= 1")
    cap = max(max_blocks if max_blocks is not None else 100 * min_blocks, min_blocks)
    results = []
    with ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext() as pool:
        for snr_index, snr_db in enumerate(snr_grid):
            ch = make_channel(channel_kind, snr_to_sigma(snr_db), burst_prob, burst_sigma_mult)
            blocks = bit_errors = block_errors = chunks = 0
            sizes = _chunk_sizes(min_blocks)
            while sizes:
                for done, bits_wrong, blocks_wrong in run_chunks(
                        system, ch, seed, snr_index, chunks, sizes, _error_counts, pool):
                    blocks += done
                    bit_errors += bits_wrong
                    block_errors += blocks_wrong
                chunks += len(sizes)
                sizes = (_chunk_sizes(min(cap - blocks, STOP_CHECK_CHUNKS * CHUNK_BLOCKS))
                         if block_errors < min_block_errors else [])
            results.append(SimResult.from_counts(
                float(snr_db), blocks, bit_errors, block_errors, system.k,
                system.name, system.decoder_name, channel_kind, seed))
    return results


def _chunk_sizes(blocks: int) -> list[int]:
    """CHUNK_BLOCKS-sized chunks covering blocks, the last one short."""
    return [min(CHUNK_BLOCKS, blocks - done) for done in range(0, blocks, CHUNK_BLOCKS)]


def _error_counts(msgs: np.ndarray, decoded: np.ndarray) -> tuple[int, int, int]:
    """(blocks, bit errors, block errors) of one chunk."""
    diffs = decoded != msgs
    return len(msgs), int(diffs.sum()), int(diffs.any(axis=1).sum())


def run_chunks(system: CodeSystem, ch: Channel, seed: int, snr_index: int,
               first: int, sizes: list[int], tally,
               pool: ThreadPoolExecutor | None = None):
    """tally(messages, decoded bits) of each chunk, in chunk order, through
    the pool when there is one. tally runs in the worker, so a chunk's
    arrays are freed there. Chunk first + i has sizes[i] blocks and draws
    its messages and noise from the generator seeded by
    [seed, snr_index, first + i].

    One float64 (blocks, n) buffer carries a chunk from encoder output to
    decoder input: the channel adds its noise into the encoded symbols,
    and a classical decode turns them into LLRs in place. An encoding
    that cannot be written in place (read-only, say a cached array) is
    transmitted into a new array and left unchanged."""
    def run(i):
        rng = np.random.default_rng([seed, snr_index, first + i])
        msgs = rng.integers(0, 2, size=(sizes[i], system.k), dtype=np.uint8)
        x = system.encode(msgs)
        in_place = x.dtype == np.float64 and x.flags.writeable and x.flags.c_contiguous
        y = transmit(x, ch, rng, out=x if in_place else None)
        return tally(msgs, system.decode(y, ch.sigma))

    return (pool.map if pool else map)(run, range(len(sizes)))


# ---------------------------------------------------------------------------
# Block-error attribution across the decoding order
# ---------------------------------------------------------------------------

@dataclass
class LeafContribution:
    label: str
    first_error_blocks: int
    fraction: float


def bler_decomposition(system: CodeSystem, channel_kind: str, snr_db: float,
                       blocks: int, seed: int = 0, burst_prob: float = BURST_PROB,
                       burst_sigma_mult: float = BURST_SIGMA_MULT
                       ) -> tuple[list[LeafContribution], float]:
    """Split BLER into per-leaf first-error contributions.

    A block counts toward leaf i when leaf i is the first in decode order,
    system.tree.message_leaves(), whose sub-message was decoded wrongly;
    the contributions sum to the overall BLER on the same blocks by
    construction. UnsupportedDecoder if the decoder does not go leaf by
    leaf (system.tree is None).
    """
    if system.tree is None:
        raise UnsupportedDecoder(f"bler-decomposition needs a decoder that goes leaf by "
                                 f"leaf ({', '.join(LEAF_DECODERS)}), not "
                                 f"{system.decoder_name!r}")
    leaves = system.tree.message_leaves()
    ch = make_channel(channel_kind, snr_to_sigma(snr_db), burst_prob, burst_sigma_mult)

    def first_errors(msgs, decoded):
        """A chunk's blocks by first wrong leaf, the last count for no wrong leaf."""
        wrong = [(decoded[:, lf.lo:lf.hi] != msgs[:, lf.lo:lf.hi]).any(axis=1) for lf in leaves]
        first = np.argmax(np.stack([*wrong, np.ones(len(msgs), dtype=bool)], axis=1), axis=1)
        return np.bincount(first, minlength=len(leaves) + 1)

    counts = sum(run_chunks(system, ch, seed, 0, 0, _chunk_sizes(blocks), first_errors),
                 np.zeros(len(leaves) + 1, dtype=np.int64))[:-1].tolist()
    return ([LeafContribution(lf.label(), c, c / blocks) for lf, c in zip(leaves, counts)],
            sum(counts) / blocks)


# ---------------------------------------------------------------------------
# Pairwise-distance analysis and the Gaussian-codebook baseline
# ---------------------------------------------------------------------------

EXHAUSTIVE = "exhaustive"
RANDOM_PAIRS = "random"


@dataclass
class DistanceHistogram:
    bin_edges: np.ndarray
    counts: np.ndarray
    mode: str
    pairs: int
    mean: float
    distances: np.ndarray | None = None

    @property
    def normalized(self) -> np.ndarray:
        return self.counts / max(1, self.pairs)

    def write_csv(self, path, preamble: str | None = None) -> None:
        with open(path, "w") as fh:
            if preamble:
                fh.write(f"# {preamble}\n")
            fh.write("bin_lo,bin_hi,count,normalized\n")
            norm = self.normalized
            for i in range(len(self.counts)):
                fh.write(f"{float(self.bin_edges[i])!r},"
                         f"{float(self.bin_edges[i + 1])!r},"
                         f"{int(self.counts[i])},{float(norm[i])!r}\n")


def pairwise_distance_histogram(encode, k: int, n: int, mode: str = EXHAUSTIVE,
                                bins: int = 100, pair_count: int = 100000,
                                rng: np.random.Generator | None = None,
                                keep_distances: bool = False) -> DistanceHistogram:
    """Histogram of Euclidean distances between distinct codewords.

    Exhaustive mode enumerates all C(2^k, 2) pairs (k <= 16); random mode
    draws message pairs uniformly, rejecting equal pairs. Bins span
    [0, 2*sqrt(n)], the diameter of the energy-n sphere.
    """
    edges = np.linspace(0.0, 2.0 * np.sqrt(n), bins + 1)
    if mode == EXHAUSTIVE:
        if k > 16:
            raise ValueError("exhaustive mode requires k <= 16")
        cw = encode(all_messages(k))
        total = cw.shape[0]
        dists = []
        for i in range(total - 1):
            diff = cw[i + 1:] - cw[i]
            dists.append(np.sqrt(np.sum(diff * diff, axis=1)))
        d = np.concatenate(dists) if dists else np.zeros(0)
    elif mode == RANDOM_PAIRS:
        if rng is None:
            raise ValueError("random mode needs an rng")
        a = rng.integers(0, 2, size=(pair_count, k), dtype=np.uint8)
        b = rng.integers(0, 2, size=(pair_count, k), dtype=np.uint8)
        redraw = (a == b).all(axis=1)
        while redraw.any():
            b[redraw] = rng.integers(0, 2, size=(int(redraw.sum()), k), dtype=np.uint8)
            redraw = (a == b).all(axis=1)
        diff = encode(a) - encode(b)
        d = np.sqrt(np.sum(diff * diff, axis=1))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    counts, _ = np.histogram(d, bins=edges)
    return DistanceHistogram(edges, counts, mode, int(d.size),
                             float(d.mean()) if d.size else 0.0,
                             d if keep_distances else None)


def gaussian_codebook(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """2^k i.i.d. Gaussian codewords normalized to energy n; the classical
    random baseline whose MAP decoder is a nearest-neighbor search."""
    if k > 16:
        raise ValueError("gaussian codebook limited to k <= 16")
    cw = rng.standard_normal((1 << k, n))
    norms = np.linalg.norm(cw, axis=1, keepdims=True)
    return np.sqrt(n) * cw / norms


# ---------------------------------------------------------------------------
# Operation counting
# ---------------------------------------------------------------------------
#
# Convention: every scalar add/XOR, multiply, comparison (including abs,
# sign tests and argmax steps) and exp/log evaluation counts as one
# operation; data movement and RNG are free. What a decode spends follows
# from the tree's shape alone, so it is charged by one walk over the tree,
# for a single block.

@dataclass
class OpCounter:
    """Scalar operation counts by category, under the convention above."""

    adds: int = 0
    muls: int = 0
    comparisons: int = 0
    exp_logs: int = 0

    def count(self, adds: int = 0, muls: int = 0, comparisons: int = 0,
              exp_logs: int = 0) -> None:
        self.adds += adds
        self.muls += muls
        self.comparisons += comparisons
        self.exp_logs += exp_logs

    @property
    def total(self) -> int:
        return self.adds + self.muls + self.comparisons + self.exp_logs


def _hard_leaf_ops(ops: OpCounter, leaf: Leaf) -> None:
    """MAP leaf: a repetition leaf sums its LLRs and tests the sign; a
    first-order leaf runs FHT-MAP (n*m butterfly adds, the argmax of |t|,
    n multiplies and n adds to rebuild the codeword); any other leaf
    correlates with all 2^k codewords and takes the argmax."""
    n = leaf.length
    if leaf.kind == REPETITION:
        ops.count(adds=n - 1, comparisons=1)
    elif leaf.kind == FIRST_ORDER:
        ops.count(adds=n * leaf.m + n, muls=n, comparisons=2 * n - 1)
    else:
        words = 1 << leaf.k
        ops.count(muls=words * n, adds=words * (n - 1), comparisons=words - 1)


def _soft_leaf_ops(ops: OpCounter, leaf: Leaf) -> None:
    """Max-log leaf: correlations with its V codewords (by the FHT for
    first-order leaves), per bit a max over each half of the V candidates
    and their difference, the sigmoid, and the soft re-encode (one 1-2p per
    bit and one product per extra message bit in each generator column)."""
    n, k = leaf.length, leaf.k
    if leaf.kind == FIRST_ORDER:
        words = 2 * n
        ops.count(adds=n * leaf.m, muls=n)
    else:
        words = 1 << k
        ops.count(muls=words * n, adds=words * (n - 1))
    ops.count(comparisons=k * (words - 2), adds=k)
    ops.count(exp_logs=k, adds=k, muls=k)
    extra = np.maximum(leaf_generator(leaf).sum(axis=0, dtype=np.int64) - 1, 0).sum()
    ops.count(muls=k + int(extra), adds=k)


def _block_ops(ops: OpCounter, block, coords: int) -> None:
    """A dense block at each of coords coordinates: a fan_in -> fan_out
    layer costs fan_in*fan_out multiplies plus as many adds, and each
    hidden SELU unit 5 (one comparison, one exp, two multiplies, one add)."""
    widths = block.widths
    for fan_in, fan_out in zip(widths, widths[1:]):
        ops.count(muls=coords * fan_in * fan_out, adds=coords * fan_in * fan_out)
    hidden = coords * sum(widths[1:-1])
    ops.count(comparisons=hidden, exp_logs=hidden, muls=2 * hidden, adds=hidden)


def tree_decode_ops(tree: PlotkinTree, soft: bool, model=None) -> OpCounter:
    """Operations of one recursive decode of a single block over the tree.

    Each leaf charges its hard MAP or soft max-log rule. Each internal node
    charges its LSE, parity-adjusted add and combine (XOR of hard bits or
    product of soft signs); with a KO model, a neuralized node adds its
    f_left and f_right blocks at every coordinate and two residual adds.
    """
    ops = OpCounter()
    for leaf in tree.leaves():
        if leaf.kind != FROZEN:
            (_soft_leaf_ops if soft else _hard_leaf_ops)(ops, leaf)
    for node in tree.internal_nodes():
        half = node.length // 2
        # LSE: a+b, a-b, two result adds; sign product and two negations;
        # sign extraction, min and four abs tests; two exp and two log
        ops.count(adds=4 * half, muls=3 * half, comparisons=7 * half, exp_logs=4 * half)
        ops.count(adds=2 * half, muls=2 * half)
        if soft:
            ops.count(muls=half)
        else:
            ops.count(adds=half)
        if model is not None and node.node_id in model.dec_left:
            _block_ops(ops, model.dec_left[node.node_id], half)
            _block_ops(ops, model.dec_right[node.node_id], half)
            ops.count(adds=2 * half)
    return ops


def _classical_decode_ops(tree: PlotkinTree, decoder: str) -> OpCounter:
    """Operations of a classical decoder named as in DECODERS; map and
    fht-map decode the whole code as one full-rate or first-order leaf."""
    if decoder not in ("map", "fht-map"):
        return tree_decode_ops(tree, soft=decoder == "dumer-soft")
    ops = OpCounter()
    _hard_leaf_ops(ops, Leaf(FULL_RATE if decoder == "map" else FIRST_ORDER,
                             tree.m, 0, tree.k))
    return ops


def count_decode_ops(system: CodeSystem, snr_db: float = 0.0, seed: int = 0) -> OpCounter:
    """Scalar operations one decode call spends on a single block.

    The count follows from the code's tree and decoder alone, so it does
    not depend on snr_db or seed; both are kept for existing callers.
    """
    return system.decode_ops()
