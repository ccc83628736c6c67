"""Plotkin-tree channel codes: Reed-Muller, Polar and neural KO codes.

Encoders and recursive decoders share one tree representation; the KO
family attaches small residual networks to the tree's internal nodes and
trains them end to end over a simulated channel.
"""

__version__ = "0.1.0"

from .bits import bpsk, kronecker_generator
from .channel import (
    Channel,
    awgn,
    bursty,
    channel_llr,
    rayleigh_fast,
    snr_to_sigma,
    transmit,
)
from .codes import (
    CodeSpec,
    PlotkinTree,
    PolarSpec,
    build_polar_tree,
    build_rm_tree,
    enumerate_codebook,
    polar_reliabilities,
    polar_spec,
    rm_generator_rows,
    rm_spec,
)
from .decoding import (
    DecodeResult,
    dumer_decode,
    fht,
    fht_map_decode_rm1,
    lse,
    majority_decode_repetition,
    map_decode,
    parity_adjusted_add,
    soft_map_llrs,
    soft_reencode,
)
from .evaluation import (
    OpCounter,
    SimResult,
    bler_decomposition,
    count_decode_ops,
    gaussian_codebook,
    ko_system,
    pairwise_distance_histogram,
    polar_system,
    rm_system,
    simulate_error_rates,
)
from .ko import (
    KoModel,
    binarize_kob,
    build_ko_model,
    ko_decode,
    ko_encode,
    load_checkpoint,
    save_checkpoint,
)
from .training import TrainConfig, TrainLog, bce_loss, sample_messages, train

__all__ = [name for name in dir() if not name.startswith("_")]
