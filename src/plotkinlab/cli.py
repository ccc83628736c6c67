"""Command-line entry point.

Subcommands: ``codes info``, ``encode``, ``decode``, ``simulate``,
``train``, ``analyze pairwise-distances``, ``analyze bler-decomposition``
and ``analyze opcount``. Every output file starts with a provenance
comment carrying the tool version and the full invocation; given the same
inputs and seeds the outputs are byte identical. Exit status is 0 on
success, 2 on usage errors and 1 on runtime failures.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys

import numpy as np

from . import __version__
from .codes import build_polar_tree, build_rm_tree, polar_spec, rm_spec
from .evaluation import (
    UnsupportedDecoder,
    bler_decomposition,
    check_decoder,
    count_decode_ops,
    ko_system,
    pairwise_distance_histogram,
    polar_system,
    results_to_csv,
    rm_system,
    simulate_error_rates,
)
from .ko import build_ko_model, load_checkpoint, save_checkpoint
from .training import TrainConfig, train


class UsageError(ValueError):
    pass


def default_threads() -> int:
    env = os.environ.get("PLOTKINLAB_THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _int_at_least(lowest: int):
    """argparse type: an integer no smaller than lowest."""
    def parse(text: str) -> int:
        value = int(text)
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be >= {lowest}, got {value}")
        return value

    parse.__name__ = "int"
    return parse


positive_int = _int_at_least(1)
nonnegative_int = _int_at_least(0)


def parse_snr_grid(text: str) -> list[float]:
    """Parse 'lo:step:hi' (inclusive) or a single dB value."""
    parts = text.split(":")
    if len(parts) == 1:
        return [float(parts[0])]
    if len(parts) != 3:
        raise UsageError(f"bad SNR grid {text!r}; use lo:step:hi or a single value")
    lo, step, hi = (float(p) for p in parts)
    if step <= 0:
        raise UsageError("SNR grid step must be positive")
    grid = []
    value = lo
    while value <= hi + 1e-9:
        grid.append(round(value, 10))
        value += step
    return grid


def provenance(argv: list[str]) -> str:
    return f"plotkinlab {__version__} | plotkinlab {' '.join(argv)}"


# ---------------------------------------------------------------------------
# File I/O helpers
# ---------------------------------------------------------------------------

def read_bits_file(path: str, k: int) -> np.ndarray:
    rows = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if set(line) - {"0", "1"}:
                raise UsageError(f"{path}:{line_no}: bits lines must be 0/1 strings")
            if len(line) != k:
                raise UsageError(f"{path}:{line_no}: expected {k} bits, got {len(line)}")
            rows.append([int(c) for c in line])
    if not rows:
        raise UsageError(f"{path}: no message lines found")
    return np.array(rows, dtype=np.uint8)


def write_bits_file(path: str, bits: np.ndarray, header: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"# {header}\n")
        for row in np.atleast_2d(bits):
            fh.write("".join(str(int(b)) for b in row) + "\n")


def read_real_file(path: str, fmt: str, width: int) -> np.ndarray:
    if fmt == "f64":
        with open(path, "rb") as fh:
            raw = fh.read()
        if not raw or len(raw) % (8 * width):
            raise UsageError(f"{path}: {len(raw)} bytes is not a whole number of "
                             f"rows of {width} float64 values")
        return _finite(path, np.frombuffer(raw, dtype="<f8").reshape(-1, width).copy())
    rows = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                vals = [float(v) for v in line.split(",")]
            except ValueError as exc:
                raise UsageError(f"{path}:{line_no}: {exc}") from None
            if len(vals) != width:
                raise UsageError(f"{path}: expected {width} values per row")
            rows.append(vals)
    if not rows:
        raise UsageError(f"{path}: no data rows found")
    return _finite(path, np.array(rows))


def _finite(path: str, data: np.ndarray) -> np.ndarray:
    if not np.isfinite(data).all():
        raise UsageError(f"{path}: non-finite value (nan or inf) in input")
    return data


def write_real_file(path: str, data: np.ndarray, fmt: str, header: str) -> None:
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    if fmt == "f64":
        data.astype("<f8").tofile(path)
        return
    with open(path, "w") as fh:
        fh.write(f"# {header}\n")
        for row in data:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


# ---------------------------------------------------------------------------
# Code selection shared by several subcommands
# ---------------------------------------------------------------------------

def _load_system(args):
    if args.code == "rm":
        _require(args.m is not None and args.r is not None, "--code rm needs --m and --r")
        return _from_flags(rm_system, args.m, args.r, args.decoder or "dumer")
    if args.code == "polar":
        _require(args.n is not None and args.k is not None, "--code polar needs --n and --k")
        spec = _from_flags(polar_spec, args.n, args.k, args.design_z0)
        return polar_system(spec, args.decoder or "sc")
    if args.code == "ko":
        _require(args.checkpoint is not None, "--code ko needs --checkpoint")
        check_decoder("ko", args.decoder)
        model = load_checkpoint(args.checkpoint)
        return ko_system(model, binarized=args.binarized)
    raise UsageError(f"unknown code {args.code!r}")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise UsageError(message)


def _from_flags(build, *params):
    """build(*params) on code parameters given as flags, where a rejected
    parameter (say, a code beyond the size limit) is a usage error."""
    try:
        return build(*params)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_codes_info(args, argv) -> int:
    if args.code == "rm":
        _require(args.m is not None and args.r is not None, "--code rm needs --m and --r")
        spec = _from_flags(rm_spec, args.m, args.r)
        tree = build_rm_tree(args.m, args.r)
        info = {
            "code": f"RM({args.m},{args.r})", "n": spec.n, "k": spec.k,
            "rate": spec.rate, "min_distance": spec.min_distance,
            "tree": tree.to_dict(),
        }
    elif args.code == "polar":
        _require(args.n is not None and args.k is not None, "--code polar needs --n and --k")
        pspec = _from_flags(polar_spec, args.n, args.k, args.design_z0)
        tree = build_polar_tree(pspec)
        info = {
            "code": f"Polar({args.n},{args.k})", "n": pspec.n, "k": pspec.k,
            "rate": pspec.k / pspec.n, "design_z0": pspec.design_z0,
            "active_set": list(pspec.active_set), "tree": tree.to_dict(),
        }
    elif args.code == "ko":
        _require(args.checkpoint is not None, "--code ko needs --checkpoint")
        model = load_checkpoint(args.checkpoint)
        info = {
            "code": model.tree.label, "n": model.n, "k": model.k,
            "rate": model.k / model.n, "profile": model.profile,
            "neuralize": model.neuralize,
            "parameters": sum(p.size for p in model.encoder_params() + model.decoder_params()),
            "tree": model.tree.to_dict(),
        }
    else:
        raise UsageError(f"unknown code {args.code!r}")
    if args.json:
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0
    print(f"{info['code']}: n={info['n']} k={info['k']} rate={info['k']}/{info['n']}"
          f" = {info['rate']:.6f}", end="")
    if info.get("min_distance") is not None:
        print(f" d={info['min_distance']}", end="")
    print()
    if "active_set" in info:
        print(f"active set (1-indexed): {info['active_set']}")
    leaves = _leaf_labels(info["tree"]["root"])
    print("leaves (decode order): " + ", ".join(leaves))
    return 0


def _leaf_labels(node: dict) -> list[str]:
    if "leaf" in node:
        return [node["label"]]
    return _leaf_labels(node["v"]) + _leaf_labels(node["u"])


def cmd_encode(args, argv) -> int:
    system = _load_system(args)
    msgs = read_bits_file(args.infile, system.k)
    write_real_file(args.outfile, system.encode(msgs), args.format, provenance(argv))
    return 0


def cmd_decode(args, argv) -> int:
    """Decode a file of channel LLRs (rm, polar) or raw received symbols (ko)."""
    system = _load_system(args)
    data = read_real_file(args.infile, args.format, system.n)
    if system.decode_llrs is None:
        bits = system.decode(data, None)
    else:
        bits = system.decode_llrs(data).message
    write_bits_file(args.outfile, bits, provenance(argv))
    return 0


def cmd_simulate(args, argv) -> int:
    system = _load_system(args)
    grid = parse_snr_grid(args.snr)
    _require(len(grid) > 0, "SNR grid is empty")
    results = simulate_error_rates(
        system, args.channel, grid, min_blocks=args.blocks,
        min_block_errors=args.min_block_errors, max_blocks=args.max_blocks,
        seed=args.seed, burst_prob=args.burst_prob,
        burst_sigma_mult=args.burst_sigma_mult, threads=args.threads)
    if args.out:
        results_to_csv(results, args.out, provenance(argv))
    if args.json:
        print(json.dumps([vars(r) for r in results], indent=2, sort_keys=True))
        return 0
    fmt = "{:>8} {:>9} {:>12} {:>12} {:>12} {:>12}"
    print(fmt.format("snr_db", "blocks", "bit_errs", "block_errs", "ber", "bler"))
    for r in results:
        print(fmt.format(r.snr_db, r.blocks, r.bit_errors, r.block_errors,
                         f"{r.ber:.6g}", f"{r.bler:.6g}"))
    return 0


def cmd_train(args, argv) -> int:
    cfg_fields = {f: getattr(args, f) for f in (
        "epochs", "dec_steps", "enc_steps", "snr_dec", "snr_enc", "lr_dec",
        "lr_enc", "batch_size", "seed", "mode", "clip_norm")
        if getattr(args, f) is not None}
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        for key, val in file_cfg.items():
            cfg_fields.setdefault(key, val)
    cfg = TrainConfig(**cfg_fields)
    if args.init_checkpoint:
        model = load_checkpoint(args.init_checkpoint)
    else:
        if args.polar:
            n, k = args.polar
            code = {"family": "polar", "n": n, "k": k, "design_z0": args.design_z0}
            tree = build_polar_tree(_from_flags(polar_spec, n, k, args.design_z0))
            neuralize = "all_but_root"
        else:
            _require(args.m is not None and args.r is not None,
                     "train needs --m/--r or --polar N K or --init-checkpoint")
            code = {"family": "rm", "m": args.m, "r": args.r}
            tree = _from_flags(build_rm_tree, args.m, args.r)
            neuralize = "all_internal"
        model = build_ko_model(tree, code, args.profile, neuralize, seed=cfg.seed)
    model, log = train(model, cfg, channel_kind=args.channel)
    save_checkpoint(model, args.checkpoint)
    log.checkpoint_path = args.checkpoint
    if args.log:
        log.write_csv(args.log)
    losses = log.losses()
    print(f"trained {model.tree.label} profile={model.profile}: "
          f"{len(log.records)} steps in {log.wall_seconds:.1f}s"
          + (f", final loss {losses[-1]:.6f}" if losses else ""))
    print(f"checkpoint written to {args.checkpoint}")
    return 0


def cmd_analyze_pairwise(args, argv) -> int:
    rng = np.random.default_rng(args.seed)
    if args.code == "gaussian":
        _require(args.n is not None and args.k is not None,
                 "--code gaussian needs --n and --k")
        from .evaluation import gaussian_codebook

        codebook = gaussian_codebook(args.n, args.k, rng)

        def encode(msgs):
            weights = (1 << np.arange(args.k - 1, -1, -1)).astype(np.int64)
            return codebook[msgs.astype(np.int64) @ weights]

        k, n = args.k, args.n
    else:
        system = _load_system(args)
        encode, k, n = system.encode, system.k, system.n
    hist = pairwise_distance_histogram(encode, k, n, mode=args.mode,
                                       bins=args.bins, pair_count=args.pairs,
                                       rng=rng)
    if args.out:
        hist.write_csv(args.out, provenance(argv))
    if args.json:
        print(json.dumps({"pairs": hist.pairs, "mean_distance": hist.mean,
                          "bin_edges": hist.bin_edges.tolist(),
                          "counts": hist.counts.tolist()}, sort_keys=True))
        return 0
    print(f"pairs={hist.pairs} mean_distance={hist.mean:.6f}")
    return 0


def cmd_analyze_bler(args, argv) -> int:
    system = _load_system(args)
    contribs, bler = bler_decomposition(system, args.channel, args.snr_value,
                                        args.blocks, args.seed, args.burst_prob,
                                        args.burst_sigma_mult)
    if args.json:
        print(json.dumps({"bler": bler,
                          "contributions": [vars(c) for c in contribs]},
                         indent=2, sort_keys=True))
        return 0
    print(f"{'leaf':<10} {'first_error_blocks':>20} {'fraction':>12}")
    for c in contribs:
        print(f"{c.label:<10} {c.first_error_blocks:>20} {c.fraction:>12.6g}")
    total = sum(c.first_error_blocks for c in contribs)
    print(f"{'total':<10} {total:>20} {bler:>12.6g}")
    if args.out:
        import csv

        with open(args.out, "w", newline="") as fh:
            fh.write(f"# {provenance(argv)}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["leaf", "first_error_blocks", "fraction"])
            for c in contribs:
                writer.writerow([c.label, c.first_error_blocks, repr(c.fraction)])
    return 0


def cmd_analyze_opcount(args, argv) -> int:
    system = _load_system(args)
    ops = count_decode_ops(system, snr_db=args.snr_value, seed=args.seed)
    payload = {"code": system.name, "decoder": system.decoder_name,
               "adds": ops.adds, "muls": ops.muls,
               "comparisons": ops.comparisons, "exp_logs": ops.exp_logs,
               "total": ops.total}
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"{system.name} [{system.decoder_name}] decode ops: "
              f"adds={ops.adds} muls={ops.muls} comparisons={ops.comparisons} "
              f"exp_logs={ops.exp_logs} total={ops.total}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_code_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--code", required=True,
                   choices=["rm", "polar", "ko", "gaussian"])
    p.add_argument("--m", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--design-z0", dest="design_z0", type=float, default=0.5)
    p.add_argument("--checkpoint")
    p.add_argument("--decoder",
                   choices=["dumer", "dumer-soft", "map", "fht-map", "sc", "ko"])
    p.add_argument("--binarized", action="store_true",
                   help="use the sign-binarized KO-b codewords")


def _add_channel_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--channel", default="awgn",
                   choices=["awgn", "rayleigh", "bursty"])
    p.add_argument("--burst-prob", dest="burst_prob", type=float, default=0.1)
    p.add_argument("--burst-sigma-mult", dest="burst_sigma_mult", type=float,
                   default=float(np.sqrt(2.0)))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plotkinlab",
        description="Plotkin-tree channel codes: construction, decoding, "
                    "simulation, training and analysis")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_codes = sub.add_parser("codes", help="code inspection")
    codes_sub = p_codes.add_subparsers(dest="codes_command", required=True)
    p_info = codes_sub.add_parser("info", help="print code parameters and tree")
    _add_code_args(p_info)
    p_info.add_argument("--seed", type=int, default=0)
    p_info.add_argument("--json", action="store_true")
    p_info.set_defaults(func=cmd_codes_info)

    p_enc = sub.add_parser("encode", help="encode message bits to symbols")
    _add_code_args(p_enc)
    p_enc.add_argument("--in", dest="infile", required=True)
    p_enc.add_argument("--out", dest="outfile", required=True)
    p_enc.add_argument("--format", choices=["f64", "csv"], default="csv")
    p_enc.add_argument("--seed", type=int, default=0)
    p_enc.set_defaults(func=cmd_encode)

    p_dec = sub.add_parser("decode", help="decode LLRs or received symbols to bits")
    _add_code_args(p_dec)
    p_dec.add_argument("--in", dest="infile", required=True)
    p_dec.add_argument("--out", dest="outfile", required=True)
    p_dec.add_argument("--format", choices=["f64", "csv"], default="csv")
    p_dec.add_argument("--seed", type=int, default=0)
    p_dec.set_defaults(func=cmd_decode)

    p_sim = sub.add_parser("simulate", help="Monte-Carlo BER/BLER estimation")
    _add_code_args(p_sim)
    _add_channel_args(p_sim)
    p_sim.add_argument("--snr", required=True, help="dB value or lo:step:hi")
    p_sim.add_argument("--blocks", type=positive_int, default=10000)
    p_sim.add_argument("--min-block-errors", dest="min_block_errors",
                       type=nonnegative_int, default=100)
    p_sim.add_argument("--max-blocks", dest="max_blocks", type=positive_int)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--threads", type=positive_int, default=default_threads())
    p_sim.add_argument("--json", action="store_true")
    p_sim.add_argument("--out")
    p_sim.set_defaults(func=cmd_simulate)

    p_train = sub.add_parser("train", help="train a KO model")
    p_train.add_argument("--code", default="ko", choices=["ko"])
    p_train.add_argument("--m", type=int)
    p_train.add_argument("--r", type=int)
    p_train.add_argument("--polar", nargs=2, type=int, metavar=("N", "K"))
    p_train.add_argument("--design-z0", dest="design_z0", type=float, default=0.5)
    p_train.add_argument("--profile", default="standard",
                         choices=["standard", "tiny"])
    p_train.add_argument("--config", help="JSON file mirroring TrainConfig fields")
    p_train.add_argument("--channel", default="awgn",
                         choices=["awgn", "rayleigh", "bursty"])
    p_train.add_argument("--init-checkpoint", dest="init_checkpoint")
    p_train.add_argument("--checkpoint", required=True, help="output model path")
    p_train.add_argument("--log", help="per-step CSV log path")
    for field, typ in (("epochs", int), ("dec_steps", int), ("enc_steps", int),
                       ("snr_dec", float), ("snr_enc", float), ("lr_dec", float),
                       ("lr_enc", float), ("batch_size", int), ("seed", int),
                       ("clip_norm", float)):
        p_train.add_argument(f"--{field.replace('_', '-')}", dest=field, type=typ)
    p_train.add_argument("--mode", choices=["alternating", "encoder_only_softmap"])
    p_train.set_defaults(func=cmd_train)

    p_an = sub.add_parser("analyze", help="code and decoder analyses")
    an_sub = p_an.add_subparsers(dest="analyze_command", required=True)

    p_pd = an_sub.add_parser("pairwise-distances",
                             help="histogram of codeword pairwise distances")
    _add_code_args(p_pd)
    p_pd.add_argument("--mode", choices=["exhaustive", "random"],
                      default="exhaustive")
    p_pd.add_argument("--bins", type=positive_int, default=100)
    p_pd.add_argument("--pairs", type=positive_int, default=100000)
    p_pd.add_argument("--seed", type=int, default=0)
    p_pd.add_argument("--json", action="store_true")
    p_pd.add_argument("--out")
    p_pd.set_defaults(func=cmd_analyze_pairwise)

    p_bd = an_sub.add_parser("bler-decomposition",
                             help="per-leaf first-error contributions")
    _add_code_args(p_bd)
    _add_channel_args(p_bd)
    p_bd.add_argument("--snr", dest="snr_value", type=float, required=True)
    p_bd.add_argument("--blocks", type=positive_int, default=10000)
    p_bd.add_argument("--seed", type=int, default=0)
    p_bd.add_argument("--json", action="store_true")
    p_bd.add_argument("--out")
    p_bd.set_defaults(func=cmd_analyze_bler)

    p_oc = an_sub.add_parser("opcount", help="scalar operations per decode call")
    _add_code_args(p_oc)
    p_oc.add_argument("--snr", dest="snr_value", type=float, default=0.0)
    p_oc.add_argument("--seed", type=int, default=0)
    p_oc.add_argument("--json", action="store_true")
    p_oc.set_defaults(func=cmd_analyze_opcount)

    return parser


def _attach_snr_values(argv: list[str]) -> list[str]:
    """Rewrite `--snr -5:1:-3` as `--snr=-5:1:-3`: argparse takes a value
    that starts with a minus sign, and is not a plain number, for an option."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] == "--snr" and re.match(r"-[\d.]", tok):
            out[-1] = f"--snr={tok}"
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_snr_values(argv))
        return args.func(args, argv)
    except (UsageError, UnsupportedDecoder) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
