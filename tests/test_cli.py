import contextlib
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plotkinlab.cli import main, parse_snr_grid
from plotkinlab.codes import polar_spec


def run(args):
    return main(list(args))


class TestSnrGrid:
    def test_single_value(self):
        assert parse_snr_grid("-5") == [-5.0]

    def test_inclusive_range(self):
        assert parse_snr_grid("0:2:6") == [0.0, 2.0, 4.0, 6.0]

    def test_negative_range(self):
        assert parse_snr_grid("-10:2:4") == [-10.0, -8.0, -6.0, -4.0, -2.0,
                                             0.0, 2.0, 4.0]

    def test_bad_grid(self):
        from plotkinlab.cli import UsageError

        with pytest.raises(UsageError):
            parse_snr_grid("1:2")

    # Each of these once looped forever, growing the grid without bound,
    # or passed a NaN noise level on to the channel.
    @pytest.mark.parametrize("text", ["inf:1:inf", "-inf:1:0", "0:1e-300:1", "1e20:1:2e20",
                                      "0:inf:1", "0:nan:1", "nan", "inf", "-inf"])
    def test_non_finite_and_runaway_grids(self, text):
        from plotkinlab.cli import UsageError

        with pytest.raises(UsageError):
            parse_snr_grid(text)

    def test_point_limit(self):
        from plotkinlab.cli import MAX_SNR_POINTS, UsageError

        assert len(parse_snr_grid(f"1:1:{MAX_SNR_POINTS}")) == MAX_SNR_POINTS
        with pytest.raises(UsageError):
            parse_snr_grid(f"0:1:{MAX_SNR_POINTS}")

    def test_bad_grid_is_clean_usage_error(self, tmp_path):
        out = tmp_path / "sim.csv"
        status, err = run_captured(["simulate", "--code", "rm", "--m", "3", "--r", "1",
                                    "--snr", "nan", "--out", str(out)])
        assert status == 2
        assert_clean_failure(status, err, out)
        with pytest.raises(SystemExit) as exc:
            run(["analyze", "bler-decomposition", "--code", "rm", "--m", "3", "--r", "1",
                 "--snr", "nan", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()


class TestCodesInfo:
    def test_rm_8_2_values(self, capsys):
        assert run(["codes", "info", "--code", "rm", "--m", "8", "--r", "2"]) == 0
        out = capsys.readouterr().out
        assert "n=256" in out and "k=37" in out and "d=64" in out
        assert "rate=37/256" in out

    def test_polar_active_set(self, capsys):
        assert run(["codes", "info", "--code", "polar", "--n", "64", "--k", "7"]) == 0
        out = capsys.readouterr().out
        assert "[48, 56, 60, 61, 62, 63, 64]" in out

    def test_json_mode(self, capsys):
        assert run(["codes", "info", "--code", "rm", "--m", "3", "--r", "1",
                    "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 8 and doc["k"] == 4

    def test_missing_params_is_usage_error(self, capsys):
        assert run(["codes", "info", "--code", "rm"]) == 2

    def test_unknown_code_is_usage_error(self, capsys):
        assert run(["codes", "info", "--code", "gaussian", "--n", "8", "--k", "2"]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "gaussian" in err

    def test_leaves_in_decode_order(self, capsys):
        assert run(["codes", "info", "--code", "rm", "--m", "3", "--r", "1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == "leaves (decode order): RM(2,0), RM(1,0), RM(1,1)"


class TestSimulateCommand:
    def test_csv_has_one_row_per_snr(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = run(["simulate", "--code", "rm", "--m", "3", "--r", "1",
                    "--decoder", "dumer", "--channel", "awgn", "--snr", "0:2:6",
                    "--blocks", "2000", "--min-block-errors", "1",
                    "--seed", "7", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2 + 4  # provenance + header + 4 points

    def test_byte_identical_reruns(self, tmp_path):
        args = ["simulate", "--code", "rm", "--m", "3", "--r", "1",
                "--channel", "awgn", "--snr", "2", "--blocks", "1000",
                "--min-block-errors", "1", "--seed", "3"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes().replace(b"a.csv", b"") == b.read_bytes().replace(b"b.csv", b"")

    def test_grid_starting_with_minus_sign(self, tmp_path):
        args = ["simulate", "--code", "rm", "--m", "3", "--r", "1", "--blocks", "200",
                "--min-block-errors", "0", "--threads", "1", "--seed", "4"]
        spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
        assert run(args + ["--snr", "-5:1:-3", "--out", str(spaced)]) == 0
        assert run(args + ["--snr=-5:1:-3", "--out", str(joined)]) == 0
        spaced_lines = spaced.read_text().splitlines()
        assert "--snr -5:1:-3" in spaced_lines[0]
        assert [line.split(",")[0] for line in spaced_lines[2:]] == ["-5.0", "-4.0", "-3.0"]
        assert spaced_lines[1:] == joined.read_text().splitlines()[1:]

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            run(["simulate", "--code", "rm", "--m", "3", "--r", "1",
                 "--snr", "0", "--frobnicate"])
        assert err.value.code == 2


class TestEncodeDecodeCommands:
    def test_rm_round_trip_via_files(self, tmp_path):
        bits = tmp_path / "bits.txt"
        bits.write_text("1011\n0000\n1111\n")
        symbols = tmp_path / "sym.csv"
        assert run(["encode", "--code", "rm", "--m", "3", "--r", "1",
                    "--in", str(bits), "--out", str(symbols)]) == 0
        decoded = tmp_path / "dec.txt"
        # noiseless symbols scale to LLRs without changing decisions
        assert run(["decode", "--code", "rm", "--m", "3", "--r", "1",
                    "--decoder", "dumer", "--in", str(symbols),
                    "--out", str(decoded)]) == 0
        got = [line for line in decoded.read_text().splitlines()
               if not line.startswith("#")]
        assert got == ["1011", "0000", "1111"]

    def test_f64_format_round_trip(self, tmp_path):
        bits = tmp_path / "bits.txt"
        bits.write_text("11\n01\n")
        raw = tmp_path / "sym.f64"
        assert run(["encode", "--code", "rm", "--m", "1", "--r", "1",
                    "--in", str(bits), "--out", str(raw), "--format", "f64"]) == 0
        flat = np.fromfile(raw, dtype="<f8")
        assert flat.shape == (4,)
        decoded = tmp_path / "dec.txt"
        assert run(["decode", "--code", "rm", "--m", "1", "--r", "1",
                    "--decoder", "map", "--in", str(raw), "--out", str(decoded),
                    "--format", "f64"]) == 0
        got = [line for line in decoded.read_text().splitlines()
               if not line.startswith("#")]
        assert got == ["11", "01"]

    def test_ko_checkpoint_round_trip(self, tmp_path):
        from plotkinlab.codes import build_rm_tree
        from plotkinlab.ko import build_ko_model, save_checkpoint

        tree = build_rm_tree(3, 1)
        model = build_ko_model(tree, {"family": "rm", "m": 3, "r": 1}, "tiny",
                               seed=1, init="zeros")
        ckpt = tmp_path / "model.json"
        save_checkpoint(model, ckpt)
        bits = tmp_path / "bits.txt"
        bits.write_text("1010\n")
        symbols = tmp_path / "sym.csv"
        assert run(["encode", "--code", "ko", "--checkpoint", str(ckpt),
                    "--in", str(bits), "--out", str(symbols)]) == 0
        decoded = tmp_path / "dec.txt"
        assert run(["decode", "--code", "ko", "--checkpoint", str(ckpt),
                    "--in", str(symbols), "--out", str(decoded)]) == 0
        got = [line for line in decoded.read_text().splitlines()
               if not line.startswith("#")]
        assert got == ["1010"]

    def test_bad_bits_line_is_usage_error_without_output(self, tmp_path, capsys):
        bits = tmp_path / "bits.txt"
        bits.write_text("10x1\n")
        out = tmp_path / "sym.csv"
        assert run(["encode", "--code", "rm", "--m", "3", "--r", "1",
                    "--in", str(bits), "--out", str(out)]) == 2
        assert not out.exists()

    def test_missing_input_file_is_runtime_error(self, tmp_path):
        out = tmp_path / "sym.csv"
        assert run(["encode", "--code", "rm", "--m", "3", "--r", "1",
                    "--in", str(tmp_path / "nope.txt"), "--out", str(out)]) == 1
        assert not out.exists()


class TestTrainCommand:
    def test_train_writes_checkpoint_and_log(self, tmp_path, capsys):
        ckpt = tmp_path / "ko31.json"
        log = tmp_path / "log.csv"
        code = run(["train", "--m", "3", "--r", "1", "--profile", "tiny",
                    "--epochs", "1", "--dec-steps", "2", "--enc-steps", "1",
                    "--snr-dec", "0", "--snr-enc", "0", "--batch-size", "32",
                    "--seed", "5", "--checkpoint", str(ckpt), "--log", str(log)])
        assert code == 0
        assert ckpt.exists()
        assert log.read_text().splitlines()[0] == "phase,epoch,step,loss,grad_norm"
        assert run(["codes", "info", "--code", "ko", "--checkpoint",
                    str(ckpt)]) == 0

    def test_train_polar_variant(self, tmp_path):
        ckpt = tmp_path / "kopolar.json"
        assert run(["train", "--code", "polar", "--n", "16", "--k", "5", "--profile", "tiny",
                    "--epochs", "1", "--dec-steps", "1", "--enc-steps", "1",
                    "--snr-dec", "0", "--snr-enc", "0", "--batch-size", "16",
                    "--seed", "3", "--checkpoint", str(ckpt)]) == 0
        from plotkinlab.ko import load_checkpoint

        model = load_checkpoint(ckpt)
        assert model.neuralize == "all_but_root"
        assert model.tree.root.node_id not in model.enc

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"epochs": 1, "dec_steps": 1, "enc_steps": 0,
                                   "snr_dec": 0.0, "snr_enc": 0.0,
                                   "batch_size": 16, "seed": 9}))
        ckpt = tmp_path / "m.json"
        assert run(["train", "--m", "3", "--r", "1", "--profile", "tiny",
                    "--config", str(cfg), "--batch-size", "8",
                    "--checkpoint", str(ckpt)]) == 0
        assert ckpt.exists()

    @pytest.mark.parametrize("doc", ['{"epochs": 1, "bogus": 2}', "[1, 2]", '{"epochs": "x"}',
                                     '{"seed": 1.5}', '{"epochs": true}', '{"snr_dec": NaN}',
                                     '{"snr_enc": -Infinity}', '{"lr_enc": Infinity}',
                                     '{"clip_norm": NaN}', '{"lr_dec": -1}'])
    def test_bad_config_is_usage_error(self, tmp_path, doc):
        cfg = tmp_path / "train.json"
        cfg.write_text(doc)
        ckpt = tmp_path / "m.json"
        status, err = run_captured(["train", "--m", "3", "--r", "1", "--profile", "tiny",
                                    "--dec-steps", "0", "--enc-steps", "0",
                                    "--config", str(cfg), "--checkpoint", str(ckpt)])
        assert status == 2
        assert_clean_failure(status, err, ckpt)

    def test_diverged_training_is_runtime_error(self, tmp_path):
        # the first Adam step moves every weight by about the learning rate,
        # so at 1e300 the next forward pass overflows
        ckpt = tmp_path / "m.json"
        argv = ["train", "--m", "2", "--r", "1", "--profile", "tiny", "--epochs", "1",
                "--dec-steps", "2", "--enc-steps", "0", "--batch-size", "4",
                "--lr-dec", "1e300", "--checkpoint", str(ckpt)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status, err = run_captured(argv)
        assert status == 1 and "non-finite loss" in err
        assert_clean_failure(status, err, ckpt)

    def test_non_finite_flag_is_usage_error(self, tmp_path):
        ckpt = tmp_path / "m.json"
        with pytest.raises(SystemExit) as exc:
            run(["train", "--m", "2", "--r", "1", "--profile", "tiny", "--epochs", "1",
                 "--snr-dec", "nan", "--checkpoint", str(ckpt)])
        assert exc.value.code == 2
        assert not ckpt.exists()

    def test_config_null_leaves_the_default(self, tmp_path):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"epochs": 1, "dec_steps": 1, "enc_steps": 0, "lr_dec": 1,
                                   "batch_size": 4, "snr_dec": None, "clip_norm": None}))
        assert run(["train", "--m", "2", "--r", "1", "--profile", "tiny",
                    "--config", str(cfg), "--checkpoint", str(tmp_path / "m.json")]) == 0


class TestAnalyzeCommands:
    def test_bler_decomposition_sums(self, tmp_path, capsys):
        import csv

        out_csv = tmp_path / "bler.csv"
        assert run(["analyze", "bler-decomposition", "--code", "rm", "--m", "4",
                    "--r", "2", "--snr", "-2", "--blocks", "3000",
                    "--seed", "1", "--out", str(out_csv)]) == 0
        out = capsys.readouterr().out.splitlines()
        rows = [line.split() for line in out[1:]]
        leaf_counts = [int(r[1]) for r in rows[:-1]]
        assert sum(leaf_counts) == int(rows[-1][1])
        with open(out_csv) as fh:
            parsed = list(csv.reader(line for line in fh
                                     if not line.startswith("#")))
        assert parsed[0] == ["leaf", "first_error_blocks", "fraction"]
        for label, blocks, fraction in parsed[1:]:
            assert int(blocks) >= 0 and 0.0 <= float(fraction) <= 1.0

    def test_bler_decomposition_json_also_writes_out(self, tmp_path, capsys):
        import csv

        out_csv = tmp_path / "bler.csv"
        assert run(["analyze", "bler-decomposition", "--code", "rm", "--m", "4",
                    "--r", "2", "--snr", "-2", "--blocks", "500", "--json",
                    "--out", str(out_csv)]) == 0
        contribs = json.loads(capsys.readouterr().out)["contributions"]
        lines = out_csv.read_text().splitlines()
        assert lines[0].startswith("# ")
        rows = list(csv.reader(lines[1:]))
        assert rows[0] == ["leaf", "first_error_blocks", "fraction"]
        assert rows[1:] == [[c["label"], str(c["first_error_blocks"]), repr(c["fraction"])]
                            for c in contribs]

    @pytest.mark.parametrize("code", [
        ["rm", "--m", "5", "--r", "1", "--decoder", "map"],
        ["rm", "--m", "5", "--r", "1", "--decoder", "fht-map"],
        ["polar", "--n", "64", "--k", "7", "--decoder", "map"],
    ], ids=["rm51-map", "rm51-fht-map", "polar64-map"])
    def test_bler_decomposition_needs_a_leaf_decoder(self, tmp_path, capsys, code):
        out = tmp_path / "bler.csv"
        assert run(["analyze", "bler-decomposition", "--code", *code, "--snr", "0",
                    "--blocks", "100", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and code[-1] in err
        assert not out.exists()

    def test_pairwise_distances(self, tmp_path, capsys):
        out = tmp_path / "h.csv"
        assert run(["analyze", "pairwise-distances", "--code", "rm", "--m", "3",
                    "--r", "1", "--out", str(out)]) == 0
        assert "mean_distance" in capsys.readouterr().out
        assert out.read_text().splitlines()[1] == "bin_lo,bin_hi,count,normalized"

    def test_gaussian_codebook_mode(self, capsys):
        assert run(["analyze", "pairwise-distances", "--code", "gaussian",
                    "--n", "64", "--k", "7", "--seed", "3"]) == 0
        mean = float(capsys.readouterr().out.split("mean_distance=")[1])
        assert abs(mean - np.sqrt(128)) <= 0.05 * np.sqrt(128)

    def test_opcount_json(self, capsys):
        assert run(["analyze", "opcount", "--code", "rm", "--m", "3", "--r", "1",
                    "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total"] == doc["adds"] + doc["muls"] + doc["comparisons"] + doc["exp_logs"]

    @pytest.mark.parametrize("code,total", [
        (["rm", "--m", "5", "--r", "1", "--decoder", "map"], 4095),
        (["rm", "--m", "5", "--r", "1", "--decoder", "fht-map"], 287),
        (["polar", "--n", "64", "--k", "7", "--decoder", "map"], 16383),
    ], ids=["rm51-map", "rm51-fht-map", "polar64-map"])
    def test_opcount_whole_code_map_decoders(self, capsys, code, total):
        assert run(["analyze", "opcount", "--code", *code, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["total"] == total


def data_rows(path):
    return [line for line in path.read_text().splitlines()
            if not line.startswith("#")]


class TestDecoderDispatch:
    def test_ko_binarized_encode_writes_kob_rows(self, tmp_path):
        from plotkinlab.codes import build_rm_tree
        from plotkinlab.ko import binarize_kob, build_ko_model, ko_encode, save_checkpoint

        model = build_ko_model(build_rm_tree(3, 1), {"family": "rm", "m": 3, "r": 1},
                               "tiny", seed=4)
        ckpt = tmp_path / "model.json"
        save_checkpoint(model, ckpt)
        bits = tmp_path / "bits.txt"
        bits.write_text("1010\n0111\n")
        out = tmp_path / "sym.csv"
        assert run(["encode", "--code", "ko", "--checkpoint", str(ckpt),
                    "--binarized", "--in", str(bits), "--out", str(out)]) == 0
        got = np.array([[float(v) for v in row.split(",")] for row in data_rows(out)])
        msgs = np.array([[1, 0, 1, 0], [0, 1, 1, 1]], dtype=np.uint8)
        assert np.array_equal(got, binarize_kob(model, msgs))
        assert not np.array_equal(got, ko_encode(model, msgs))

    def test_polar_map_decode_is_exhaustive_map(self, tmp_path):
        from plotkinlab.bits import bpsk
        from plotkinlab.channel import channel_llr
        from plotkinlab.codes import build_polar_tree, enumerate_codebook, tree_encode
        from plotkinlab.decoding import dumer_decode, map_decode

        tree = build_polar_tree(polar_spec(64, 7))
        rng = np.random.default_rng(11)
        msgs = rng.integers(0, 2, size=(300, 7), dtype=np.uint8)
        y = bpsk(tree_encode(tree, msgs)) + 2.0 * rng.standard_normal((300, 64))
        llrs = channel_llr(y, 2.0)
        src = tmp_path / "llrs.f64"
        llrs.astype("<f8").tofile(src)
        out = tmp_path / "dec.txt"
        assert run(["decode", "--code", "polar", "--n", "64", "--k", "7",
                    "--decoder", "map", "--format", "f64", "--in", str(src),
                    "--out", str(out)]) == 0
        got = np.array([[int(c) for c in row] for row in data_rows(out)])
        want, _ = map_decode(enumerate_codebook(tree), llrs)
        assert np.array_equal(got, want)
        assert not np.array_equal(got, dumer_decode(tree, llrs).message)

    def test_rm_dumer_soft_decode(self, tmp_path):
        from plotkinlab.codes import build_rm_tree
        from plotkinlab.decoding import dumer_decode

        llrs = np.random.default_rng(2).standard_normal((40, 16)) * 2.0
        src = tmp_path / "llrs.f64"
        llrs.astype("<f8").tofile(src)
        out = tmp_path / "dec.txt"
        assert run(["decode", "--code", "rm", "--m", "4", "--r", "2",
                    "--decoder", "dumer-soft", "--format", "f64",
                    "--in", str(src), "--out", str(out)]) == 0
        got = np.array([[int(c) for c in row] for row in data_rows(out)])
        want = dumer_decode(build_rm_tree(4, 2), llrs, "soft").message
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("code, decoder", [
        (["--code", "rm", "--m", "3", "--r", "1"], "sc"),
        (["--code", "rm", "--m", "3", "--r", "2"], "fht-map"),
        (["--code", "polar", "--n", "8", "--k", "4"], "dumer"),
        (["--code", "polar", "--n", "8", "--k", "4"], "dumer-soft"),
    ])
    def test_unsupported_decoder_is_usage_error(self, tmp_path, capsys, code, decoder):
        src = tmp_path / "llrs.csv"
        src.write_text(",".join(["1.0"] * 8) + "\n")
        for argv, out in (
            (["decode", *code, "--decoder", decoder, "--in", str(src)], "dec.txt"),
            (["simulate", *code, "--decoder", decoder, "--snr", "0",
              "--blocks", "10"], "sim.csv"),
        ):
            capsys.readouterr()
            assert run(argv + ["--out", str(tmp_path / out)]) == 2
            err = capsys.readouterr().err
            assert len(err.strip().splitlines()) == 1 and decoder in err
            assert not (tmp_path / out).exists()

    def test_ko_rejects_classical_decoder(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        assert run(["simulate", "--code", "ko", "--checkpoint", "unused.json",
                    "--decoder", "dumer", "--snr", "0", "--out", str(out)]) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not out.exists()


class TestNumericBoundaries:
    @pytest.mark.parametrize("flag, value", [
        ("--blocks", "0"), ("--threads", "0"), ("--threads", "-3"),
        ("--max-blocks", "0"), ("--min-block-errors", "-1"), ("--blocks", "x"),
    ])
    def test_simulate_rejects(self, tmp_path, flag, value):
        out = tmp_path / "sim.csv"
        with pytest.raises(SystemExit) as err:
            run(["simulate", "--code", "rm", "--m", "3", "--r", "1", "--snr", "0",
                 f"{flag}={value}", "--out", str(out)])
        assert err.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["pairwise-distances", "--bins", "0"],
        ["pairwise-distances", "--mode", "random", "--pairs", "0"],
        ["bler-decomposition", "--snr", "0", "--blocks", "0"],
    ])
    def test_analyze_rejects(self, tmp_path, argv):
        out = tmp_path / "a.csv"
        with pytest.raises(SystemExit) as err:
            run(["analyze", argv[0], "--code", "rm", "--m", "3", "--r", "1",
                 *argv[1:], "--out", str(out)])
        assert err.value.code == 2
        assert not out.exists()

    def test_bad_thread_variable_is_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PLOTKINLAB_THREADS", "abc")
        out = tmp_path / "sim.csv"
        status, err = run_captured(["simulate", "--code", "rm", "--m", "3", "--r", "1",
                                    "--snr", "0", "--blocks", "10", "--out", str(out)])
        assert status == 2 and "PLOTKINLAB_THREADS" in err
        assert_clean_failure(status, err, out)

    def test_zero_min_block_errors_accepted(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert run(["simulate", "--code", "rm", "--m", "3", "--r", "1",
                    "--snr", "0", "--blocks", "10", "--min-block-errors", "0",
                    "--threads", "1", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[2].split(",")[1] == "10"

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_csv_input(self, tmp_path, capsys, bad):
        src = tmp_path / "llrs.csv"
        src.write_text(f"1.0,-2.0,0.5,{bad},1.0,1.0,1.0,1.0\n")
        out = tmp_path / "dec.txt"
        assert run(["decode", "--code", "rm", "--m", "3", "--r", "1",
                    "--in", str(src), "--out", str(out)]) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not out.exists()

    def test_non_numeric_csv_input(self, tmp_path, capsys):
        src = tmp_path / "llrs.csv"
        src.write_text("# header\n1.0,abc,0.5,1.0,1.0,1.0,1.0,1.0\n")
        out = tmp_path / "dec.txt"
        assert run(["decode", "--code", "rm", "--m", "3", "--r", "1",
                    "--in", str(src), "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "llrs.csv:2" in err[0]
        assert not out.exists()

    def test_non_finite_f64_input(self, tmp_path):
        src = tmp_path / "llrs.f64"
        np.array([1.0, np.nan, 1.0, 1.0], dtype="<f8").tofile(src)
        out = tmp_path / "dec.txt"
        assert run(["decode", "--code", "rm", "--m", "2", "--r", "1",
                    "--format", "f64", "--in", str(src), "--out", str(out)]) == 2
        assert not out.exists()


class TestBadCheckpoints:
    @pytest.mark.parametrize("doc", ["[1, 2]", '{"format_version": 1}'])
    def test_malformed_checkpoint_exits_1(self, tmp_path, capsys, doc):
        ckpt = tmp_path / "bad.json"
        ckpt.write_text(doc)
        assert run(["codes", "info", "--code", "ko", "--checkpoint", str(ckpt)]) == 1
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    @pytest.mark.parametrize("field", ["code", "weights"])
    def test_malformed_nested_field_exits_1(self, tmp_path, capsys, field):
        from plotkinlab.codes import build_rm_tree
        from plotkinlab.ko import build_ko_model, save_checkpoint

        model = build_ko_model(build_rm_tree(3, 1), {"family": "rm", "m": 3, "r": 1},
                               "tiny", seed=1)
        if field == "code":
            model.code = {"family": "rm"}
        else:
            model.enc[model.neural_ids()[0]].weights[0][0, 0] = np.nan
        ckpt = tmp_path / "bad.json"
        save_checkpoint(model, ckpt)
        assert run(["codes", "info", "--code", "ko", "--checkpoint", str(ckpt)]) == 1
        assert len(capsys.readouterr().err.strip().splitlines()) == 1


class TestBurstFlagsInBlerDecomposition:
    def test_burst_flags_change_the_result(self, capsys):
        outs = []
        for prob in ("0.01", "0.9"):
            assert run(["analyze", "bler-decomposition", "--code", "rm", "--m", "4",
                        "--r", "2", "--channel", "bursty", "--snr", "4",
                        "--blocks", "2000", "--burst-prob", prob,
                        "--burst-sigma-mult", "20", "--json"]) == 0
            outs.append(json.loads(capsys.readouterr().out)["bler"])
        assert outs[1] > outs[0] + 0.5


def run_captured(argv):
    """main(argv) with its stderr captured: (exit status, stderr text)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        status = main(list(argv))
    return status, err.getvalue()


def assert_clean_failure(status, err, out):
    assert status in (1, 2), err
    assert err.count("\n") == 1 and err.endswith("\n"), err
    assert "Traceback" not in err
    assert not out.exists()


class TestCodeSizeLimit:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--code", "rm", "--m", "30", "--r", "15", "--snr", "0", "--out", "OUT"],
        ["simulate", "--code", "polar", "--n", str(1 << 30), "--k", "7", "--snr", "0",
         "--out", "OUT"],
        ["analyze", "bler-decomposition", "--code", "rm", "--m", "11", "--r", "1",
         "--snr", "0", "--out", "OUT"],
        ["codes", "info", "--code", "rm", "--m", "30", "--r", "15"],
        ["codes", "info", "--code", "polar", "--n", "2048", "--k", "7"],
        ["train", "--m", "30", "--r", "15", "--checkpoint", "OUT"],
        ["train", "--code", "polar", "--n", "4096", "--k", "7", "--checkpoint", "OUT"],
    ], ids=["simulate-rm", "simulate-polar", "bler-rm", "info-rm", "info-polar",
            "train-rm", "train-polar"])
    def test_oversized_code_is_usage_error(self, tmp_path, argv):
        out = tmp_path / "out"
        status, err = run_captured([str(out) if a == "OUT" else a for a in argv])
        assert status == 2
        assert_clean_failure(status, err, out)

    @pytest.mark.parametrize("code", [["rm", "--m", "6", "--r", "5"],
                                      ["polar", "--n", "32", "--k", "32"]],
                             ids=["rm6_5", "polar32_32"])
    def test_oversized_full_rate_leaf(self, tmp_path, code):
        # the RM(5,5) leaf has 32 message bits, beyond any codebook; the
        # code still encodes and describes itself, but does not decode
        out = tmp_path / "sim.csv"
        status, err = run_captured(["simulate", "--code", *code, "--snr", "0",
                                    "--blocks", "10", "--out", str(out)])
        assert_clean_failure(status, err, out)
        assert "RM(5,5)" in err
        bits = tmp_path / "bits.txt"
        bits.write_text("1" * (63 if code[0] == "rm" else 32) + "\n")
        assert run(["codes", "info", "--code", *code]) == 0
        assert run(["encode", "--code", *code, "--in", str(bits),
                    "--out", str(tmp_path / "sym.csv")]) == 0

    def test_oversized_checkpoint_exits_1(self, tmp_path):
        from plotkinlab.codes import build_rm_tree
        from plotkinlab.ko import build_ko_model, save_checkpoint

        ckpt = tmp_path / "big.json"
        save_checkpoint(build_ko_model(build_rm_tree(3, 1), {"family": "rm", "m": 3, "r": 1},
                                       "tiny", seed=1), ckpt)
        doc = json.loads(ckpt.read_text())
        doc["code"] = {"family": "rm", "m": 30, "r": 15}
        ckpt.write_text(json.dumps(doc))
        out = tmp_path / "sim.csv"
        status, err = run_captured(["simulate", "--code", "ko", "--checkpoint", str(ckpt),
                                    "--snr", "0", "--out", str(out)])
        assert status == 1
        assert_clean_failure(status, err, out)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=8)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    from plotkinlab.codes import build_rm_tree
    from plotkinlab.ko import build_ko_model, save_checkpoint

    path = tmp_path_factory.mktemp("fuzz")
    save_checkpoint(build_ko_model(build_rm_tree(3, 1), {"family": "rm", "m": 3, "r": 1},
                                   "tiny", seed=1), path / "base.json")
    (path / "msgs.txt").write_text("0110\n1011\n")
    return path


def mutate(data, doc):
    """doc with one randomly chosen nested value replaced or deleted."""
    parent, key = None, None
    node = doc
    while isinstance(node, (dict, list)) and node and (
            parent is None or data.draw(st.booleans())):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, data.draw(st.sampled_from(list(keys)))
        node = parent[key]
    if isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = data.draw(JSON_VALUES)
    return doc


class TestFuzzedInputs:
    """Any input file either works or fails with one line and no output."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_mutated_checkpoint(self, fuzz_dir, data):
        doc = mutate(data, json.loads((fuzz_dir / "base.json").read_text()))
        text = json.dumps(doc)
        if data.draw(st.booleans()):
            text = text[:data.draw(st.integers(0, len(text) - 1))]
        ckpt, out = fuzz_dir / "ckpt.json", fuzz_dir / "enc.csv"
        ckpt.write_text(text)
        out.unlink(missing_ok=True)
        status, err = run_captured(["encode", "--code", "ko", "--checkpoint", str(ckpt),
                                    "--in", str(fuzz_dir / "msgs.txt"), "--out", str(out)])
        if status == 0:
            assert err == "" and out.exists()
        else:
            assert_clean_failure(status, err, out)

    @pytest.mark.parametrize("raw", [b"[" * 100000 + b"]" * 100000, b"\xff\xfe{}"],
                             ids=["deeply-nested", "not-utf8"])
    def test_unreadable_checkpoint(self, fuzz_dir, raw):
        ckpt, out = fuzz_dir / "unreadable.json", fuzz_dir / "enc.csv"
        ckpt.write_bytes(raw)
        out.unlink(missing_ok=True)
        status, err = run_captured(["encode", "--code", "ko", "--checkpoint", str(ckpt),
                                    "--in", str(fuzz_dir / "msgs.txt"), "--out", str(out)])
        assert status == 1 and "cannot read checkpoint" in err
        assert_clean_failure(status, err, out)

    @given(st.text(alphabet=st.sampled_from("0123456789.,-+eEinfaINF# \t\n\r") | st.characters(),
                   max_size=200))
    @settings(max_examples=150, deadline=None)
    def test_fuzzed_csv_llrs(self, fuzz_dir, text):
        src, out = fuzz_dir / "llrs.csv", fuzz_dir / "dec.txt"
        src.write_bytes(text.encode("utf-8", "surrogatepass"))
        out.unlink(missing_ok=True)
        status, err = run_captured(["decode", "--code", "rm", "--m", "2", "--r", "1",
                                    "--in", str(src), "--out", str(out)])
        if status == 0:
            assert err == "" and out.exists()
        else:
            assert_clean_failure(status, err, out)

    @given(st.text(alphabet=st.sampled_from("01# \t\n\r") | st.characters(), max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_fuzzed_message_bits(self, fuzz_dir, text):
        src, out = fuzz_dir / "msgs.bits", fuzz_dir / "enc.csv"
        src.write_bytes(text.encode("utf-8", "surrogatepass"))
        out.unlink(missing_ok=True)
        status, err = run_captured(["encode", "--code", "rm", "--m", "2", "--r", "1",
                                    "--in", str(src), "--out", str(out)])
        if status == 0:
            assert err == "" and out.exists()
        else:
            assert_clean_failure(status, err, out)

    @given(st.binary(max_size=200) | st.tuples(
        st.lists(st.floats(), max_size=24), st.binary(max_size=9)).map(
        lambda parts: np.array(parts[0], dtype="<f8").tobytes() + parts[1]))
    @settings(max_examples=150, deadline=None)
    def test_fuzzed_f64_llrs(self, fuzz_dir, raw):
        src, out = fuzz_dir / "llrs.f64", fuzz_dir / "dec.txt"
        src.write_bytes(raw)
        out.unlink(missing_ok=True)
        status, err = run_captured(["decode", "--code", "rm", "--m", "2", "--r", "1",
                                    "--format", "f64", "--in", str(src), "--out", str(out)])
        values = np.frombuffer(raw[:len(raw) // 8 * 8], dtype="<f8")
        if raw and len(raw) % 32 == 0 and np.isfinite(values).all():
            assert status == 0 and err == "" and out.exists()
        else:
            assert status == 2
            assert_clean_failure(status, err, out)
