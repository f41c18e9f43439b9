"""End-to-end command line checks, run in process via main(argv)."""

import logging
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from satkit.cli import main
from satkit.data import write_feats

MODEL_FLAGS = ["--feature-dim", "4", "--vocab-size", "7", "--d-m", "8",
               "--n-heads", "2", "--d-ff", "16", "--n-enc-blocks", "1",
               "--n-pred-blocks", "1", "--d-joint", "8", "--dropout", "0.0"]


def gen_args(out, seed=3):
    return ["gen-data", "--task", "delayed-copy", "--vocab-size", "4",
            "--feature-dim", "4", "--min-tokens", "2", "--max-tokens", "4",
            "--noise", "0.2", "--seed", str(seed), "--n-train", "12",
            "--n-dev", "4", "--n-test", "4", "--out", str(out)]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "data"
    assert main(gen_args(out)) == 0
    return out


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("cli") / "run"
    code = main(["train", "--data", str(data_dir), "--out", str(out),
                 *MODEL_FLAGS, "--epochs", "2", "--batch-size", "4",
                 "--lr", "0.05", "--seed", "0"])
    assert code == 0
    return out


def tree_bytes(root):
    out = {}
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = path.read_bytes()
    return out


def test_gen_data_is_byte_identical(tmp_path, data_dir):
    other = tmp_path / "again"
    assert main(gen_args(other)) == 0
    assert tree_bytes(other) == tree_bytes(data_dir)
    different = tmp_path / "seed9"
    assert main(gen_args(different, seed=9)) == 0
    assert tree_bytes(different) != tree_bytes(other)


@pytest.mark.parametrize("flag", ["--n-train", "--n-dev", "--n-test"])
def test_gen_data_rejects_a_negative_count_and_leaves_no_directory(tmp_path, capsys,
                                                                     flag):
    out = tmp_path / "data"
    args = gen_args(out)
    args[args.index(flag) + 1] = "-2"
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert flag in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["inf", "nan", "-0.5", "1e39"])
def test_gen_data_rejects_noise_no_features_can_hold(tmp_path, capsys, value):
    out = tmp_path / "data"
    args = gen_args(out)
    args[args.index("--noise") + 1] = value
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "noise" in err
    assert not out.exists()


def test_train_outputs(run_dir, capsys):
    for name in ("last.ckpt", "best.ckpt", "model.config", "metrics.csv"):
        assert (run_dir / name).exists(), name
    lines = (run_dir / "metrics.csv").read_text().splitlines()
    assert lines[0].startswith("step,lr,")
    assert len(lines) > 2


def test_train_rejects_config_data_conflicts(tmp_path, data_dir, capsys):
    flags = list(MODEL_FLAGS)
    flags[flags.index("7")] = "9"  # vocab-size that contradicts vocab.txt
    code = main(["train", "--data", str(data_dir), "--out",
                 str(tmp_path / "x"), *flags, "--epochs", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "vocab_size" in err


def test_train_rejects_a_non_finite_beta(tmp_path, data_dir, capsys):
    for beta in ("nan", "inf", "-1"):
        code = main(["train", "--data", str(data_dir), "--out", str(tmp_path / beta),
                     *MODEL_FLAGS, "--epochs", "1", "--beta", beta])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "finite and non-negative" in err


@pytest.mark.parametrize("flag,value", [("--beta", "nan"), ("--epochs", "0"),
                                        ("--warmup-steps", "0"), ("--dropout", "1.0"),
                                        ("--lr", "nan"), ("--momentum", "1.5"),
                                        ("--lr-factor", "0"), ("--n-heads", "0"),
                                        ("--d-m", "0"), ("--d-joint", "0")])
def test_rejected_train_config_leaves_no_directory(tmp_path, data_dir, capsys,
                                                   flag, value):
    out = tmp_path / "run"
    code = main(["train", "--data", str(data_dir), "--out", str(out),
                 *MODEL_FLAGS, "--epochs", "1", flag, value])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert not out.exists()


def test_model_config_with_a_stacking_no_stacker_can_run(tmp_path, data_dir, capsys):
    config = tmp_path / "model.config"
    config.write_text("factor = 0\n")
    out = tmp_path / "run"
    code = main(["train", "--data", str(data_dir), "--out", str(out),
                 "--model-config", str(config), *MODEL_FLAGS, "--epochs", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "factor" in err
    assert not out.exists()


@pytest.mark.parametrize("line,key", [("d_m = abc", "d_m"), ("chunk_left = abc", "chunk_left")])
def test_a_bad_config_file_value_names_the_file_and_key(tmp_path, data_dir, capsys,
                                                        line, key):
    config = tmp_path / "model.config"
    config.write_text(f"{line}\n")
    out = tmp_path / "run"
    code = main(["train", "--data", str(data_dir), "--out", str(out),
                 "--model-config", str(config), "--epochs", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: ") and err.count("\n") == 1, err
    assert key in err
    assert not out.exists()


@pytest.mark.parametrize("case", ["missing resume checkpoint", "beta without alignments"])
def test_rejected_resume_or_alignments_leave_no_directory(tmp_path, data_dir, capsys, case):
    if case == "missing resume checkpoint":
        flags = ["--data", str(data_dir), "--resume", str(tmp_path / "missing.ckpt")]
    else:
        no_align = tmp_path / "no-align"
        shutil.copytree(data_dir, no_align)
        (no_align / "train" / "align").unlink()
        flags = ["--data", str(no_align), *MODEL_FLAGS, "--epochs", "1", "--beta", "1"]
    out = tmp_path / "run"
    assert main(["train", "--out", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert not out.exists()


def test_train_rejects_an_empty_split(tmp_path, capsys):
    for split in ("train", "dev"):
        data = tmp_path / f"no-{split}"
        args = gen_args(data)
        args[args.index(f"--n-{split}") + 1] = "0"
        assert main(args) == 0
        out = tmp_path / f"run-{split}"
        code = main(["train", "--data", str(data), "--out", str(out),
                     *MODEL_FLAGS, "--epochs", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{split} split" in err
        assert not out.exists()


def test_decode_offline_and_determinism(run_dir, data_dir, tmp_path, capsys):
    hyp1 = tmp_path / "hyp1.txt"
    args = ["decode", "--checkpoint", str(run_dir / "best.ckpt"), "--data",
            str(data_dir), "--split", "dev", "--beam-width", "2"]
    assert main(args + ["--out", str(hyp1)]) == 0
    out = capsys.readouterr().out
    assert "corpus CER" in out
    hyp2 = tmp_path / "hyp2.txt"
    assert main(args + ["--out", str(hyp2)]) == 0
    assert hyp1.read_bytes() == hyp2.read_bytes()
    ids = [line.split()[0] for line in hyp1.read_text().splitlines()]
    assert ids == sorted(ids) and len(ids) == 4


def test_decode_nbest_file(run_dir, data_dir, tmp_path):
    hyp = tmp_path / "hyp.txt"
    assert main(["decode", "--checkpoint", str(run_dir / "best.ckpt"),
                 "--data", str(data_dir), "--split", "dev", "--beam-width",
                 "3", "--nbest", "3", "--out", str(hyp)]) == 0
    lines = (tmp_path / "hyp.txt.nbest").read_text().splitlines()
    assert lines
    for line in lines:
        utt, rank, score = line.split()[:3]
        assert utt.startswith("delayed-copy-dev-")
        assert int(rank) in (1, 2, 3)
        float(score)


@pytest.mark.parametrize("nbest", ["0", "-2"])
def test_decode_rejects_an_nbest_below_one(run_dir, data_dir, tmp_path, capsys, nbest):
    hyp = tmp_path / "hyp.txt"
    code = main(["decode", "--checkpoint", str(run_dir / "best.ckpt"), "--data",
                 str(data_dir), "--split", "dev", "--nbest", nbest, "--out", str(hyp)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: --nbest must be >= 1 hypotheses, got {nbest}\n"
    assert list(tmp_path.iterdir()) == []


def test_decode_streaming_mode(run_dir, data_dir, tmp_path):
    hyp = tmp_path / "stream.txt"
    assert main(["decode", "--checkpoint", str(run_dir / "best.ckpt"),
                 "--data", str(data_dir), "--split", "dev", "--mode",
                 "streaming", "--chunk-left", "3", "--chunk-right", "1",
                 "--out", str(hyp)]) == 0
    assert len(hyp.read_text().splitlines()) == 4


def test_decode_streaming_beam_matches_offline(run_dir, data_dir, tmp_path,
                                               capsys):
    # streaming runs the offline beam, LM and n-best over the stream's rows
    lm = tmp_path / "lm.txt"
    assert main(["lm-train", "--text", f"{data_dir}/train/text",
                 "--skip-utt-ids", "--order", "2", "--out", str(lm)]) == 0
    args = ["decode", "--checkpoint", str(run_dir / "best.ckpt"), "--data",
            str(data_dir), "--split", "dev", "--beam-width", "3", "--lm",
            str(lm), "--nbest", "3"]
    window = ["--chunk-left", "3", "--chunk-right", "1"]
    written = {}
    for mode in ("offline", "streaming"):
        hyp = tmp_path / f"{mode}.txt"
        assert main(args + window + ["--mode", mode, "--out", str(hyp)]) == 0
        written[mode] = (hyp.read_bytes(),
                         (tmp_path / f"{mode}.txt.nbest").read_bytes())
    assert written["streaming"] == written["offline"]
    assert len(written["offline"][1].splitlines()) > 4
    # the trained window is unbounded: streaming needs a bounded one
    capsys.readouterr()
    assert main(args + ["--mode", "streaming", "--out",
                        str(tmp_path / "x.txt")]) == 1
    assert "bounded chunk window" in capsys.readouterr().err


def test_decode_chunk_override_needs_both(run_dir, data_dir, tmp_path, capsys):
    code = main(["decode", "--checkpoint", str(run_dir / "best.ckpt"),
                 "--data", str(data_dir), "--split", "dev", "--chunk-left",
                 "3", "--out", str(tmp_path / "x.txt")])
    assert code == 1
    assert "chunk" in capsys.readouterr().err


def test_decode_rejects_bad_input_in_one_line(run_dir, data_dir, tmp_path, capsys):
    # a non-finite LM weight, and a checkpoint or LM file cut short, which
    # is named
    ckpt = run_dir / "best.ckpt"
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(ckpt.read_bytes()[:-100])
    lm, cut_lm = tmp_path / "lm.txt", tmp_path / "cut-lm.txt"
    main(["lm-train", "--text", f"{data_dir}/train/text", "--skip-utt-ids",
          "--order", "2", "--out", str(lm)])
    cut_lm.write_text("".join(lm.read_text().splitlines(keepends=True)[:3]))
    for path, extra, want in [(ckpt, ["--lm-weight", "nan"], "LM weight"),
                              (cut, [], "cut.ckpt: truncated"),
                              (ckpt, ["--lm", str(cut_lm)], f"error: {cut_lm}: ")]:
        code = main(["decode", "--checkpoint", str(path), "--data", str(data_dir),
                     "--split", "dev", "--out", str(tmp_path / "x.txt"), *extra])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and want in err, err


@pytest.mark.parametrize("mode", ["offline", "streaming"])
def test_decode_rejects_data_that_does_not_fit(run_dir, data_dir, tmp_path, capsys, mode):
    # 5-dim features for a 4-dim model, and a feature file with no frames,
    # each as one error line, in both modes
    wide, empty = tmp_path / "wide", tmp_path / "empty"
    shutil.copytree(data_dir, wide)
    shutil.copytree(data_dir, empty)
    for path in (wide / "dev" / "feats").iterdir():
        write_feats(path, np.zeros((6, 5), dtype=np.float32))
    write_feats(empty / "dev" / "feats" / "delayed-copy-dev-00001.sf",
                np.zeros((0, 4), dtype=np.float32))
    for data, want in [(wide, "feature_dim 4 but delayed-copy-dev-00000 has 5-dim"),
                       (empty, "delayed-copy-dev-00001.sf: no frames")]:
        code = main(["decode", "--checkpoint", str(run_dir / "best.ckpt"), "--data",
                     str(data), "--split", "dev", "--mode", mode, "--chunk-left", "3",
                     "--chunk-right", "1", "--out", str(tmp_path / "x.txt")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and want in err, err


def test_eval_cer(run_dir, data_dir, tmp_path, capsys):
    hyp = tmp_path / "hyp.txt"
    main(["decode", "--checkpoint", str(run_dir / "best.ckpt"), "--data",
          str(data_dir), "--split", "dev", "--out", str(hyp)])
    capsys.readouterr()
    assert main(["eval-cer", "--ref", f"{data_dir}/dev/text", "--hyp",
                 str(hyp)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("corpus CER ")
    float(out.split()[-1])
    # a hypothesis file missing utterances is an error
    (tmp_path / "short.txt").write_text(hyp.read_text().splitlines()[0] + "\n")
    assert main(["eval-cer", "--ref", f"{data_dir}/dev/text", "--hyp",
                 str(tmp_path / "short.txt")]) == 1
    assert "missing" in capsys.readouterr().err


def test_lm_train(data_dir, tmp_path, capsys):
    out = tmp_path / "lm.txt"
    assert main(["lm-train", "--text", f"{data_dir}/train/text",
                 "--skip-utt-ids", "--order", "2", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("order 2,") and "perplexity" in stdout
    from satkit.ngram import NgramModel
    lm = NgramModel.load(out)
    # utterance ids were dropped, so only task tokens remain
    assert all(tok.startswith("t") or tok.startswith("<") or tok == "</s>"
               for tok in lm.vocab)


def test_lm_train_names_a_corpus_that_is_not_utf8(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(b"a b\n\xff c\n")
    assert main(["lm-train", "--text", str(corpus), "--out", str(tmp_path / "lm.txt")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {corpus}: not UTF-8 text")


def test_lm_fusion_decode(run_dir, data_dir, tmp_path):
    lm = tmp_path / "lm.txt"
    main(["lm-train", "--text", f"{data_dir}/train/text", "--skip-utt-ids",
          "--order", "2", "--out", str(lm)])
    hyp = tmp_path / "fused.txt"
    assert main(["decode", "--checkpoint", str(run_dir / "best.ckpt"),
                 "--data", str(data_dir), "--split", "dev", "--lm", str(lm),
                 "--lm-weight", "0.2", "--out", str(hyp)]) == 0
    assert len(hyp.read_text().splitlines()) == 4


def test_plot_lattice_contracts(run_dir, data_dir, tmp_path, capsys):
    prefix = tmp_path / "plot"
    assert main(["plot-lattice", "--checkpoint", str(run_dir / "best.ckpt"),
                 "--data", str(data_dir), "--split", "dev", "--utt",
                 "delayed-copy-dev-00000", "--full-vocab", "--out-prefix",
                 str(prefix)]) == 0
    out = capsys.readouterr().out
    assert "frames x" in out and "hypothesis:" in out

    lines = (tmp_path / "plot.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[:2] == ["frame", "u"]
    assert header[2:][:3] == ["<blank>", "<sos>", "<unk>"]
    for line in lines[1:]:
        vals = [float(v) for v in line.split(",")[2:]]
        # each trace row is one full softmax over the vocab
        assert sum(vals) == pytest.approx(1.0, abs=1e-9)
        assert all(0.0 <= v <= 1.0 for v in vals)

    blob = (tmp_path / "plot.pgm").read_bytes()
    head, payload = blob.split(b"\n", 1)
    magic, width, height, maxval = head.split()
    assert magic == b"P5" and maxval == b"255"
    n_tokens = len(header) - 2
    frames = max(int(line.split(",")[0]) for line in lines[1:]) + 1
    assert int(width) == frames and int(height) == n_tokens
    assert len(payload) == frames * n_tokens


def test_plot_lattice_unknown_utt(run_dir, data_dir, tmp_path, capsys):
    assert main(["plot-lattice", "--checkpoint", str(run_dir / "best.ckpt"),
                 "--data", str(data_dir), "--split", "dev", "--utt", "nope",
                 "--out-prefix", str(tmp_path / "x")]) == 1
    assert "not in" in capsys.readouterr().err


def test_plot_lattice_rejects_a_feature_width_mismatch(run_dir, data_dir, tmp_path, capsys):
    wide = tmp_path / "wide"
    shutil.copytree(data_dir, wide)
    write_feats(wide / "dev" / "feats" / "delayed-copy-dev-00002.sf",
                np.zeros((6, 5), dtype=np.float32))
    assert main(["plot-lattice", "--checkpoint", str(run_dir / "best.ckpt"),
                 "--data", str(wide), "--split", "dev", "--utt",
                 "delayed-copy-dev-00000", "--out-prefix", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "delayed-copy-dev-00002 has 5-dim" in err, err


def test_resume_from_cli(run_dir, data_dir, tmp_path, capsys):
    out = tmp_path / "resumed"
    assert main(["train", "--data", str(data_dir), "--out", str(out),
                 "--resume", str(run_dir / "last.ckpt")]) == 0
    stdout = capsys.readouterr().out
    # the stored config says 2 epochs and the checkpoint is at epoch 2, so
    # nothing new runs and nothing already-done is re-printed
    assert "epoch" not in stdout


def test_missing_data_is_diagnosed(tmp_path, capsys):
    assert main(["train", "--data", str(tmp_path / "nothere"), "--out",
                 str(tmp_path / "o"), *MODEL_FLAGS]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_unknown_flag_exits_via_argparse(capsys):
    with pytest.raises(SystemExit):
        main(["decode", "--no-such-flag"])


def test_failure_prints_one_line_or_raises_with_traceback(tmp_path, capsys):
    args = ["eval-cer", "--ref", str(tmp_path / "no-ref.txt"),
            "--hyp", str(tmp_path / "no-hyp.txt")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    with pytest.raises(FileNotFoundError):
        main(["--traceback", *args])


def test_log_level_silences_guard_warnings(run_dir, data_dir, tmp_path, caplog):
    # zero symbols per frame: every frame hits the symbol guard
    args = ["decode", "--checkpoint", str(run_dir / "best.ckpt"), "--data",
            str(data_dir), "--split", "dev", "--beam-width", "1",
            "--max-symbols", "0", "--out", str(tmp_path / "hyp.txt")]

    def guard_records():
        return [r for r in caplog.records
                if r.name.startswith("satkit") and "symbol guard" in r.getMessage()]

    with caplog.at_level(logging.WARNING):
        assert main(args) == 0
    assert guard_records()
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        assert main(["--log-level", "ERROR", *args]) == 0
    assert not guard_records()
    assert logging.getLogger("satkit").level == logging.NOTSET
