"""Acceptance suite: one test per shipped guarantee.

Run ``pytest tests/test_acceptance.py -v`` for a pass/fail line per
guarantee. Tolerances and runtime budgets are asserted inline; the training
criteria regenerate their datasets and train from fixed seeds, so every run
sees the same arithmetic.
"""

import logging
import time

import numpy as np
import pytest

from satkit.autodiff import Tensor
from satkit.cli import main as cli_main
from satkit.data import (TaskSpec, generate_split, normalize_dataset,
                         save_dataset, stack_downsample)
from satkit.decode import (DecodeConfig, beam_decode, corpus_cer,
                           greedy_decode, greedy_trace, stream_decode)
from satkit.lattice import (PosteriorLattice, forward_backward_arrays,
                            transducer_loss)
from satkit.model import ModelConfig, SATModel
from satkit.ngram import train as lm_train
from satkit.nnet import ChunkSpec, Encoder
from satkit.pathreg import ParConfig, build_path, joint_loss
from satkit.train import TrainConfig, Trainer
from satkit.vocab import BLANK, Vocab
from unfused import brute_force_loss, exhaustive_decode, zero_grads

TABLE_WINDOWS = ((5, 2), (10, 5), (20, 10))


def _random_small_lattice(rng):
    t_len = int(rng.integers(1, 5))
    k = int(rng.integers(2, 5))
    # label ids start after the reserved range, so K=2 only fits blank paths
    u_len = int(rng.integers(0, 4)) if k > 2 else 0
    logits = rng.standard_normal((t_len, u_len + 1, k)) * 2.0
    lp = logits - np.log(np.exp(logits).sum(-1, keepdims=True))
    targets = (rng.integers(2, k, size=u_len) if u_len
               else np.empty(0, np.int64))
    return PosteriorLattice(Tensor(lp), targets)


@pytest.fixture(scope="module")
def small_lattices():
    rng = np.random.default_rng(10007)
    return [_random_small_lattice(rng) for _ in range(200)]


def _tiny_model(seed=0, vocab_size=6, left="inf", right="inf"):
    cfg = ModelConfig(feature_dim=3, d_m=8, n_heads=2, d_ff=16,
                      n_enc_blocks=1, n_pred_blocks=1, d_joint=8,
                      vocab_size=vocab_size, chunk_left=left,
                      chunk_right=right, dropout=0.0)
    return SATModel(cfg, seed=seed)


def _random_stacked(model, t_len, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(t_len, model.config.stacked_dim))


def _trained_toy_model(seed):
    """Two epochs on a tiny noisy task: enough to make blank competitive.

    Untrained weight soup argmaxes a label on nearly every step, so decoding
    saturates the per-frame symbol guard and its forced advance truncates
    different alignments at different widths; the score-vs-width and
    exhaustive-agreement contracts belong to the regime where blank competes.
    """
    spec = TaskSpec(kind="delayed-copy", vocab_size=4, feature_dim=4,
                    min_tokens=2, max_tokens=4, noise=0.3, seed=9)
    train_utts = normalize_dataset(generate_split(spec, 40, "train"))
    dev_utts = normalize_dataset(generate_split(spec, 8, "dev"))
    vocab = spec.vocab()
    mc = ModelConfig(feature_dim=4, d_m=8, n_heads=2, d_ff=16,
                     n_enc_blocks=1, n_pred_blocks=1, d_joint=8,
                     vocab_size=vocab.size, dropout=0.0)
    model = SATModel(mc, seed=seed)
    tc = TrainConfig(epochs=2, batch_size=8, seed=seed, optimizer="sgd",
                     lr=0.05)
    trainer = Trainer(model, vocab, train_utts, dev_utts, tc)
    trainer.run_epoch()
    trainer.run_epoch()
    return model, dev_utts


@pytest.fixture(scope="module")
def brief_models():
    return [_trained_toy_model(seed) for seed in range(100)]


def test_criterion_01_lattice_loss_matches_exhaustive_path_enumeration(
        small_lattices):
    start = time.monotonic()
    worst = 0.0
    for lat in small_lattices:
        got = transducer_loss(lat).item()
        want = brute_force_loss(lat)
        rel = abs(got - want) / abs(want)
        worst = max(worst, rel)
        assert rel <= 1e-10, (lat.T, lat.U, got, want)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"{elapsed:.1f}s for 200 lattices"
    print(f"\n200 lattices: worst relative gap {worst:.3e}, {elapsed:.2f}s")


def test_criterion_02_gradients_match_finite_differences():
    start = time.monotonic()
    rng = np.random.default_rng(20002)
    eps = 1e-6

    # Kernel gradient: probe every coordinate of 50 small lattices.
    worst_rel = 0.0
    for _ in range(50):
        lat = _random_small_lattice(rng)
        lp = lat.log_probs.data
        _, grad, _, _ = forward_backward_arrays(lat)
        for t in range(lp.shape[0]):
            for u in range(lp.shape[1]):
                for k in range(lp.shape[2]):
                    probe = lp.copy()
                    probe[t, u, k] += eps
                    hi = transducer_loss(
                        PosteriorLattice(Tensor(probe), lat.targets),
                        validate=False).item()
                    probe[t, u, k] -= 2 * eps
                    lo = transducer_loss(
                        PosteriorLattice(Tensor(probe), lat.targets),
                        validate=False).item()
                    fd = (hi - lo) / (2 * eps)
                    err = abs(grad[t, u, k] - fd)
                    # the relative form only means something away from zero;
                    # below that, central differences carry ~|loss|*1e-10
                    # cancellation noise of their own
                    if abs(fd) > 1e-3:
                        worst_rel = max(worst_rel, err / abs(fd))
                    assert err <= max(1e-6 * abs(fd), 1e-8), (t, u, k)
    assert worst_rel < 1e-6

    # Whole model: encoder + prediction + joint through the lattice loss,
    # with the alignment regularizer at several weights. The regularizer's
    # posterior weights must stay in the graph for the analytic gradient to
    # be the derivative the probe measures.
    mc = ModelConfig(feature_dim=4, d_m=8, n_heads=2, d_ff=16,
                     n_enc_blocks=1, n_pred_blocks=1, d_joint=8,
                     vocab_size=6, dropout=0.0)
    model = SATModel(mc, seed=2)
    x = rng.standard_normal((6, mc.stacked_dim))
    targets = np.array([2, 3, 4], dtype=np.int64)
    path = build_path(np.array([0, 2, 0, 3, 0, 4]), targets)
    worst_model_rel = 0.0
    for beta in (0.0, 2.0, 10.0):
        cfg = ParConfig(beta=beta, detach_weight=False)

        def loss_tensor():
            lat = model.forward_lattice(x, targets, training=False)
            return joint_loss(lat, path, cfg)

        loss = loss_tensor()
        zero_grads(model.params)
        loss.backward()
        grads = {n: p.grad.copy() for n, p in model.params.items()}
        for name in sorted(model.params):
            flat = model.params[name].data.reshape(-1)
            count = min(3, flat.size)
            for i in rng.choice(flat.size, size=count, replace=False):
                keep = flat[i]
                flat[i] = keep + eps
                hi = loss_tensor().item()
                flat[i] = keep - eps
                lo = loss_tensor().item()
                flat[i] = keep
                fd = (hi - lo) / (2 * eps)
                a = grads[name].reshape(-1)[int(i)]
                scale = max(abs(a), abs(fd))
                if scale > 1e-4:
                    rel = abs(a - fd) / scale
                    worst_model_rel = max(worst_model_rel, rel)
                    assert rel < 1e-5, (beta, name, int(i), a, fd)
                else:
                    assert abs(a - fd) < 1e-7, (beta, name, int(i), a, fd)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"{elapsed:.1f}s"
    print(f"\nkernel worst rel {worst_rel:.3e}, "
          f"full-model worst rel {worst_model_rel:.3e}, {elapsed:.1f}s")


def test_criterion_03_anti_diagonal_mass_equals_total(small_lattices):
    worst = 0.0
    for lat in small_lattices:
        _, _, alpha, beta = forward_backward_arrays(lat)
        total = alpha + beta
        for n in range(lat.T + lat.U):
            cells = [total[t, n - t] for t in range(lat.T)
                     if 0 <= n - t <= lat.U]
            mass = np.logaddexp.reduce(cells)
            worst = max(worst, abs(mass - beta[0, 0]))
            assert abs(mass - beta[0, 0]) <= 1e-9
    print(f"\nworst anti-diagonal gap {worst:.3e}")


def test_criterion_04_windowed_attention_receptive_field_is_exact():
    rng = np.random.default_rng(40004)
    t_total = 100
    for n_blocks in (1, 2, 3):
        for left, right in TABLE_WINDOWS:
            enc = Encoder(6, 16, 2, 32, n_blocks, ChunkSpec(left, right), rng)
            x = rng.standard_normal((t_total, 6))
            base = enc(Tensor(x)).data
            reach_back = n_blocks * right   # input j feeds outputs t >= j-B*Nr
            reach_fwd = n_blocks * left     # ... and t <= j+B*Nl
            outside_pairs = 0
            for j in range(t_total):
                probe = x.copy()
                probe[j] += 0.7
                out = enc(Tensor(probe)).data
                rows = [t for t in range(t_total)
                        if t < j - reach_back or t > j + reach_fwd]
                if rows:
                    np.testing.assert_array_equal(out[rows], base[rows])
                    outside_pairs += len(rows)
                assert np.abs(out[j] - base[j]).max() > 1e-6, (n_blocks, j)
            assert outside_pairs > 0
    print("\nreceptive fields exact for 9 block/window settings at T=100")


def test_criterion_05_streaming_decode_is_bit_identical_to_offline(caplog):
    caplog.set_level(logging.ERROR, logger="satkit.decode")
    emitted = 0
    for si, (left, right) in enumerate(TABLE_WINDOWS):
        mc = ModelConfig(feature_dim=3, d_m=8, n_heads=2, d_ff=16,
                         n_enc_blocks=2, n_pred_blocks=1, d_joint=8,
                         vocab_size=6, chunk_left=left, chunk_right=right,
                         dropout=0.0)
        model = SATModel(mc, seed=50 + si)
        rng = np.random.default_rng(5005 + si)
        for _ in range(50):
            n_raw = int(rng.integers(12, 40))
            raw = rng.normal(size=(n_raw, mc.feature_dim))
            stacked = stack_downsample(raw, mc.stack_left, mc.stack_right,
                                       mc.factor)
            labels, frames, _ = greedy_trace(model, stacked, max_symbols=3)
            got = list(stream_decode(
                model, iter(raw),
                cfg=DecodeConfig(mode="streaming", max_symbols_per_frame=3)))
            assert [k for _, k in got] == labels, (left, right)
            assert [t for t, _ in got] == frames, (left, right)
            emitted += len(labels)
    assert emitted > 0
    print(f"\n150 utterances bit-identical across 3 windows, "
          f"{emitted} emissions compared")


def test_criterion_06_beam_search_contracts(brief_models, caplog):
    caplog.set_level(logging.ERROR, logger="satkit.decode")

    # width 1 recovers greedy exactly, including on untrained weight soup
    for seed in range(100):
        model = _tiny_model(seed=seed)
        x = _random_stacked(model, 5, seed=600 + seed)
        best = beam_decode(model, x, cfg=DecodeConfig(beam_width=1))[0]
        assert list(best.prefix) == greedy_decode(model, x), seed

    # widening the beam never lowers the best score
    checks = 0
    for model, dev in brief_models:
        for utt in dev[:3]:
            x = stack_downsample(utt.feats.astype(np.float64), 3, 1, 3)
            scores = [beam_decode(model, x,
                                  cfg=DecodeConfig(beam_width=w))[0].t_score
                      for w in (1, 2, 5)]
            assert scores[1] >= scores[0] - 1e-12, (utt.utt_id, scores)
            assert scores[2] >= scores[1] - 1e-12, (utt.utt_id, scores)
            checks += 1

    # a wide beam agrees with exhaustive scoring of every short label
    # sequence on 3-frame inputs
    for model, dev in brief_models[:20]:
        x = stack_downsample(dev[0].feats.astype(np.float64), 3, 1, 3)[:3]
        ids = tuple(range(2, model.config.vocab_size))
        want, _ = exhaustive_decode(model, x, max_len=3, token_ids=ids)
        got = beam_decode(model, x, cfg=DecodeConfig(beam_width=64))[0]
        assert list(got.prefix) == want

    # zero-weight fusion changes nothing, bit for bit
    vocab = Vocab.build(["a", "b", "c"])
    lm = lm_train([["a", "b"], ["a", "b"], ["a", "c"]], order=2)
    for seed in range(10):
        model = _tiny_model(seed=seed, vocab_size=vocab.size)
        x = _random_stacked(model, 4, seed=900 + seed)
        plain = beam_decode(model, x, cfg=DecodeConfig(beam_width=3))
        fused = beam_decode(model, x, lm=lm, vocab=vocab,
                            cfg=DecodeConfig(beam_width=3, lm_weight=0.0))
        assert [h.prefix for h in plain] == [h.prefix for h in fused]
        assert [h.t_score for h in plain] == [h.t_score for h in fused]
    print(f"\n100 greedy matches, {checks} width-monotonicity checks, "
          f"20 exhaustive agreements, 10 zero-weight fusions")


def test_criterion_07_plain_model_learns_noiseless_copy_task():
    """Dev CER reaches 5% within 30 epochs and 30 minutes of CPU training."""
    spec = TaskSpec(kind="delayed-copy", vocab_size=16, feature_dim=8,
                    min_tokens=3, max_tokens=8, noise=0.0, seed=7)
    train_utts = normalize_dataset(generate_split(spec, 2000, "train"))
    dev_utts = normalize_dataset(generate_split(spec, 200, "dev"))
    vocab = spec.vocab()
    mc = ModelConfig(feature_dim=8, d_m=64, n_heads=4, d_ff=128,
                     n_enc_blocks=2, n_pred_blocks=2, d_joint=64,
                     vocab_size=vocab.size, dropout=0.0)
    model = SATModel(mc, seed=0)
    # batch 4 doubles the step count per epoch relative to the batch-8
    # default; on one core that costs no wall time and crosses 5% by ~ep5
    tc = TrainConfig(epochs=30, batch_size=4, seed=0, optimizer="noam",
                     lr_factor=1.0, warmup_steps=500)
    trainer = Trainer(model, vocab, train_utts, dev_utts, tc)
    start = time.monotonic()
    reached = None
    for _ in range(30):
        entry = trainer.run_epoch()
        if entry["dev_cer"] <= 0.05:
            reached = entry
            break
    elapsed = time.monotonic() - start
    assert elapsed < 1800.0
    assert reached is not None, \
        f"dev CER stuck at {trainer.history[-1]['dev_cer']:.4f} after 30 epochs"
    print(f"\ndev CER {reached['dev_cer']:.4f} at epoch {reached['epoch']} "
          f"({elapsed:.0f}s)")


def _emission_entropy(model, dev_batches):
    """Mean joint-posterior entropy at the aligned label nodes."""
    total = n = 0
    for b in dev_batches:
        ids = np.asarray(b.targets[0], dtype=np.int64)
        lat = model.forward_lattice(b.feats[0], ids)
        path = build_path(b.alignments[0], ids)
        for (t, u, _k) in (tr for tr in path.triples if tr[2] != BLANK):
            row = lat.log_probs.data[t, u]
            total += -(np.exp(row) * row).sum()
            n += 1
    return total / n


@pytest.fixture(scope="module")
def regularized_pairs():
    """Five seed-matched (beta=0, beta=10) runs on a noisy classify task.

    Fixed five-segment utterances at noise 2.0: emission positions are
    constant, so the frame-level supervision is learnable from positional
    information alone, while the diffuse lattice gradient leaves the
    unregularized model still organizing itself at this epoch budget.
    """
    spec = TaskSpec(kind="segment-classify", vocab_size=6, feature_dim=6,
                    min_tokens=5, max_tokens=5, noise=2.0, seed=13)
    train_utts = normalize_dataset(generate_split(spec, 300, "train"))
    dev_utts = normalize_dataset(generate_split(spec, 60, "dev"))
    vocab = spec.vocab()
    runs = []
    for seed in range(5):
        pair = {}
        for beta in (0.0, 10.0):
            mc = ModelConfig(feature_dim=6, d_m=32, n_heads=2, d_ff=64,
                             n_enc_blocks=2, n_pred_blocks=1, d_joint=32,
                             vocab_size=vocab.size, dropout=0.0)
            model = SATModel(mc, seed=seed)
            tc = TrainConfig(epochs=10, batch_size=2, seed=seed,
                             optimizer="noam", lr_factor=1.0,
                             warmup_steps=150, beta=beta)
            trainer = Trainer(model, vocab, train_utts, dev_utts, tc)
            history = [trainer.run_epoch() for _ in range(10)]
            pair[beta] = {"history": history,
                          "entropy": _emission_entropy(model, trainer.dev)}
        runs.append(pair)
    return runs


def test_criterion_08_alignment_regularization_beats_plain_training(
        regularized_pairs):
    loss_wins = cer_wins = 0
    for seed, pair in enumerate(regularized_pairs):
        t5 = (pair[10.0]["history"][4]["transducer_loss"],
              pair[0.0]["history"][4]["transducer_loss"])
        c10 = (pair[10.0]["history"][9]["dev_cer"],
               pair[0.0]["history"][9]["dev_cer"])
        loss_wins += t5[0] <= t5[1]
        cer_wins += c10[0] <= c10[1]
        print(f"\nseed {seed}: transducer loss at epoch 5 "
              f"{t5[0]:.2f} (b10) vs {t5[1]:.2f} (b0); "
              f"dev CER at epoch 10 {c10[0]:.3f} vs {c10[1]:.3f}")
    assert loss_wins >= 4, f"loss at or below in only {loss_wins}/5 seeds"
    assert cer_wins >= 4, f"CER at or below in only {cer_wins}/5 seeds"


def test_criterion_09_regularization_sharpens_emission_posteriors(
        regularized_pairs):
    diffs = []
    for seed, pair in enumerate(regularized_pairs):
        d = pair[10.0]["entropy"] - pair[0.0]["entropy"]
        diffs.append(d)
        print(f"\nseed {seed}: emission-frame entropy "
              f"{pair[10.0]['entropy']:.3f} (b10) vs "
              f"{pair[0.0]['entropy']:.3f} (b0), diff {d:+.3f}")
    assert float(np.median(diffs)) < 0.0


def test_criterion_10_dev_cer_does_not_degrade_as_context_grows():
    """Best dev CER over a fixed budget, per window, smallest to unbounded."""
    spec = TaskSpec(kind="delayed-copy", vocab_size=6, feature_dim=6,
                    min_tokens=3, max_tokens=5, noise=0.0, seed=13)
    train_utts = normalize_dataset(generate_split(spec, 200, "train"))
    dev_utts = normalize_dataset(generate_split(spec, 60, "dev"))
    vocab = spec.vocab()
    cers = []
    for left, right in TABLE_WINDOWS + (("inf", "inf"),):
        mc = ModelConfig(feature_dim=6, d_m=32, n_heads=2, d_ff=64,
                         n_enc_blocks=1, n_pred_blocks=1, d_joint=32,
                         vocab_size=vocab.size, dropout=0.0,
                         chunk_left=str(left), chunk_right=str(right))
        model = SATModel(mc, seed=1)
        tc = TrainConfig(epochs=12, batch_size=2, seed=1, optimizer="noam",
                         lr_factor=1.0, warmup_steps=150)
        trainer = Trainer(model, vocab, train_utts, dev_utts, tc)
        for _ in range(12):
            trainer.run_epoch()
        cers.append(trainer.best_dev)
        print(f"\nwindow ({left},{right}): best dev CER {trainer.best_dev:.4f}")
    inversions = [max(0.0, cers[i + 1] - cers[i]) for i in range(3)]
    bad = [v for v in inversions if v > 0.0]
    assert len(bad) <= 1 and all(v <= 0.005 for v in bad), \
        f"CER increased with context: {cers}"


def _tree_bytes(root):
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = path.read_bytes()
    return out


def test_criterion_11_checkpoints_and_artifacts_reproduce_bitwise(tmp_path):
    spec = TaskSpec(kind="delayed-copy", vocab_size=4, feature_dim=4,
                    min_tokens=2, max_tokens=4, noise=0.3, seed=9)
    utts = generate_split(spec, 6, "train")
    vocab = spec.vocab()
    mc = ModelConfig(feature_dim=4, d_m=8, n_heads=2, d_ff=16,
                     n_enc_blocks=1, n_pred_blocks=1, d_joint=8,
                     vocab_size=vocab.size, dropout=0.0)
    model = SATModel(mc, seed=11)

    def mean_loss(m):
        total = 0.0
        for u in utts:
            x = stack_downsample(u.feats.astype(np.float64), 3, 1, 3)
            ids = np.asarray(vocab.ids(u.targets), dtype=np.int64)
            total += transducer_loss(m.forward_lattice(x, ids)).item()
        return total / len(utts)

    before = mean_loss(model)
    model.save(tmp_path / "m.ckpt")
    back, _, _ = SATModel.load(tmp_path / "m.ckpt")
    after = mean_loss(back)
    assert abs(after - before) <= 1e-9

    # same generator seed, same bytes on disk
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    save_dataset(a_dir / "train", generate_split(spec, 8, "train"))
    save_dataset(b_dir / "train", generate_split(spec, 8, "train"))
    a_tree, b_tree = _tree_bytes(a_dir), _tree_bytes(b_dir)
    assert a_tree and a_tree == b_tree

    # decoding the same checkpoint twice writes identical hypothesis files
    data = tmp_path / "data"
    assert cli_main(["gen-data", "--task", "delayed-copy", "--vocab-size",
                     "4", "--feature-dim", "4", "--min-tokens", "2",
                     "--max-tokens", "4", "--noise", "0.3", "--seed", "9",
                     "--n-train", "6", "--n-dev", "4", "--n-test", "2",
                     "--out", str(data)]) == 0
    ckpt = tmp_path / "rt.ckpt"
    model.save(ckpt)
    hyp_a, hyp_b = tmp_path / "a.hyp", tmp_path / "b.hyp"
    for out in (hyp_a, hyp_b):
        assert cli_main(["decode", "--checkpoint", str(ckpt), "--data",
                         str(data), "--split", "dev", "--out", str(out)]) == 0
    assert hyp_a.read_bytes() == hyp_b.read_bytes()
    assert hyp_a.stat().st_size > 0
    print(f"\nloss gap {abs(after - before):.2e}; dataset trees and "
          f"hypothesis files byte-identical")
