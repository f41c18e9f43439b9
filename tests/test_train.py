"""Training loop: metrics stream, regularized objectives, exact resume."""

import csv
import logging

import numpy as np
import pytest

import satkit.kernels
from satkit import autodiff as ad
from satkit import checkpoint as ckpt
from satkit.autodiff import Tensor
from satkit.data import TaskSpec, generate_split, make_batches, normalize_dataset
from satkit.lattice import transducer_loss
from satkit.model import ModelConfig, SATModel
from satkit.optim import SGDMomentum
from satkit.pathreg import ParConfig, par_loss
from satkit.train import METRICS_COLUMNS, TrainConfig, Trainer
import unfused


def toy_setup(noise=0.0, n_train=12, n_dev=4, task_seed=21):
    spec = TaskSpec(kind="delayed-copy", vocab_size=4, feature_dim=4,
                    min_tokens=2, max_tokens=4, noise=noise, seed=task_seed)
    train_utts = normalize_dataset(generate_split(spec, n_train, "train"))
    dev_utts = normalize_dataset(generate_split(spec, n_dev, "dev"))
    return spec.vocab(), train_utts, dev_utts


def toy_model(vocab, seed=0, dropout=0.0, window=("inf", "inf"), n_enc_blocks=1):
    cfg = ModelConfig(feature_dim=4, d_m=8, n_heads=2, d_ff=16,
                      n_enc_blocks=n_enc_blocks, n_pred_blocks=1, d_joint=8,
                      vocab_size=vocab.size, dropout=dropout,
                      chunk_left=window[0], chunk_right=window[1])
    return SATModel(cfg, seed=seed)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(optimizer="adamw")
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError, match="finite and non-negative"):
        TrainConfig(beta=float("nan"))
    # an lr of nan wrote NaN into every parameter at step 1
    for bad in ({"lr": float("nan")}, {"lr": 0.0}, {"lr_factor": 0.0},
                {"optimizer": "noam", "lr_factor": float("inf")}):
        with pytest.raises(ValueError, match="finite and positive"):
            TrainConfig(**bad)
    for momentum in (1.5, 1.0, -0.1, float("nan")):
        with pytest.raises(ValueError, match="momentum"):
            TrainConfig(momentum=momentum)
    for steps in (0, -5):
        with pytest.raises(ValueError, match="warmup steps"):
            TrainConfig(optimizer="noam", warmup_steps=steps)
    # a min_lr of nan or -1 halved the rate to 0.0 and never stopped the run
    for min_lr in (float("nan"), -1.0, 0.0, float("inf")):
        with pytest.raises(ValueError, match="min_lr"):
            TrainConfig(min_lr=min_lr)
    for patience in (0, -1):
        with pytest.raises(ValueError, match="halving_patience"):
            TrainConfig(halving_patience=patience)
    for rate in (1.0, 1.5, -0.1, float("nan")):
        with pytest.raises(ValueError, match="dropout"):
            ModelConfig(dropout=rate)
    assert ModelConfig(dropout=0.0).dropout == 0.0
    # a stacking no stacker can run: factor 0 divided by zero or never
    # returned, and stack_left -1 stacked frame t+1 alone
    for bad in ({"factor": 0}, {"factor": -2}, {"stack_left": -1}, {"stack_right": -1}):
        with pytest.raises(ValueError, match="frame stacking"):
            ModelConfig(**bad)
    assert ModelConfig(stack_left=0, stack_right=0, factor=1).stacked_dim == 8
    # model sizes and windows name the field: n_heads 0 was an integer
    # modulo by zero, d_m 0 a float division by zero
    for bad, field in (({"n_heads": 0}, "n_heads"), ({"d_m": 0}, "d_m"),
                       ({"d_m": 64, "n_heads": 3}, "n_heads"),
                       ({"chunk_left": "abc"}, "chunk_left"),
                       ({"chunk_right": "-1"}, "chunk_right"),
                       ({"chunk_left": "2.5"}, "chunk_left"),
                       # these built a model (d_m 7 failed later, naming no field)
                       ({"d_m": 7, "n_heads": 7}, "d_m"), ({"feature_dim": 0}, "feature_dim"),
                       ({"vocab_size": 0}, "vocab_size"), ({"vocab_size": 2}, "vocab_size"),
                       ({"n_enc_blocks": -1}, "n_enc_blocks"),
                       ({"n_pred_blocks": -2}, "n_pred_blocks"), ({"d_ff": 0}, "d_ff"),
                       ({"d_joint": 0}, "d_joint")):
        with pytest.raises(ValueError, match=field):
            ModelConfig(**bad)
    assert ModelConfig(n_enc_blocks=0, n_pred_blocks=0, vocab_size=3).vocab_size == 3


def test_dev_scoring_is_greedy_decoding(monkeypatch):
    # under a bounded window, evaluate() encodes each dev utterance through
    # the decoder's row source, one block stage per block, and scores the
    # hypotheses of greedy_decode
    import satkit.nnet
    from satkit.decode import corpus_cer, greedy_decode

    vocab, tr_utts, dev_utts = toy_setup(n_dev=6)
    model = toy_model(vocab, seed=3, window=("2", "1"), n_enc_blocks=2)
    trainer = Trainer(model, vocab, tr_utts, dev_utts,
                      TrainConfig(epochs=2, batch_size=4, lr=0.05))
    trainer.run()
    want = corpus_cer([b.targets[0] for b in trainer.dev],
                      [greedy_decode(model, b.feats[0, :b.feat_lengths[0]])
                       for b in trainer.dev])
    stages = []
    block_rows = satkit.nnet._block_rows

    def counted(block, *args):
        stages.append(block)
        return block_rows(block, *args)

    monkeypatch.setattr(satkit.nnet, "_block_rows", counted)
    assert trainer.evaluate() == want
    assert stages == model.encoder.blocks * len(trainer.dev)
    assert trainer.history[-1]["dev_cer"] == want


def test_loss_decreases_and_history_shape():
    vocab, tr_utts, dev_utts = toy_setup()
    trainer = Trainer(toy_model(vocab), vocab, tr_utts, dev_utts,
                      TrainConfig(epochs=3, batch_size=4, lr=0.05))
    history = trainer.run()
    assert [h["epoch"] for h in history] == [1, 2, 3]
    assert history[-1]["transducer_loss"] < history[0]["transducer_loss"]
    steps_per_epoch = len(trainer.batches)
    assert history[-1]["step"] == 3 * steps_per_epoch
    for h in history:
        assert h["par_loss"] == 0.0  # beta 0 never touches the regularizer
        assert 0.0 <= h["dev_cer"]


def test_metrics_csv_format(tmp_path):
    vocab, tr_utts, dev_utts = toy_setup()
    path = tmp_path / "metrics.csv"
    trainer = Trainer(toy_model(vocab), vocab, tr_utts, dev_utts,
                      TrainConfig(epochs=2, batch_size=4, lr=0.05),
                      metrics_path=path)
    trainer.run()
    lines = path.read_text().splitlines()
    assert lines[0] == METRICS_COLUMNS
    rows = list(csv.DictReader(lines))
    per_epoch = len(trainer.batches)
    assert len(rows) == 2 * (per_epoch + 1)
    step_rows = [r for r in rows if r["dev_cer"] == ""]
    summary_rows = [r for r in rows if r["dev_cer"] != ""]
    assert len(step_rows) == 2 * per_epoch
    assert len(summary_rows) == 2
    assert [int(r["step"]) for r in step_rows] == list(range(1, 2 * per_epoch + 1))
    for r in step_rows:
        for col in ("step_seconds", "frames_per_sec", "grad_norm"):
            value = float(r[col])
            assert np.isfinite(value) and value > 0.0, (col, r[col])
    for r in summary_rows:
        assert int(r["step"]) % per_epoch == 0
        assert np.isfinite(float(r["dev_cer"]))
        assert np.isfinite(float(r["joint_loss"]))
        assert r["step_seconds"] == r["frames_per_sec"] == r["grad_norm"] == ""
    # epoch summary repeats the epoch's final step number
    assert {int(r["step"]) for r in summary_rows} == {per_epoch, 2 * per_epoch}


def test_beta_zero_matches_plain_run_exactly():
    vocab, tr_utts, dev_utts = toy_setup()
    a = Trainer(toy_model(vocab, seed=3), vocab, tr_utts, dev_utts,
                TrainConfig(epochs=2, batch_size=4, lr=0.05, beta=0.0))
    b = Trainer(toy_model(vocab, seed=3), vocab, tr_utts, dev_utts,
                TrainConfig(epochs=2, batch_size=4, lr=0.05, beta=0.0,
                            detach_weight=False))
    ha, hb = a.run(), b.run()
    for ea, eb in zip(ha, hb):
        assert ea == eb


def test_par_regularizer_contributes():
    vocab, tr_utts, dev_utts = toy_setup(noise=0.3)
    trainer = Trainer(toy_model(vocab), vocab, tr_utts, dev_utts,
                      TrainConfig(epochs=1, batch_size=4, lr=0.05, beta=2.0))
    entry = trainer.run_epoch()
    assert entry["par_loss"] > 0.0
    assert entry["joint_loss"] == pytest.approx(
        entry["transducer_loss"] + 2.0 * entry["par_loss"], rel=1e-9)


def test_beta_needs_alignments():
    vocab, tr_utts, dev_utts = toy_setup()
    for u in tr_utts:
        u.alignment = None
    with pytest.raises(ValueError, match="alignments"):
        Trainer(toy_model(vocab), vocab, tr_utts, dev_utts,
                TrainConfig(epochs=1, beta=1.0))


def test_same_seed_same_run_with_dropout():
    vocab, tr_utts, dev_utts = toy_setup()
    runs = []
    for _ in range(2):
        t = Trainer(toy_model(vocab, seed=1, dropout=0.1), vocab, tr_utts,
                    dev_utts, TrainConfig(epochs=2, batch_size=4, lr=0.05,
                                          seed=7))
        runs.append(t.run())
    assert runs[0] == runs[1]


def test_resume_reproduces_next_step(tmp_path):
    vocab, tr_utts, dev_utts = toy_setup()
    cfg = TrainConfig(epochs=3, batch_size=4, lr=0.05, seed=5)

    solid = Trainer(toy_model(vocab, seed=2, dropout=0.1), vocab, tr_utts,
                    dev_utts, cfg)
    split = Trainer(toy_model(vocab, seed=2, dropout=0.1), vocab, tr_utts,
                    dev_utts, cfg)
    solid.run_epoch()
    split.run_epoch()
    split.save(tmp_path / "mid.ckpt")

    back = Trainer.resume(tmp_path / "mid.ckpt", vocab, tr_utts, dev_utts)
    assert back.epoch == 1 and back.global_step == split.global_step
    assert back.best_dev == split.best_dev
    assert back.history == split.history

    want = solid.run_epoch()
    got = back.run_epoch()
    assert got["transducer_loss"] == pytest.approx(want["transducer_loss"],
                                                   abs=1e-9)
    assert got["dev_cer"] == want["dev_cer"]
    for name in solid.model.params:
        np.testing.assert_allclose(back.model.params[name].data,
                                   solid.model.params[name].data, atol=1e-12)


def _resume_with_retired_key(tmp_path, key, runs):
    """Resume from copies of a checkpoint that store ``key`` at ``runs`` and
    at the other value: the first resumes bit for bit, the second raises
    naming its file."""
    vocab, tr_utts, dev_utts = toy_setup()
    trainer = Trainer(toy_model(vocab, seed=2, dropout=0.1), vocab, tr_utts, dev_utts,
                      TrainConfig(epochs=2, batch_size=4, optimizer="noam", warmup_steps=3))
    trainer.run_epoch()
    trainer.save(tmp_path / "now.ckpt")
    config, meta, arrays = ckpt.load_checkpoint(tmp_path / "now.ckpt")
    for value in (True, False):
        meta["trainer"]["config"][key] = value
        ckpt.save_checkpoint(tmp_path / f"{value}.ckpt", arrays, config, meta)
    with pytest.raises(ValueError, match=rf"{not runs}\.ckpt: {key} = {not runs}"):
        Trainer.resume(tmp_path / f"{not runs}.ckpt", vocab, tr_utts, dev_utts)
    back = Trainer.resume(tmp_path / f"{runs}.ckpt", vocab, tr_utts, dev_utts)
    assert back.run_epoch() == trainer.run_epoch()
    for name, p in back.model.params.items():
        np.testing.assert_array_equal(p.data, trainer.model.params[name].data, err_msg=name)


@pytest.mark.parametrize("key", ["adaptive", "shuffle"])
def test_resume_reads_a_retired_key_only_at_the_value_that_runs(tmp_path, key):
    # earlier checkpoints store adaptive and shuffle: true, the value every
    # run now uses, resumes bit for bit; false selected a deleted path
    _resume_with_retired_key(tmp_path, key, True)


def test_resume_reads_labels_only_only_when_false(tmp_path):
    # earlier checkpoints store labels_only: false, the regularizer over
    # every path triple, resumes bit for bit; true summed label triples only
    _resume_with_retired_key(tmp_path, "labels_only", False)


def test_training_without_dev_references_fails_before_the_first_step(tmp_path):
    # dev scoring needs reference tokens: with none, the run stops before
    # its first step rather than after an epoch it cannot score
    vocab, tr_utts, _ = toy_setup()
    trainer = Trainer(toy_model(vocab), vocab, tr_utts, [],
                      TrainConfig(epochs=1, batch_size=8))
    before = {name: p.data.copy() for name, p in trainer.model.params.items()}
    with pytest.raises(ValueError, match="dev set has none"):
        trainer.run(checkpoint_dir=tmp_path / "run")
    assert trainer.global_step == 0
    assert not (tmp_path / "run" / "last.ckpt").exists()
    for name, p in trainer.model.params.items():
        np.testing.assert_array_equal(p.data, before[name], err_msg=name)


def test_training_without_utterances_is_refused_when_built():
    # no training utterance means no batch: the trainer is refused when it is
    # built, naming the cause, not after an empty epoch divides by zero
    vocab, _, dev_utts = toy_setup()
    with pytest.raises(ValueError, match="at least one utterance"):
        Trainer(toy_model(vocab), vocab, [], dev_utts, TrainConfig(epochs=1))


def test_resume_requires_trainer_state(tmp_path):
    vocab, _, _ = toy_setup()
    model = toy_model(vocab)
    model.save(tmp_path / "bare.ckpt")
    with pytest.raises(ValueError, match="trainer state"):
        Trainer.resume(tmp_path / "bare.ckpt", vocab, [], [])


def test_run_writes_best_and_last(tmp_path):
    vocab, tr_utts, dev_utts = toy_setup()
    trainer = Trainer(toy_model(vocab), vocab, tr_utts, dev_utts,
                      TrainConfig(epochs=2, batch_size=4, lr=0.05))
    trainer.run(checkpoint_dir=tmp_path / "run", run_meta={"task": "toy"})
    assert (tmp_path / "run" / "last.ckpt").exists()
    assert (tmp_path / "run" / "best.ckpt").exists()
    back = Trainer.resume(tmp_path / "run" / "last.ckpt", vocab, tr_utts,
                          dev_utts)
    assert back.epoch == 2


def test_lr_floor_stops_training():
    vocab, tr_utts, dev_utts = toy_setup(n_train=6, n_dev=2)
    # tiny floor gap: first halving lands on the floor, next bad epoch stops
    trainer = Trainer(toy_model(vocab), vocab, tr_utts, dev_utts,
                      TrainConfig(epochs=50, batch_size=4, lr=1e-6,
                                  min_lr=1e-6, halving_patience=1))
    trainer.optimizer.report_dev(1.0)
    trainer.optimizer.report_dev(2.0)  # no improvement at the floor
    assert trainer.optimizer.should_stop
    history = trainer.run()
    assert history == []  # run() respects the stop flag immediately


def _reference_step(model, batch, paths, beta):
    """Mean joint loss and parameter gradients, one utterance at a time."""
    cfg = ParConfig(beta=beta)
    unfused.zero_grads(model.params)
    total = 0.0
    for i, ids in enumerate(batch.targets):
        lat = model.forward_lattice(batch.feats[i, :batch.feat_lengths[i]], ids)
        loss = transducer_loss(lat, validate=False)
        if beta > 0.0:
            loss = ad.add(loss, ad.scale(par_loss(lat, paths[i], cfg), beta))
        ad.scale(loss, 1.0 / len(batch.targets)).backward()
        total += loss.item()
    grads = {k: p.grad.copy() for k, p in model.params.items()}
    return total / len(batch.targets), grads


@pytest.mark.parametrize("window", [("10", "5"), ("inf", "inf")])
@pytest.mark.parametrize("beta", [0.0, 10.0])
@pytest.mark.parametrize("batch_size", [1, 2, 3, 4])
def test_train_batch_matches_per_utterance_reference(batch_size, beta, window):
    vocab, tr_utts, dev_utts = toy_setup(noise=0.3, n_train=8)
    trainer = Trainer(toy_model(vocab, seed=4, window=window, n_enc_blocks=2), vocab,
                      tr_utts, dev_utts,
                      TrainConfig(epochs=1, batch_size=batch_size, beta=beta))
    # the longest batch mixes lengths, so padding is exercised
    bi = max(range(len(trainer.batches)),
             key=lambda i: np.ptp(trainer.batches[i].feat_lengths))
    batch = trainer.batches[bi]
    paths = trainer.paths[bi] if trainer.paths is not None else None
    want_loss, want_grads = _reference_step(trainer.model, batch, paths, beta)
    stats = trainer.train_batch(batch, paths)
    assert stats["joint"] == pytest.approx(want_loss, rel=1e-10)
    norm = 0.0
    for name, p in trainer.model.params.items():
        scale = max(np.abs(want_grads[name]).max(), 1e-300)
        assert np.abs(p.grad - want_grads[name]).max() <= 1e-10 * scale, name
        norm += float((want_grads[name] ** 2).sum())
    assert stats["grad_norm"] == pytest.approx(np.sqrt(norm), rel=1e-10)


def _oracle_train_batch(trainer, batch, paths):
    """``Trainer.train_batch`` with the regularized loss composed on the tape
    from the transducer loss and the unfused path regularizer."""
    n = len(batch.targets)
    lat = trainer.model.forward_lattice(batch.feats, batch.targets, training=True,
                                        rng=trainer.rng, lengths=batch.feat_lengths)
    base = transducer_loss(lat, validate=False)
    reg = unfused.par_loss(lat, paths, trainer.par_cfg)
    per_utt = ad.add(base, ad.scale(reg, trainer.par_cfg.beta))
    mean = ad.scale(ad.sum_all(per_utt), 1.0 / n)
    unfused.zero_grads(trainer.model.params)
    mean.backward()
    grad_norm = np.sqrt(sum(float(np.vdot(p.grad, p.grad))
                            for p in trainer.model.params.values()))
    trainer.optimizer.step()
    return {"transducer": float(base.data.sum()) / n, "par": float(reg.data.sum()) / n,
            "joint": mean.item(), "grad_norm": grad_norm}


def test_regularized_steps_match_unfused_composition_bitwise(tmp_path):
    vocab, tr_utts, dev_utts = toy_setup(noise=0.3, n_train=12)
    runs = {}
    for name, step in (("fused", None), ("oracle", _oracle_train_batch)):
        metrics = tmp_path / f"{name}.csv"
        trainer = Trainer(toy_model(vocab, seed=7, dropout=0.1, window=("2", "1"),
                                    n_enc_blocks=2),
                          vocab, tr_utts, dev_utts,
                          TrainConfig(epochs=1, batch_size=4, beta=10.0,
                                      optimizer="noam", warmup_steps=4),
                          metrics_path=str(metrics))
        history = []
        for i in range(3):
            batch, paths = trainer.batches[i], trainer.paths[i]
            if step is None:
                stats = trainer.train_batch(batch, paths)
            else:
                stats = step(trainer, batch, paths)
            history.append(stats)
            trainer._write_row(i + 1, trainer.optimizer.lr, stats["transducer"],
                               stats["par"], stats["joint"])
        runs[name] = (trainer.model.params, history, metrics.read_text())
    (params, stats, csv_text), (want_params, want_stats, want_csv) = runs["fused"], runs["oracle"]
    assert stats == want_stats
    assert csv_text == want_csv
    assert csv_text.count("\n") == 4
    for name, p in params.items():
        np.testing.assert_array_equal(p.data, want_params[name].data, err_msg=name)


def _assert_params_in_arena(trainer):
    arena = trainer.optimizer.arena
    for name, p in trainer.model.params.items():
        assert np.shares_memory(p.data, arena.data), name
        assert np.shares_memory(p.grad, arena.grad), name


@pytest.mark.parametrize("optimizer", ["sgd", "noam"])
def test_parameters_live_in_the_arena_after_build_and_resume(tmp_path, optimizer):
    vocab, tr_utts, dev_utts = toy_setup()
    trainer = Trainer(toy_model(vocab, seed=2), vocab, tr_utts, dev_utts,
                      TrainConfig(epochs=1, batch_size=4, optimizer=optimizer))
    _assert_params_in_arena(trainer)
    trainer.run()
    trainer.save(tmp_path / "last.ckpt")
    back = Trainer.resume(tmp_path / "last.ckpt", vocab, tr_utts, dev_utts)
    _assert_params_in_arena(back)
    for name, p in back.model.params.items():
        np.testing.assert_array_equal(p.data, trainer.model.params[name].data)
    # the resumed step moves the same arena as the original run's
    batch = trainer.batches[0]
    trainer.train_batch(batch)
    back.train_batch(batch)
    for name, p in back.model.params.items():
        np.testing.assert_array_equal(p.data, trainer.model.params[name].data, err_msg=name)


def _per_parameter_step(opt):
    """The optimizer's update as a loop over parameters (``tests/unfused.py``)."""
    params = opt.params
    state = [{k: np.zeros_like(p.data) for k, p in params.items()} for _ in range(2)]

    def step():
        opt.step_count += 1
        if isinstance(opt, SGDMomentum):
            unfused.sgd_step(params, state[0], opt.lr, opt.momentum)
        else:
            unfused.noam_step(params, *state, opt.lr, opt.step_count)

    return step


@pytest.mark.parametrize("dropout", [0.0, 0.1])
@pytest.mark.parametrize("optimizer", ["sgd", "noam"])
def test_fused_steps_match_unfused_ops_and_per_parameter_updates_bitwise(
        monkeypatch, optimizer, dropout):
    # three steps through the fused sublayer ops and the arena update give
    # the bits of the unfused ops and a per-parameter update loop
    vocab, tr_utts, dev_utts = toy_setup(noise=0.3)
    runs = []
    for oracle in (False, True):
        if oracle:
            monkeypatch.setattr(ad, "ffn", unfused.ffn)
            monkeypatch.setattr(ad, "add_layer_norm", unfused.add_layer_norm)
        trainer = Trainer(toy_model(vocab, seed=5, dropout=dropout, n_enc_blocks=2),
                          vocab, tr_utts, dev_utts,
                          TrainConfig(epochs=1, batch_size=4, optimizer=optimizer,
                                      lr=0.05, warmup_steps=3))
        if oracle:
            trainer.optimizer.step = _per_parameter_step(trainer.optimizer)
        stats = [trainer.train_batch(trainer.batches[i]) for i in range(3)]
        runs.append((stats, {k: p.data.copy() for k, p in trainer.model.params.items()}))
    (stats, params), (want_stats, want_params) = runs
    assert stats == want_stats
    for name, value in params.items():
        np.testing.assert_array_equal(value, want_params[name], err_msg=name)


def test_train_step_tape_node_count(monkeypatch):
    # a train-short-shaped step: two encoder and two prediction blocks,
    # batch 4, no regularizer, dropout 0
    vocab, tr_utts, dev_utts = toy_setup()
    cfg = ModelConfig(feature_dim=4, d_m=8, n_heads=2, d_ff=16, n_enc_blocks=2,
                      n_pred_blocks=2, d_joint=8, vocab_size=vocab.size, dropout=0.0)
    trainer = Trainer(SATModel(cfg), vocab, tr_utts, dev_utts,
                      TrainConfig(epochs=1, batch_size=4, optimizer="noam"))
    counts = []
    real = ad.backward

    def counting(loss):
        seen, stack = set(), [loss._ctx]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                stack += [p for p in node.parents if isinstance(p, ad._Node)]
        counts.append(len(seen))
        real(loss)

    monkeypatch.setattr(ad, "backward", counting)
    trainer.train_batch(trainer.batches[0])
    assert len(counts) == 1 and counts[0] <= 44  # 68 with unfused sublayers


def test_batch_padding_leaves_each_utterance_unchanged():
    vocab, tr_utts, _ = toy_setup()
    model = toy_model(vocab, seed=6, window=("2", "1"), n_enc_blocks=2)
    short = min(tr_utts, key=lambda u: u.feats.shape[0])
    long = max(tr_utts, key=lambda u: u.feats.shape[0])
    alone = make_batches([short], vocab, 1)[0]
    pair = make_batches([short, long], vocab, 2)[0]
    assert pair.utt_ids[0] == short.utt_id
    n = int(alone.feat_lengths[0])
    assert n < pair.feats.shape[1]
    enc_alone = model.encoder(Tensor(alone.feats)).data[0]
    enc_pair = model.encoder(Tensor(pair.feats), lengths=pair.feat_lengths).data[0, :n]
    loss_alone = transducer_loss(model.forward_lattice(
        alone.feats, alone.targets, lengths=alone.feat_lengths)).data
    loss_pair = transducer_loss(model.forward_lattice(
        pair.feats, pair.targets, lengths=pair.feat_lengths)).data
    np.testing.assert_allclose(enc_pair, enc_alone, rtol=1e-12, atol=1e-12)
    assert loss_pair[0] == pytest.approx(loss_alone[0], rel=1e-12)


def _nan_for(utt_index, loss_too):
    """A kernel that poisons the gradient (and maybe the loss) of one
    utterance of every batch."""
    real = satkit.kernels.forward_backward

    def poisoned(log_probs, targets, t_lengths=None, u_lengths=None):
        loss, grad, alpha, beta = real(log_probs, targets, t_lengths, u_lengths)
        grad[utt_index, 0, 0, 0] = np.nan
        if loss_too:
            loss[utt_index] = np.nan
        return loss, grad, alpha, beta

    return poisoned


@pytest.mark.parametrize("loss_too", [True, False])
def test_non_finite_step_is_skipped(monkeypatch, caplog, loss_too):
    vocab, tr_utts, dev_utts = toy_setup()
    trainer = Trainer(toy_model(vocab), vocab, tr_utts, dev_utts,
                      TrainConfig(epochs=1, batch_size=4, optimizer="noam"))
    batch = trainer.batches[0]
    before = {k: p.data.copy() for k, p in trainer.model.params.items()}
    monkeypatch.setattr(satkit.kernels, "forward_backward", _nan_for(2, loss_too))
    with caplog.at_level(logging.WARNING, logger="satkit.train"):
        stats = trainer.train_batch(batch)
    assert not np.isfinite(stats["grad_norm"])
    assert trainer.skipped_steps == 1
    assert trainer.optimizer.step_count == 0
    for k, p in trainer.model.params.items():
        np.testing.assert_array_equal(p.data, before[k])
    text = caplog.text
    named = [u for u in batch.utt_ids if u in text]
    assert named == ([batch.utt_ids[2]] if loss_too else batch.utt_ids)
    # a healthy step afterwards trains as usual
    monkeypatch.undo()
    stats = trainer.train_batch(batch)
    assert np.isfinite(stats["grad_norm"]) and trainer.optimizer.step_count == 1
    assert trainer.skipped_steps == 1
