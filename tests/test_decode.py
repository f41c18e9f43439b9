"""Decoding: error-rate arithmetic, greedy/beam agreement, LM fusion,
streaming equivalence."""

import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satkit.autodiff import Tensor
from satkit.decode import (DecodeConfig, Hypothesis, beam_decode, cer,
                           corpus_cer, edit_distance, greedy_decode,
                           greedy_trace, stacked_stream, stream_decode)
from satkit.model import ModelConfig, SATModel
from satkit.ngram import BOS
from satkit.ngram import train as lm_train
from satkit.nnet import encoder_tiles
from satkit.vocab import BLANK, SOS, Vocab
from unfused import exhaustive_decode


def tiny_model(seed=0, vocab_size=6, left="inf", right="inf"):
    cfg = ModelConfig(feature_dim=3, d_m=8, n_heads=2, d_ff=16,
                      n_enc_blocks=1, n_pred_blocks=1, d_joint=8,
                      vocab_size=vocab_size, chunk_left=left, chunk_right=right,
                      dropout=0.0)
    return SATModel(cfg, seed=seed)


def random_stacked(model, t_len, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(t_len, model.config.stacked_dim))


# ---------------------------------------------------------------- error rates

def test_edit_distance_hand_cases():
    assert edit_distance("kitten", "sitting") == 3
    assert edit_distance("", "abc") == 3
    assert edit_distance("abc", "") == 3
    assert edit_distance("abc", "abc") == 0
    assert edit_distance([2, 3, 4], [2, 4]) == 1
    assert edit_distance("flaw", "lawn") == 2


@settings(max_examples=50, deadline=None)
@given(st.text("ab", max_size=8), st.text("ab", max_size=8),
       st.text("ab", max_size=8))
def test_edit_distance_is_a_metric(a, b, c):
    assert edit_distance(a, b) == edit_distance(b, a)
    assert (edit_distance(a, b) == 0) == (a == b)
    assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)
    assert abs(len(a) - len(b)) <= edit_distance(a, b) <= max(len(a), len(b))


def test_cer_values_and_empty_reference():
    assert cer("abcd", "abxd") == 0.25
    assert cer("ab", "abcd") == 1.0
    with pytest.raises(ValueError):
        cer("", "abc")


def test_corpus_cer_pools_lengths():
    refs = ["aaaa", "b"]
    hyps = ["aaaa", "c"]
    # pooled: 1 error over 5 reference symbols, not mean(0, 1)
    assert corpus_cer(refs, hyps) == 0.2
    with pytest.raises(ValueError):
        corpus_cer(["a"], ["a", "b"])
    with pytest.raises(ValueError):
        corpus_cer(["", ""], ["a", "b"])


def test_decode_config_validation():
    with pytest.raises(ValueError):
        DecodeConfig(beam_width=0)
    for weight in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="LM weight"):
            DecodeConfig(lm_weight=weight)
    with pytest.raises(ValueError):
        DecodeConfig(mode="batch")
    with pytest.raises(ValueError):
        DecodeConfig(max_symbols_per_frame=-1)


# ------------------------------------------------------------- greedy vs beam

def test_beam_width_one_matches_greedy():
    for seed in range(10):
        model = tiny_model(seed=seed)
        x = random_stacked(model, t_len=6, seed=100 + seed)
        g = greedy_decode(model, x)
        b = beam_decode(model, x, cfg=DecodeConfig(beam_width=1))
        assert list(b[0].prefix) == g, f"seed {seed}"


TOY_SPEC = dict(kind="delayed-copy", vocab_size=4, feature_dim=4,
                min_tokens=2, max_tokens=4, noise=0.3, seed=9)


def toy_vocab():
    from satkit.data import TaskSpec

    return TaskSpec(**TOY_SPEC).vocab()


def trained_toy_model(seed):
    """A briefly trained transducer: blank-dominant like any real model.

    Untrained weight soup argmaxes a label on nearly every step, so decoding
    saturates the per-frame symbol guard and the guard's forced advance
    truncates different alignments at different widths; width-monotonicity is
    a property of the natural regime where blank competes.
    """
    from satkit.data import TaskSpec, generate_split, normalize_dataset
    from satkit.train import TrainConfig, Trainer

    spec = TaskSpec(**TOY_SPEC)
    train_utts = normalize_dataset(generate_split(spec, 40, "train"))
    dev_utts = normalize_dataset(generate_split(spec, 8, "dev"))
    vocab = spec.vocab()
    mc = ModelConfig(feature_dim=4, d_m=8, n_heads=2, d_ff=16,
                     n_enc_blocks=1, n_pred_blocks=1, d_joint=8,
                     vocab_size=vocab.size, dropout=0.0)
    model = SATModel(mc, seed=seed)
    tc = TrainConfig(epochs=1, batch_size=8, seed=seed, optimizer="sgd",
                     lr=0.05)
    Trainer(model, vocab, train_utts, dev_utts, tc).run_epoch()
    return model, dev_utts


def test_beam_score_non_decreasing_in_width():
    from satkit.data import stack_downsample

    for seed in range(4):
        model, dev = trained_toy_model(seed)
        for utt in dev[:3]:
            x = stack_downsample(utt.feats.astype(np.float64), 3, 1, 3)
            scores = []
            for width in (1, 2, 4, 8):
                best = beam_decode(model, x, cfg=DecodeConfig(beam_width=width))[0]
                scores.append(best.t_score)
            for lo, hi in zip(scores, scores[1:]):
                assert hi >= lo - 1e-12, (seed, utt.utt_id, scores)


def test_wide_beam_finds_exhaustive_argmax():
    hits = 0
    for seed in range(6):
        model = tiny_model(seed=seed, vocab_size=5)
        x = random_stacked(model, t_len=3, seed=300 + seed)
        want, _ = exhaustive_decode(model, x, max_len=3, token_ids=(2, 3, 4))
        got = beam_decode(model, x, cfg=DecodeConfig(beam_width=32))[0]
        hits += list(got.prefix) == want
    assert hits >= 5, hits


def test_beam_is_deterministic():
    model = tiny_model(seed=3)
    x = random_stacked(model, t_len=6, seed=7)
    a = beam_decode(model, x, cfg=DecodeConfig(beam_width=4))
    b = beam_decode(model, x, cfg=DecodeConfig(beam_width=4))
    assert [h.prefix for h in a] == [h.prefix for h in b]
    assert [h.t_score for h in a] == [h.t_score for h in b]


def test_greedy_trace_rows_are_distributions():
    model = tiny_model(seed=1)
    x = random_stacked(model, t_len=5, seed=11)
    labels, emitted_at, trace = greedy_trace(model, x)
    assert len(labels) == len(emitted_at)
    assert emitted_at == sorted(emitted_at)
    # one trace row per joint evaluation, each a log-softmax
    assert len(trace) >= x.shape[0]
    for t, u, lp in trace:
        assert 0 <= t < x.shape[0] and 0 <= u <= len(labels)
        total = np.exp(lp).sum()
        assert total == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("window", [("inf", "inf"), ("2", "1")])
def test_greedy_trace_rows_are_tape_lattice_cells(window):
    # the row step scores each visited (t, u) as the training joint does
    model = tiny_model(seed=4, left=window[0], right=window[1])
    x = random_stacked(model, t_len=6, seed=17)
    labels, _, trace = greedy_trace(model, x)
    assert labels and len({u for _, u, _ in trace}) > 1
    enc = model.encoder(Tensor(x))
    grid = model.joint.log_probs(enc, model.prednet(labels)).data
    for t, u, lp in trace:
        np.testing.assert_allclose(lp, grid[t, u], rtol=0, atol=1e-12)


@pytest.mark.parametrize("max_symbols", [0, 1, 2, 10])
def test_greedy_tile_size_changes_no_decision(caplog, max_symbols):
    # a matrix enters greedy search in 64-row chunks, scored in look-ahead
    # tiles; a stream of the same rows in one-row chunks, one frame a
    # forward: labels, frames, every trace row and the guard's warnings agree
    emitted = guards = 0
    for seed in range(4):
        model = tiny_model(seed=seed, left=3, right=1)
        x = random_stacked(model, t_len=150, seed=800 + seed)
        runs = []
        for stacked in (x, iter(x)):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="satkit.decode"):
                labels, frames, trace = greedy_trace(model, stacked, max_symbols)
            warned = [r.getMessage() for r in caplog.records if "symbol guard" in r.getMessage()]
            runs.append((labels, frames, trace, warned))
        (labels, frames, trace, warned), (s_labels, s_frames, s_trace, s_warned) = runs
        assert labels == s_labels and frames == s_frames, seed
        assert [(t, u) for t, u, _ in trace] == [(t, u) for t, u, _ in s_trace], seed
        assert all(np.array_equal(a, b) for (_, _, a), (_, _, b) in zip(trace, s_trace)), seed
        assert warned == s_warned, seed
        # one step per emission and one per frame that a blank leaves
        assert len(trace) == len(labels) + len(x) - len(warned)
        emitted += len(labels)
        guards += len(warned)
    if max_symbols == 0:  # nothing is scored and every frame warns
        assert (emitted, guards) == (0, 4 * 150)
    else:
        assert emitted and guards


def test_greedy_scores_a_blank_run_in_look_ahead_tiles(monkeypatch):
    # 64 frames in one encoder chunk with no emission cost ceil(64 / L) joint
    # forwards, not one per frame; each frame is still one trace step
    import satkit.autodiff
    import satkit.decode as dec

    model = tiny_model(seed=5, left=3, right=1)
    x = random_stacked(model, t_len=64, seed=19)
    joint_forward = satkit.autodiff.joint_forward
    calls = []

    def counting_joint_forward(*args, **kwargs):
        calls.append(len(args[0]))
        return joint_forward(*args, **kwargs)

    monkeypatch.setattr(satkit.autodiff, "joint_forward", counting_joint_forward)
    monkeypatch.setattr(dec, "_best_label", lambda lp: BLANK)
    labels, _, trace = greedy_trace(model, x)
    assert labels == [] and [t for t, _, _ in trace] == list(range(64))
    assert len(calls) == math.ceil(64 / dec._LOOK_AHEAD) <= 8, calls


def test_symbol_guard_bounds_emissions(monkeypatch):
    import satkit.decode as dec

    model = tiny_model(seed=2)
    x = random_stacked(model, t_len=4, seed=13)
    # blank can never win the argmax
    monkeypatch.setattr(dec, "_best_label", lambda lp: 4)
    labels = greedy_decode(model, x, max_symbols=3)
    assert labels == [4] * (4 * 3)
    monkeypatch.undo()
    hyps = beam_decode(model, x, cfg=DecodeConfig(beam_width=2,
                                                  max_symbols_per_frame=3))
    assert hyps and all(len(h.prefix) <= 4 * 3 for h in hyps)


# ------------------------------------------------------ beam reference oracle

def _reference_beam(model, stacked, lm=None, vocab=None, cfg=None):
    """The beam loop before array scoring and caching, kept verbatim as an
    oracle: one log-prob row, K label expansions, one ``lm.score`` per
    (hypothesis, label) and one ``advance_np`` per surviving expansion.
    Rows are scored one at a time through a one-row joint row step."""
    cfg = cfg or DecodeConfig()
    rows = np.concatenate(list(encoder_tiles(model.encoder, stacked)))
    scorer = model.joint.row_step(1)
    width = cfg.beam_width

    def lm_extend(prefix, label):
        strings = tuple(vocab.tokens[i] for i in prefix)
        return lm.score((BOS,) + strings, vocab.tokens[label])

    init = Hypothesis(prefix=(), state=model.prednet.init_state())
    active = {(): (init, scorer.g_parts(init.state.g[None])[0])}
    final = []
    for t in range(len(rows)):
        f_part = scorer.f_parts(rows[t][None])[0]
        settled = {}
        for step in range(cfg.max_symbols_per_frame + 1):
            expand = step < cfg.max_symbols_per_frame
            expansions = {}
            for prefix, (hyp, g_part) in active.items():
                lp = scorer.log_probs(f_part, g_part[None])[0]
                blank_score = hyp.t_score + lp[BLANK]
                if prefix in settled:
                    s = settled[prefix][0]
                    s.t_score = np.logaddexp(s.t_score, blank_score)
                else:
                    settled[prefix] = (
                        Hypothesis(prefix, hyp.state, blank_score, hyp.lm_score),
                        g_part)
                if not expand:
                    continue
                for k in range(len(lp)):
                    if k in (BLANK, SOS):
                        continue
                    child = prefix + (k,)
                    score = hyp.t_score + lp[k]
                    if child in expansions:
                        c = expansions[child][0]
                        c.t_score = np.logaddexp(c.t_score, score)
                    else:
                        lm_inc = lm_extend(prefix, k) if lm is not None else 0.0
                        expansions[child] = (
                            Hypothesis(child, (hyp.state, k), score,
                                       hyp.lm_score + lm_inc),
                            None)
            if not expansions:
                break
            union = list(settled.items()) + list(expansions.items())
            union.sort(key=lambda kv: (-kv[1][0].combined(cfg.lm_weight), kv[0]))
            keep = {prefix for prefix, _ in union[:width]}
            settled = {p: v for p, v in settled.items() if p in keep}
            survivors = {p: v for p, v in expansions.items() if p in keep}
            if not survivors:
                break
            active = {}
            for prefix, (hyp, _) in survivors.items():
                parent_state, k = hyp.state
                hyp.state = model.prednet.advance_np(parent_state, k)
                active[prefix] = (hyp, scorer.g_parts(hyp.state.g[None])[0])
        ranked = sorted(settled.items(),
                        key=lambda kv: (-kv[1][0].combined(cfg.lm_weight), kv[0]))
        active = dict(ranked[:width])
        final = [hyp for _, (hyp, _) in ranked[:width]]
    return final


def _bits(hyps):
    return [(h.prefix, h.t_score, h.lm_score) for h in hyps]


def _assert_matches_reference(model, x, lm=None, vocab=None, cfg=None, tag=None):
    got = _bits(beam_decode(model, x, lm=lm, vocab=vocab, cfg=cfg))
    want = _bits(_reference_beam(model, x, lm=lm, vocab=vocab, cfg=cfg))
    assert got == want, tag
    return got


def test_beam_matches_reference_oracle(caplog):
    caplog.set_level(logging.ERROR, logger="satkit.decode")
    vocab, lm = lm_fixture()
    fusions = [(None, 0.0), (lm, 0.0), (lm, 0.5), (lm, 50.0)]
    for seed in range(10):
        model = tiny_model(seed=seed, vocab_size=vocab.size)
        x = random_stacked(model, t_len=5, seed=700 + seed)
        for width in (1, 2, 4, 8):
            for fused, weight in fusions:
                cfg = DecodeConfig(beam_width=width, lm_weight=weight)
                _assert_matches_reference(model, x, fused, vocab, cfg,
                                          (seed, width, fused is None, weight))


def test_blank_dominant_beam_matches_reference_oracle():
    from satkit.data import stack_downsample

    model, dev = trained_toy_model(0)
    vocab = toy_vocab()
    lm = lm_train([u.targets for u in dev], order=3)
    multi_label = 0
    for utt in dev[:4]:
        x = stack_downsample(utt.feats.astype(np.float64), 3, 1, 3)
        for width in (1, 2, 4, 8):
            for fused, weight in ((None, 0.0), (lm, 0.5), (lm, 50.0)):
                cfg = DecodeConfig(beam_width=width, lm_weight=weight)
                got = _assert_matches_reference(model, x, fused, vocab, cfg,
                                                (utt.utt_id, width, weight))
                multi_label += any(len(prefix) > 1 for prefix, _, _ in got)
    assert multi_label, "no hypothesis holds more than one label"


def test_beam_reuses_prediction_states_and_lm_rows(monkeypatch):
    """Multi-frame width-4 search with an LM: fewer prediction-net advances
    than the reference, at most K-2 LM queries per LM context, same bits."""
    from satkit.data import stack_downsample

    model, dev = trained_toy_model(1)
    vocab = toy_vocab()
    lm = lm_train([u.targets for u in dev], order=3)
    x = stack_downsample(dev[0].feats.astype(np.float64), 3, 1, 3)
    assert x.shape[0] > 4
    cfg = DecodeConfig(beam_width=4, lm_weight=0.5)
    advance, score, score_row = model.prednet.advance_many, lm.score, lm.score_row
    counts = {"advance": 0}
    contexts = {}

    def counting_advance(states, tokens, step=None):
        counts["advance"] += len(states)
        return advance(states, tokens, step)

    def count_queries(context, n):
        tail = tuple(context)[max(0, len(context) - (lm.order - 1)):]
        contexts[tail] = contexts.get(tail, 0) + n

    def counting_score(context, token):
        count_queries(context, 1)
        return score(context, token)

    def counting_score_row(context, tokens):
        count_queries(context, len(tokens))
        return score_row(context, tokens)

    monkeypatch.setattr(model.prednet, "advance_many", counting_advance)
    monkeypatch.setattr(lm, "score", counting_score)
    monkeypatch.setattr(lm, "score_row", counting_score_row)
    want = _bits(_reference_beam(model, x, lm=lm, vocab=vocab, cfg=cfg))
    reference_advances, reference_scores = counts["advance"], sum(contexts.values())
    counts["advance"] = 0
    contexts.clear()
    got = _bits(beam_decode(model, x, lm=lm, vocab=vocab, cfg=cfg))
    assert got == want
    assert 0 < counts["advance"] < reference_advances
    assert max(contexts.values()) <= vocab.size - 2, contexts
    assert sum(contexts.values()) < reference_scores


def test_beam_step_makes_one_joint_forward_and_at_most_one_advance(monkeypatch):
    """Beam-4 with an LM: every (frame, step) scores its active hypotheses in
    one joint forward, and advances its uncached survivors in at most one
    ``advance_many`` call, none when all are cached."""
    import satkit.autodiff
    from satkit.data import stack_downsample
    from satkit.lattice import JointRows

    model, dev = trained_toy_model(1)
    vocab = toy_vocab()
    lm = lm_train([u.targets for u in dev], order=3)
    cfg = DecodeConfig(beam_width=4, lm_weight=0.5)
    events = []
    f_parts, log_probs = JointRows.f_parts, JointRows.log_probs
    joint_forward, advance = satkit.autodiff.joint_forward, model.prednet.advance_many
    prefixes = {}  # id of an advanced state -> its prefix

    def counting_f_parts(self, enc_rows):
        events.append(("frames", len(enc_rows)))
        return f_parts(self, enc_rows)

    def counting_log_probs(self, f, g_parts):
        events.append(("rows", len(g_parts)))
        return log_probs(self, f, g_parts)

    def counting_joint_forward(*args, **kwargs):
        events.append(("joint", 0))
        return joint_forward(*args, **kwargs)

    def counting_advance(states, tokens, step=None):
        out = advance(states, tokens, step)
        children = [prefixes.get(id(s), ()) + (() if t is None else (t,))
                    for s, t in zip(states, tokens)]
        prefixes.update((id(s), c) for s, c in zip(out, children))
        events.append(("advance", children))
        return out

    monkeypatch.setattr(JointRows, "f_parts", counting_f_parts)
    monkeypatch.setattr(JointRows, "log_probs", counting_log_probs)
    monkeypatch.setattr(satkit.autodiff, "joint_forward", counting_joint_forward)
    monkeypatch.setattr(model.prednet, "advance_many", counting_advance)
    for utt in dev[:3]:
        x = stack_downsample(utt.feats.astype(np.float64), 3, 1, 3)
        events.clear()
        want = _bits(_reference_beam(model, x, lm=lm, vocab=vocab, cfg=cfg))
        # the reference scores one row per call: a step is a run of them
        steps, rows = [], 0
        for kind, n in events:
            if kind == "rows":
                rows += n
            elif kind != "joint" and rows:
                steps.append(rows)
                rows = 0
        steps.append(rows)
        events.clear()
        assert _bits(beam_decode(model, x, lm=lm, vocab=vocab, cfg=cfg)) == want
        kinds = [kind for kind, _ in events]
        assert sum(n for kind, n in events if kind == "frames") == len(x)
        # one joint forward per step, over the step's active hypotheses
        assert [n for kind, n in events if kind == "rows"] == steps
        assert kinds.count("joint") == len(steps)
        assert all(kinds[i + 1] == "joint" for i, k in enumerate(kinds) if k == "rows")
        # at most one advance per step, never an empty one, never a prefix twice
        advanced = [c for kind, children in events if kind == "advance" for c in children]
        between = "".join("s" if k == "rows" else "a" if k == "advance" else "" for k in kinds)
        assert "aa" not in between
        assert all(children for kind, children in events if kind == "advance")
        assert len(advanced) == len(set(advanced))
        assert 0 < between.count("a") < between.count("s") - 1


def test_each_search_reads_the_current_weights(tmp_path, caplog):
    # an optimizer step between two searches updates the weights in place;
    # greedy, beam and streaming searches then decode bit for bit like a
    # freshly loaded copy, so no search reuses weights an earlier one read
    from satkit.data import TaskSpec, generate_split, normalize_dataset, stack_downsample
    from satkit.train import TrainConfig, Trainer

    caplog.set_level(logging.ERROR, logger="satkit.decode")
    spec = TaskSpec(**TOY_SPEC)
    utts = normalize_dataset(generate_split(spec, 8, "train"))
    vocab = spec.vocab()
    lm = lm_train([u.targets for u in utts], order=3)
    mc = ModelConfig(feature_dim=4, d_m=8, n_heads=2, d_ff=16, n_enc_blocks=1,
                     n_pred_blocks=2, d_joint=8, vocab_size=vocab.size,
                     chunk_left="3", chunk_right="1", dropout=0.0)
    model = SATModel(mc, seed=5)
    trainer = Trainer(model, vocab, utts, utts[:1],
                      TrainConfig(epochs=1, batch_size=4, seed=5, optimizer="sgd", lr=0.05))
    raw = utts[0].feats.astype(np.float64)
    x = stack_downsample(raw, 3, 1, 3)
    cfg = DecodeConfig(beam_width=3, lm_weight=0.5)

    def decode(m):
        labels, frames, trace = greedy_trace(m, x)
        return ((labels, frames, [(t, u, lp.tolist()) for t, u, lp in trace]),
                _bits(beam_decode(m, x, lm=lm, vocab=vocab, cfg=cfg)),
                list(stream_decode(m, iter(raw))),
                _bits(beam_decode(m, stacked_stream(m, iter(raw)), lm=lm, vocab=vocab,
                                  cfg=cfg)))

    before = decode(model)
    w_q = model.prednet.blocks[1].w_q.data
    old = w_q.copy()
    trainer.train_batch(trainer.batches[0])
    assert model.prednet.blocks[1].w_q.data is w_q and not np.array_equal(w_q, old)
    model.save(tmp_path / "m.ckpt")
    fresh, _, _ = SATModel.load(tmp_path / "m.ckpt")
    after = decode(model)
    assert after == decode(fresh)
    assert after[0][2] != before[0][2] and after[1] != before[1]


def test_lm_rows_are_built_once_per_lm(monkeypatch):
    # a second beam search over the same LM looks up no context that an
    # earlier search saw: the same utterance makes no lookup at all
    import satkit.ngram
    from satkit.data import stack_downsample

    model, dev = trained_toy_model(1)
    vocab = toy_vocab()
    lm = lm_train([u.targets for u in dev], order=3)
    cfg = DecodeConfig(beam_width=4, lm_weight=0.5)
    xs = [stack_downsample(u.feats.astype(np.float64), 3, 1, 3) for u in dev[:3]]
    lookup, contexts = satkit.ngram._lookup, []

    def counting_lookup(probs, chain, tok):
        contexts.append(chain[0][0])
        return lookup(probs, chain, tok)

    monkeypatch.setattr(satkit.ngram, "_lookup", counting_lookup)
    first = _bits(beam_decode(model, xs[0], lm=lm, vocab=vocab, cfg=cfg))
    seen = set(contexts)
    assert seen
    contexts.clear()
    assert _bits(beam_decode(model, xs[0], lm=lm, vocab=vocab, cfg=cfg)) == first
    assert contexts == []
    for x in xs[1:]:
        beam_decode(model, x, lm=lm, vocab=vocab, cfg=cfg)
        assert not seen & set(contexts)
        seen.update(contexts)
        contexts.clear()


class _Counted:
    """Stands in for a prediction network the way satbench's tracer proxy
    does: each listed method is a counting wrapper of the network's bound
    method, and any other attribute is the network's."""

    def __init__(self, net, names):
        self._net = net
        self.rows = {name: [] for name in names}
        for name in names:
            def counted(*args, fn=getattr(net, name), rows=self.rows[name], name=name):
                rows.append(len(args[0]) if name == "advance_many" else 1)
                return fn(*args)
            setattr(self, name, counted)

    def __getattr__(self, attr):
        return getattr(self._net, attr)


def test_searches_advance_through_the_network_methods(monkeypatch, caplog):
    # satbench traces advances by wrapping model.prednet's methods from
    # outside: greedy and streaming searches call init_state once and
    # advance_np once per emission, and the beam calls init_state once and
    # advance_many for its new children
    caplog.set_level(logging.ERROR, logger="satkit.decode")
    vocab, lm = lm_fixture()
    model = tiny_model(seed=2, vocab_size=vocab.size, left=3, right=1)
    raw = np.random.default_rng(42).normal(size=(30, model.config.feature_dim))
    names = ("init_state", "advance_np", "advance_many")
    net = model.prednet
    for search in ("greedy", "stream", "beam"):
        counted = _Counted(net, names)
        monkeypatch.setattr(model, "prednet", counted)
        if search == "beam":
            hyps = beam_decode(model, stacked_stream(model, iter(raw)), lm=lm, vocab=vocab,
                               cfg=DecodeConfig(beam_width=3, lm_weight=0.5))
            assert hyps and max(len(h.prefix) for h in hyps) > 0
            assert counted.rows["init_state"] == [1] and counted.rows["advance_np"] == []
            assert counted.rows["advance_many"] and all(counted.rows["advance_many"])
        else:
            emitted = (greedy_decode(model, stacked_stream(model, iter(raw))) if search == "greedy"
                       else list(stream_decode(model, iter(raw))))
            assert emitted
            assert counted.rows == {"init_state": [1], "advance_np": [1] * len(emitted),
                                    "advance_many": []}, search
        monkeypatch.undo()


# ------------------------------------------------------------------ LM fusion

def lm_fixture():
    vocab = Vocab.build(["a", "b", "c"])
    corpus = [["a", "b"], ["a", "b"], ["a", "c"]]
    return vocab, lm_train(corpus, order=2, discount=0.75)


def test_zero_weight_fusion_matches_plain_beam():
    vocab, lm = lm_fixture()
    for seed in range(5):
        model = tiny_model(seed=seed, vocab_size=vocab.size)
        x = random_stacked(model, t_len=5, seed=400 + seed)
        plain = beam_decode(model, x, cfg=DecodeConfig(beam_width=3))
        fused = beam_decode(model, x, lm=lm, vocab=vocab,
                            cfg=DecodeConfig(beam_width=3, lm_weight=0.0))
        assert [h.prefix for h in plain] == [h.prefix for h in fused]
        assert [h.t_score for h in plain] == [h.t_score for h in fused]


def test_lm_scores_accumulate_prefix_logprob():
    vocab, lm = lm_fixture()
    model = tiny_model(seed=4, vocab_size=vocab.size)
    x = random_stacked(model, t_len=5, seed=17)
    hyps = beam_decode(model, x, lm=lm, vocab=vocab,
                       cfg=DecodeConfig(beam_width=4, lm_weight=0.5))
    checked = 0
    for h in hyps:
        toks = [vocab.tokens[i] for i in h.prefix]
        want = 0.0
        for i, tok in enumerate(toks):
            want += lm.score((BOS,) + tuple(toks[:i]), tok)
        assert h.lm_score == pytest.approx(want, rel=1e-12)
        checked += len(h.prefix) > 0
    assert checked, "no non-empty hypotheses to check"


def test_heavy_lm_weight_steers_ranking():
    vocab, lm = lm_fixture()
    model = tiny_model(seed=6, vocab_size=vocab.size)
    x = random_stacked(model, t_len=6, seed=23)
    free = beam_decode(model, x, cfg=DecodeConfig(beam_width=8))
    fused = beam_decode(model, x, lm=lm, vocab=vocab,
                        cfg=DecodeConfig(beam_width=8, lm_weight=50.0))
    # at huge weight the ranking is the LM's, not the transducer's
    order_free = [h.prefix for h in free]
    order_fused = [h.prefix for h in fused]
    assert order_free != order_fused
    key = [h.combined(50.0) for h in fused]
    assert key == sorted(key, reverse=True)


def test_fusion_requires_vocab():
    vocab, lm = lm_fixture()
    model = tiny_model(seed=0, vocab_size=vocab.size)
    x = random_stacked(model, t_len=3, seed=1)
    with pytest.raises(ValueError):
        beam_decode(model, x, lm=lm)


# ------------------------------------------------------------------ streaming

def test_stream_decode_matches_offline_bitwise():
    from satkit.data import stack_downsample

    for seed in range(6):
        model = tiny_model(seed=seed, left=3, right=1)
        rng = np.random.default_rng(500 + seed)
        raw = rng.normal(size=(25, model.config.feature_dim))
        stacked = stack_downsample(raw, 3, 1, 3)
        # offline greedy reads the same encoder rows, in tiles
        offline_labels, offline_frames, _ = greedy_trace(model, stacked)
        got = list(stream_decode(model, iter(raw)))
        assert [k for _, k in got] == offline_labels, f"seed {seed}"
        assert [t for t, _ in got] == offline_frames, f"seed {seed}"


def test_stream_decode_uses_the_model_stacking():
    # (2, 2) stacking has the width of the default (3, 1), so only reading
    # the model's config tells them apart
    from satkit.data import stack_downsample

    cfg = ModelConfig(feature_dim=3, d_m=8, n_heads=2, d_ff=16,
                      n_enc_blocks=1, n_pred_blocks=1, d_joint=8, vocab_size=6,
                      chunk_left="3", chunk_right="1", stack_left=2,
                      stack_right=2, dropout=0.0)
    model = SATModel(cfg, seed=4)
    rng = np.random.default_rng(41)
    emitted = 0
    for i in range(20):
        raw = rng.normal(size=(40, cfg.feature_dim))
        labels, frames, _ = greedy_trace(model, stack_downsample(raw, 2, 2, 3))
        got = list(stream_decode(model, iter(raw)))
        assert [k for _, k in got] == labels, i
        assert [t for t, _ in got] == frames, i
        emitted += len(labels)
    assert emitted > 0


def test_streaming_beam_matches_offline_bitwise(caplog):
    # the beam over a raw-frame stream reads the same encoder rows as
    # offline: hypotheses and both scores agree bit for bit
    from satkit.data import stack_downsample

    caplog.set_level(logging.ERROR, logger="satkit.decode")
    vocab, lm = lm_fixture()
    for seed in range(6):
        model = tiny_model(seed=seed, vocab_size=vocab.size, left=3, right=1)
        raw = np.random.default_rng(600 + seed).normal(
            size=(30, model.config.feature_dim))
        for width, fused in ((1, None), (3, lm), (6, lm)):
            cfg = DecodeConfig(beam_width=width, lm_weight=0.5)
            offline = beam_decode(model, stack_downsample(raw, 3, 1, 3),
                                  lm=fused, vocab=vocab, cfg=cfg)
            streamed = beam_decode(model, stacked_stream(model, iter(raw)),
                                   lm=fused, vocab=vocab, cfg=cfg)
            assert offline and _bits(streamed) == _bits(offline), (seed, width)


def test_stream_decode_emission_lag():
    # an emission at stacked frame s arrives once raw frame
    # factor*(s + B*right) + stack_right is in, or at end of stream
    cfg = ModelConfig(feature_dim=3, d_m=8, n_heads=2, d_ff=16,
                      n_enc_blocks=2, n_pred_blocks=1, d_joint=8, vocab_size=6,
                      chunk_left="3", chunk_right="2", dropout=0.0)
    model = SATModel(cfg, seed=3)
    raw = np.random.default_rng(8).normal(size=(60, 3))
    pulled = 0

    def source():
        nonlocal pulled
        for frame in raw:
            pulled += 1
            yield frame

    seen = 0
    for s, _k in stream_decode(model, source()):
        assert pulled == min(len(raw), 3 * (s + 2 * 2) + 1 + 1), s
        seen += 1
    assert seen > 0


def test_stream_state_is_bounded():
    # 6000 raw frames: memory held at the end is within 4 KB of that a
    # quarter in, so the raw ring and every block's row cache keep a fixed
    # size (keeping one row per frame would add hundreds of KB)
    import tracemalloc

    cfg = ModelConfig(feature_dim=3, d_m=8, n_heads=2, d_ff=16,
                      n_enc_blocks=2, n_pred_blocks=1, d_joint=8, vocab_size=6,
                      chunk_left="4", chunk_right="2", dropout=0.0)
    model = SATModel(cfg, seed=0)
    rng = np.random.default_rng(7)
    frames = (rng.normal(size=3) for _ in range(6000))
    n_rows, held = 0, {}
    tracemalloc.start()
    try:
        for rows in encoder_tiles(model.encoder, stacked_stream(model, frames)):
            n_rows += len(rows)
            if n_rows in (500, 2000):
                held[n_rows] = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert n_rows == 2000
    assert held[2000] - held[500] < 4096, held


def test_stream_decode_empty_and_validation():
    model = tiny_model(seed=0, left=2, right=1)
    assert list(stream_decode(model, iter([]))) == []
    unbounded = tiny_model(seed=0)
    frames = np.zeros((6, unbounded.config.feature_dim))
    with pytest.raises(ValueError):
        list(stream_decode(unbounded, iter(frames)))


def test_unbounded_window_decodes_only_a_matrix():
    # under an unbounded window a matrix decodes, each row attending over
    # every row, and a stream, whose later rows are not there yet, is refused
    model = tiny_model(seed=0)
    x = random_stacked(model, t_len=4, seed=3)
    with pytest.raises(ValueError, match="needs a bounded chunk window"):
        greedy_decode(model, iter(x))
    # matrix path still fine
    rows = np.concatenate(list(encoder_tiles(model.encoder, x)))
    np.testing.assert_allclose(rows, model.encoder(Tensor(x)).data, rtol=0, atol=1e-12)
    assert isinstance(greedy_decode(model, x), list)
    assert beam_decode(model, x)


def test_streams_need_a_bounded_window():
    # every stream raises under an unbounded window; under a bounded one a
    # matrix, which enters the encoder in tiles, and the same rows as a
    # stream, one row at a time, give the same bits, because a row's bits do
    # not depend on how the rows are grouped
    unbounded = tiny_model(seed=0)
    x = random_stacked(unbounded, t_len=6, seed=3)
    raw = np.random.default_rng(4).normal(size=(12, unbounded.config.feature_dim))
    calls = [lambda: greedy_decode(unbounded, iter(x)),
             lambda: beam_decode(unbounded, stacked_stream(unbounded, iter(raw))),
             lambda: list(stream_decode(unbounded, iter(raw)))]
    for call in calls:
        with pytest.raises(ValueError, match="needs a bounded chunk window"):
            call()
    bounded = tiny_model(seed=0, left=2, right=1)
    matrix = np.concatenate(list(encoder_tiles(bounded.encoder, x)))
    assert np.array_equal(np.concatenate(list(encoder_tiles(bounded.encoder, iter(x)))), matrix)
    assert greedy_decode(bounded, iter(x)) == greedy_decode(bounded, x)
    assert _bits(beam_decode(bounded, iter(x))) == _bits(beam_decode(bounded, x))


def test_decode_chunk_override_changes_rows():
    from satkit.nnet import ChunkSpec

    model = tiny_model(seed=5, left=2, right=1)
    x = random_stacked(model, t_len=8, seed=9)
    base = greedy_trace(model, x)[2]
    model.encoder.chunk = ChunkSpec(4, 2)
    wider = greedy_trace(model, x)[2]
    assert any(not np.array_equal(a[2], b[2]) for a, b in zip(base, wider))
