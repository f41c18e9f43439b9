"""Absolute-discounting n-gram model: hand-computed probabilities, exact
normalization, round trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satkit.ngram import BOS, EOS, UNK_TOK, NgramModel, train


def test_hand_computed_single_sentence_model():
    # corpus "a b", order 2, discount 0.75
    # unigrams: counts a/b/</s> = 1 each, total 3, vocab {a, b, </s>, <unk>}
    # P1(x) = (1 - 0.75)/3 + (0.75 * 3/3) * 1/4 = 0.27083333...
    m = train([["a", "b"]], order=2, discount=0.75)
    p1b = m.prob((), "b")
    assert p1b == pytest.approx(0.25 / 3 + 0.75 * 0.25, rel=1e-12)
    assert p1b == pytest.approx(0.2708333333333333, rel=1e-10)
    # bigram: P(b|a) = (1 - 0.75)/1 + 0.75 * P1(b) = 0.453125
    assert m.prob(("a",), "b") == pytest.approx(0.453125, rel=1e-12)
    assert m.prob((BOS,), "a") == pytest.approx(0.453125, rel=1e-12)
    # unk carries the leftover uniform share: 0.75 * 1/4
    assert m.prob((), UNK_TOK) == pytest.approx(0.1875, rel=1e-12)
    assert m.prob((), "never-seen") == m.prob((), UNK_TOK)


def test_unigram_distribution_sums_to_one_exactly():
    m = train([["a", "b"]], order=2, discount=0.75)
    total = sum(m.prob((), tok) for tok in m.vocab)
    assert total == pytest.approx(1.0, abs=1e-12)


def _contexts(m, corpus):
    seen = {()}
    for sent in corpus:
        toks = [BOS] * (m.order - 1) + list(sent) + [EOS]
        for i in range(len(toks)):
            for k in range(1, m.order):
                if i + k <= len(toks):
                    seen.add(tuple(toks[i:i + k]))
    seen.add(("held-out-context",))
    seen.add(("held-out", "pair"))
    return seen


@settings(max_examples=25, deadline=None)
@given(st.lists(st.lists(st.sampled_from("abcde"), min_size=1, max_size=6),
                min_size=1, max_size=8),
       st.integers(1, 4))
def test_every_context_normalizes(corpus, order):
    m = train(corpus, order=order, discount=0.75)
    for ctx in _contexts(m, corpus):
        total = sum(m.prob(ctx, tok) for tok in m.vocab)
        assert total == pytest.approx(1.0, abs=1e-9), ctx


def test_seen_context_hit_path_is_fully_interpolated():
    # the stored bigram already folds the unigram share in, so a hit must
    # exceed the raw discounted relative frequency
    m = train([["a", "b"], ["a", "c"]], order=2, discount=0.75)
    raw = (1 - 0.75) / 2
    assert m.prob(("a",), "b") > raw
    want = raw + (0.75 * 2 / 2) * m.prob((), "b")
    assert m.prob(("a",), "b") == pytest.approx(want, rel=1e-12)


def test_unseen_context_backs_off_with_leftover_weight():
    m = train([["a", "b"]], order=3, discount=0.75)
    # context ("b", "a") was never observed: ("a",) carries the recursion
    assert m.prob(("b", "a"), "b") == pytest.approx(m.prob(("a",), "b"), rel=1e-12)
    # entirely novel context falls through to the unigram
    assert m.prob(("x", "y"), "b") == pytest.approx(m.prob((), "b"), rel=1e-12)


def test_context_longer_than_order_is_truncated():
    m = train([["a", "b"]], order=2, discount=0.75)
    assert m.prob(("x", "y", "a"), "b") == m.prob(("a",), "b")


def test_order_one_is_affine_in_counts():
    corpus = [["a"] * 5 + ["b"] * 2 + ["c"]]
    m = train(corpus, order=1, discount=0.75)
    total = 9.0  # 8 tokens + </s>
    v = len(m.vocab)
    lam = 0.75 * 4 / total  # 4 seen types incl. </s>
    for tok, c in (("a", 5), ("b", 2), ("c", 1)):
        want = (c - 0.75) / total + lam / v
        assert m.prob((), tok) == pytest.approx(want, rel=1e-12)
    # ordering by count is preserved
    assert m.prob((), "a") > m.prob((), "b") > m.prob((), UNK_TOK)


def test_score_and_sentence_logprob():
    m = train([["a", "b"]], order=2, discount=0.75)
    assert m.score(("a",), "b") == pytest.approx(math.log(0.453125), rel=1e-12)
    want = math.log(0.453125) * 3  # P(a|<s>) P(b|a) P(</s>|b)
    assert m.sentence_logprob(["a", "b"]) == pytest.approx(want, rel=1e-12)
    assert m.perplexity([["a", "b"]]) == pytest.approx(1.0 / 0.453125, rel=1e-12)


def test_unknown_tokens_never_error():
    m = train([["a", "b"]], order=3, discount=0.75)
    assert m.prob(("zzz", "qqq"), "www") > 0.0
    assert np.isfinite(m.sentence_logprob(["qq", "a", "ww"]))


def test_bos_only_pads_context_never_scores():
    m = train([["a", "b"]], order=2, discount=0.75)
    assert (((), BOS) not in m.probs)
    assert BOS not in m.vocab


def test_save_load_round_trip(tmp_path):
    corpus = [["a", "b", "a"], ["b", "c"], ["a"]]
    m = train(corpus, order=3, discount=0.6)
    p = tmp_path / "lm.txt"
    m.save(p)
    back = NgramModel.load(p)
    assert back.order == m.order and back.discount == m.discount
    assert back.vocab == m.vocab
    assert back.probs == m.probs          # %.17g keeps doubles exact
    assert back.backoffs == m.backoffs
    for sent in corpus:
        assert back.sentence_logprob(sent) == m.sentence_logprob(sent)
    with pytest.raises(ValueError):
        NgramModel.load(__file__)
    # every cut, at a line end or inside a line, and a malformed value name
    # the file; half the file and its first 3 lines once raised IndexError
    text = p.read_text()
    cut = tmp_path / "cut.txt"
    bad_prob = text.splitlines()[5].split()[-1]
    for case in [text[:k] for k in range(len(text))] + [text.replace(bad_prob, "x", 1)]:
        cut.write_text(case)
        with pytest.raises(ValueError) as err:
            NgramModel.load(cut)
        assert str(err.value).startswith(f"{cut}: "), (case, err.value)


def test_training_validation():
    with pytest.raises(ValueError):
        train([], order=2)
    with pytest.raises(ValueError):
        train([["a"]], order=0)
    with pytest.raises(ValueError):
        train([["a"]], order=2, discount=1.5)


def test_more_context_sharpens_repeated_pattern():
    corpus = [["a", "b"]] * 10 + [["a", "c"]]
    m = train(corpus, order=2, discount=0.75)
    assert m.prob(("a",), "b") > m.prob((), "b")
    assert m.prob(("a",), "b") > m.prob(("a",), "c")


def test_score_row_matches_one_score_per_token():
    corpus = [["a", "b", "c"], ["a", "c"], ["b", "b", "a"]]
    tokens = ["a", "b", "c", "zz", EOS, UNK_TOK]
    for order in (1, 2, 3, 4):
        m = train(corpus, order=order)
        contexts = [(), (BOS,), ("a",), ("zz",), (BOS, "a"), ("zz", "b"),
                    (BOS, BOS, "a", "b"), ("a", "b", "c", "a")]
        for context in contexts:
            row = m.score_row(context, tokens)
            assert isinstance(row, np.ndarray) and row.shape == (len(tokens),)
            assert row.tolist() == [m.score(context, t) for t in tokens]
        assert m.score_row(("a",), []).shape == (0,)
