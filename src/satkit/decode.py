"""Greedy, beam, and streaming decoding over the transducer output graph.

Every search, and dev-set scoring during training, which is
:func:`greedy_decode`, reads its encoder rows from
:func:`~satkit.nnet.encoder_tiles` over stacked rows: a matrix, or a
raw-frame stream stacked by :func:`stacked_stream`. Each chunk of rows it
yields, a tile of a matrix or one row of a stream, gets its joint
projections in one product. The encoder's window picks each block's stage
there, so this module holds no encoder logic. Under a
bounded window a matrix and a stream give rows of the same bits, so greedy
and beam search give the same bits offline and streaming; the streaming
beam is :func:`beam_decode` over a stream. Under an unbounded window only a
matrix can be decoded. Prediction states advance through
:meth:`~satkit.nnet.PredictionNetwork.advance_many`, and the joint's row
step (:class:`~satkit.lattice.JointRows`) scores a frame against states, so
the searches hold no model arithmetic.

The beam is the frame-synchronous prefix search of Graves (arXiv
1211.3711): within a frame, hypotheses expand by labels until pruned out or
the per-frame symbol guard trips, blanks move them to the next frame, and
duplicate prefixes are merged by log-adding their transducer mass. LM fusion
adds lambda_lm * log P_lm(token | prefix) at each label expansion; blanks
never touch the LM term. Each step is batched, in the manner of vectorized
beam search (Seki et al., Interspeech 2019): one joint forward scores the
active hypotheses' (H, K) log-prob rows, and the transducer, LM and combined
scores of every (hypothesis, label) child are array expressions. Only
children that can survive pruning are ranked, only survivors become
:class:`Hypothesis` objects, and the step's new survivors advance in one
``advance_many`` call. The joint forward and the advance follow
the four-row rule of :func:`~satkit.nnet.row_tile`, so each row gets the
bits it gets alone: batching changes no bits. A prediction state depends
only on its prefix, so the search caches states by child prefix and, after
each frame, keeps only the children of the new beam; a hypothesis that
stays in the beam re-expands without recomputing them. A cached state's
rows never change: its first lone child writes the next row into the
state's buffer in place, and any later child copies the prefix. LM scores
come in rows, one per LM context (the last ``order - 1`` tokens of ``<s>``
plus the prefix), each built once per search by one ``lm.score_row`` call.
Caching changes no bits either: the beam returns exactly what one
``advance_np`` and one ``lm.score`` per child would give.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .data import stream_stack
from .ngram import BOS
from .nnet import encoder_tiles
from .vocab import BLANK, SOS

log = logging.getLogger(__name__)


@dataclass
class DecodeConfig:
    beam_width: int = 5
    lm_weight: float = 0.2
    max_symbols_per_frame: int = 10
    mode: str = "offline"

    def __post_init__(self):
        if self.beam_width < 1:
            raise ValueError(f"beam width must be >= 1, got {self.beam_width}")
        if not (math.isfinite(self.lm_weight) and self.lm_weight >= 0):
            raise ValueError(f"LM weight must be finite and non-negative, "
                             f"got {self.lm_weight}")
        if self.max_symbols_per_frame < 0:
            raise ValueError(f"max symbols per frame must be >= 0, "
                             f"got {self.max_symbols_per_frame}")
        if self.mode not in ("offline", "streaming"):
            raise ValueError(f"mode must be offline or streaming, got {self.mode!r}")


@dataclass
class Hypothesis:
    prefix: tuple
    state: object            # PredState for the prefix; None until it survives pruning
    t_score: float = 0.0     # transducer log-mass of the prefix
    lm_score: float = 0.0    # LM log-prob of the prefix

    def combined(self, lm_weight: float) -> float:
        return self.t_score + lm_weight * self.lm_score


def edit_distance(reference, hypothesis) -> int:
    """Levenshtein distance with uniform costs."""
    ref = list(reference)
    hyp = list(hypothesis)
    prev = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, 1):
        cur = [i] + [0] * len(hyp)
        for j, h in enumerate(hyp, 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (r != h))
        prev = cur
    return prev[-1]


def cer(reference, hypothesis) -> float:
    """Levenshtein distance over reference length."""
    ref = list(reference)
    if not ref:
        raise ValueError("CER needs a non-empty reference")
    return edit_distance(ref, hypothesis) / len(ref)


def corpus_cer(references, hypotheses) -> float:
    """Total edit distance over total reference length."""
    refs = list(references)
    hyps = list(hypotheses)
    if len(refs) != len(hyps):
        raise ValueError(f"{len(refs)} references vs {len(hyps)} hypotheses")
    total_len = sum(len(list(r)) for r in refs)
    if total_len == 0:
        raise ValueError("CER needs non-empty references")
    return sum(edit_distance(r, h) for r, h in zip(refs, hyps)) / total_len


def stacked_stream(model, raw_frames):
    """Stacked rows of a raw-frame stream with the model's stacking, each as
    soon as it exists (edge replication only at end of stream): the
    :func:`~satkit.data.stream_stack` generator."""
    mc = model.config
    return stream_stack(raw_frames, mc.stack_left, mc.stack_right, mc.factor)


def _best_label(lp: np.ndarray) -> int:
    """Argmax over the row with the start token ruled out (it is an
    input-side symbol, never a valid emission)."""
    k = int(lp.argmax())
    if k != SOS:  # the first maximum is not the start token, so it stays first
        return k
    masked = lp.copy()
    masked[SOS] = -np.inf
    return int(np.argmax(masked))


def _frames(model, stacked, joint):
    """The (J,) joint projection of each encoder row over ``stacked``, in
    order: each chunk of rows the encoder yields is projected at once."""
    for rows in encoder_tiles(model.encoder, stacked):
        yield from joint.f_parts(rows)


def _greedy_steps(model, stacked, max_symbols, trace=None):
    """Greedy search over the encoder rows of ``stacked``, pulled as they
    come; yields (frame, label) per emission. A ``trace`` list receives the
    (t, u, log-prob row) of every step."""
    joint = model.joint.row_step(1)
    state = model.prednet.init_state()
    g_part = joint.g_parts(state.g[None])
    u = 0
    for t, f_part in enumerate(_frames(model, stacked, joint)):
        for _ in range(max_symbols):
            lp = joint.log_probs(f_part, g_part)[0]
            if trace is not None:
                trace.append((t, u, lp.copy()))
            k = _best_label(lp)
            if k == BLANK:
                break
            yield t, k
            u += 1
            state = model.prednet.advance_np(state, k)
            g_part = joint.g_parts(state.g[None])
        else:
            log.warning("frame %d hit the %d-symbol guard; forcing frame advance",
                        t, max_symbols)


def greedy_decode(model, stacked: np.ndarray, max_symbols: int = 10):
    """Best-label-per-step decoding; returns the emitted label ids."""
    return [k for _, k in _greedy_steps(model, stacked, max_symbols)]


def greedy_trace(model, stacked: np.ndarray, max_symbols: int = 10):
    """Greedy pass keeping the (t, u, log-prob row) visited at every step;
    returns (labels, emission frames, trace).

    Feeds the lattice plot: the trace rows are the exact distributions the
    greedy search sampled its argmax from.
    """
    trace = []
    emitted = list(_greedy_steps(model, stacked, max_symbols, trace))
    return [k for _, k in emitted], [t for t, _ in emitted], trace


class _LMScorer:
    """Rows of LM log-probs for one search, one row per LM context.

    An n-gram model reads only the last ``order - 1`` tokens of ``<s>``
    plus the prefix, so prefixes that share that tail share a row. Rows are
    keyed by label ids (``SOS`` stands in for ``<s>``) and hold
    ``lm.score(context, token)`` for each label the beam can emit, in
    ``labels`` order, made by one ``lm.score_row`` call.
    """

    def __init__(self, lm, vocab, labels):
        self.lm = lm
        self.context_len = max(0, lm.order - 1)
        self.names = [vocab.tokens[k] for k in labels]
        self.tokens = vocab.tokens
        self.rows = {}

    def row(self, prefix: tuple) -> np.ndarray:
        n = self.context_len
        key = prefix[len(prefix) - n:] if len(prefix) >= n else (SOS,) + prefix
        row = self.rows.get(key)
        if row is None:
            context = tuple(BOS if k == SOS else self.tokens[k] for k in key)
            row = self.lm.score_row(context, self.names)
            self.rows[key] = row
        return row


def _rank_key(lm_weight):
    # On ties the prefix decides, so a settled (shorter) prefix wins,
    # matching greedy's lowest-index argmax.
    return lambda kv: (-kv[1][0].combined(lm_weight), kv[0])


def beam_decode(model, stacked: np.ndarray, lm=None, vocab=None,
                cfg: DecodeConfig = None):
    """Frame-synchronous beam search; returns hypotheses best-first.

    With lm set, vocab must map label ids to the LM's token strings. Under
    a bounded window, ``stacked`` may be any iterable of stacked rows, such
    as :func:`stacked_stream`.
    """
    cfg = cfg or DecodeConfig()
    if lm is not None and vocab is None:
        raise ValueError("LM fusion needs the vocab to name the labels")
    width, lm_weight = cfg.beam_width, cfg.lm_weight
    # At most ``width`` hypotheses are active, and as many new survivors.
    joint = model.joint.row_step(width)
    rank_key = _rank_key(lm_weight)
    # The blank and the start token hold the lowest ids; every later id is a
    # label the beam can emit.
    first = max(BLANK, SOS) + 1
    labels = range(first, model.joint.vocab_size)
    lm_rows = _LMScorer(lm, vocab, labels) if lm is not None else None
    # Child prefix -> (PredState, g_part); after each frame only the children
    # of the beam stay, so a hypothesis that stays in the beam reuses them.
    states = {}

    init = Hypothesis(prefix=(), state=model.prednet.init_state())
    active = {(): (init, joint.g_parts(init.state.g[None])[0])}
    final = []
    for t, f_part in enumerate(_frames(model, stacked, joint)):
        settled = {}
        for step in range(cfg.max_symbols_per_frame + 1):
            expand = step < cfg.max_symbols_per_frame
            if not expand and active:
                log.warning("frame %d hit the %d-symbol guard; forcing frame advance",
                            t, cfg.max_symbols_per_frame)
            hyps = [hyp for hyp, _ in active.values()]
            lp = joint.log_probs(f_part, np.array([g_part for _, g_part in active.values()]))
            t_col = np.array([hyp.t_score for hyp in hyps])
            t_all = t_col[:, None] + lp  # every child's transducer score
            # Blank step: settle each hypothesis to frame t+1.
            for (prefix, (hyp, g_part)), blank_score in zip(
                    active.items(), t_all[:, BLANK].tolist()):
                if prefix in settled:
                    s = settled[prefix][0]
                    s.t_score = np.logaddexp(s.t_score, blank_score)
                else:
                    settled[prefix] = (
                        Hypothesis(prefix, hyp.state, blank_score, hyp.lm_score),
                        g_part)
            if not expand or not labels:
                break
            # Score every (hypothesis, label) child as arrays.
            t_exp = t_all[:, first:]
            if lm_rows is not None:
                lm_exp = (np.array([hyp.lm_score for hyp in hyps])[:, None]
                          + np.array([lm_rows.row(hyp.prefix) for hyp in hyps]))
                combined = t_exp + lm_weight * lm_exp
            else:
                lm_exp, combined = None, t_exp
            # Only children that can survive pruning are ranked: those scoring
            # at least the width-th best of everything alive at this frame,
            # and those equal to a settled prefix, because pruning keeps
            # prefixes and a kept settled prefix keeps its twin.
            keys = [(-s.combined(lm_weight), prefix) for prefix, (s, _) in settled.items()]
            pool = [-c for c, _ in keys]
            n_alive = len(pool) + combined.size
            if n_alive > width:
                pool = np.concatenate((pool, combined.ravel()))
                pick = combined >= np.partition(pool, n_alive - width)[n_alive - width]
            else:
                pick = np.ones(combined.shape, dtype=bool)
            slot = {prefix: i for i, prefix in enumerate(active)}
            for prefix in settled:
                i = slot.get(prefix[:-1]) if prefix else None
                if i is not None:
                    pick[i, prefix[-1] - first] = True
            at_hyp, at_label = (a.tolist() for a in np.nonzero(pick))
            t_vals = t_exp[pick].tolist()
            lm_vals = (lm_exp[pick].tolist() if lm_exp is not None
                       else [hyps[i].lm_score for i in at_hyp])
            # Children of distinct prefixes are distinct, so none merge here.
            expansions = [(hyps[i].prefix + (labels[j],), t_score, lm_score, i)
                          for i, j, t_score, lm_score in zip(at_hyp, at_label, t_vals, lm_vals)]
            # Prune over everything alive at this frame, by the rank key of
            # each child's would-be Hypothesis.
            keys += [(-(t_score + lm_weight * lm_score), child)
                     for child, t_score, lm_score, _ in expansions]
            keep = {prefix for _, prefix in sorted(keys)[:width]}
            settled = {p: v for p, v in settled.items() if p in keep}
            survivors = [(child, Hypothesis(child, None, t_score, lm_score), i)
                         for child, t_score, lm_score, i in expansions if child in keep]
            if not survivors:
                break
            # The survivors not cached yet advance together.
            new = [(child, i) for child, _, i in survivors if child not in states]
            if new:
                advanced = model.prednet.advance_many(
                    [hyps[i].state for _, i in new], [child[-1] for child, _ in new])
                g_parts = joint.g_parts(np.array([state.g for state in advanced]))
                for (child, _), state, g_part in zip(new, advanced, g_parts):
                    states[child] = (state, g_part)
            active = {}
            for child, hyp, _ in survivors:
                hyp.state, g_part = states[child]
                active[child] = (hyp, g_part)
        ranked = sorted(settled.items(), key=rank_key)
        active = dict(ranked[:width])
        final = [hyp for _, (hyp, _) in ranked[:width]]
        states = {c: v for c, v in states.items() if c[:-1] in active}
    return final


def stream_decode(model, raw_frames, cfg: DecodeConfig = None):
    """Greedy streaming decode over an incremental raw-frame source.

    Yields (stacked_frame_index, label_id) as emissions happen, the same
    as :func:`greedy_trace` on the stacked matrix. Frames are stacked with
    the model's own stacking. A stacked frame exists once raw frame
    factor*s + stack_right has arrived (edge replication only at end of
    stream); its encoder output is final once stacked frames through
    s + B*N_r exist. Decisions for frame s therefore lag the input by
    factor*B*N_r + stack_right raw frames, and the final frames flush when
    the source ends. The pipeline is a chain of generators, each pulling
    from the one before: :func:`~satkit.data.stream_stack`, the encoder row
    source :func:`~satkit.nnet.encoder_tiles` (an input stage and one stage
    per block), then :func:`greedy_decode`'s search. Rows pass between the
    stages one at a time, each as soon as it is final, so no stage adds lag,
    and each stage keeps state of a fixed size, a ring of raw frames or a
    block's buffer of rows, however long the stream. The prediction state
    is the exception: it grows by one row per block per emitted label,
    written in place, so an emission copies no prefix. Under an unbounded
    window the row source refuses the stream. The streaming beam is
    :func:`beam_decode` over ``stacked_stream(model, raw_frames)``; it
    returns its hypotheses when the stream ends.
    """
    cfg = cfg or DecodeConfig(mode="streaming")
    stacked = stacked_stream(model, raw_frames)
    yield from _greedy_steps(model, stacked, cfg.max_symbols_per_frame)
