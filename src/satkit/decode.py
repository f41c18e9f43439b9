"""Greedy, beam, and streaming decoding over the transducer output graph.

Every search, and dev-set scoring during training, which is
:func:`greedy_decode`, reads its encoder rows from
:func:`~satkit.nnet.encoder_tiles` over stacked rows: a matrix, or a
raw-frame stream stacked by :func:`stacked_stream`. Each chunk of rows it
yields, a tile of a matrix or one row of a stream, gets its joint
projections in one product. The encoder's window picks each block's stage
there, so this module holds no encoder logic. Under a bounded window a
matrix and a stream give rows of the same bits, so greedy and beam search
give the same bits offline and streaming; the streaming beam is
:func:`beam_decode` over a stream. Under an unbounded window only a matrix
can be decoded. Each search makes one row step per network when it starts,
which reads the weights then: the prediction network's
(:class:`~satkit.nnet.PredRows`), which its states advance through, and
the joint's (:class:`~satkit.lattice.JointRows`), which scores rows. It
drops both when it ends, so a search after an optimizer step reads the new
weights. Advances go through the network's own methods, ``init_state``,
``advance_np`` and ``advance_many``, with the row step as their last
argument, so a wrapper on those methods sees every one. The searches hold
no model arithmetic.

Greedy search scores in look-ahead tiles: one joint forward scores the
next ``_LOOK_AHEAD`` frames of a chunk against the current state, and the
search reads those rows in order up to the first emission, after which the
new state re-scores from the same frame. A blank run of n frames thus costs
about n / ``_LOOK_AHEAD`` forwards, not n; a stream's one-row chunks give
one-frame tiles. The forward is the beam's scoring call with the sides
swapped. Batching keeps every bit: a row's sum ``f + g`` is the same IEEE
add whichever side broadcasts, the output product follows the four-row rule
of :func:`~satkit.nnet.row_tile`, and the reductions run per row, so each
row the search reads is the row it would score alone. The per-frame symbol
guard behaves as before: a frame that has emitted the limit logs one
warning and is left.

The beam is the frame-synchronous prefix search of Graves (arXiv
1211.3711): within a frame, hypotheses expand by labels until pruned out or
the per-frame symbol guard trips, blanks move them to the next frame, and
duplicate prefixes are merged by log-adding their transducer mass. LM fusion
adds lambda_lm * log P_lm(token | prefix) at each label expansion; blanks
never touch the LM term. Each step is batched, in the manner of vectorized
beam search (Seki et al., Interspeech 2019): one joint forward scores the
active hypotheses' (H, K) log-prob rows, and the transducer and combined
scores of every (hypothesis, label) child are array expressions. Only
children that can survive pruning are ranked, and the step's new survivors
advance in one ``advance_many`` call. The joint forward and the advance
follow the four-row rule, so each row gets the bits it gets alone: batching
changes no bits. A hypothesis is its prefix, its transducer score and a
node that depends on the prefix alone: the prediction state, its joint
projection, the prefix's LM score and the LM part of each child's combined
score. The search caches nodes by child prefix and, after each frame, keeps
only the children of the new beam; a hypothesis that stays in the beam
re-expands without recomputing them, and a step only stacks its active
nodes' rows. A cached state's rows never change: its first lone child
writes the next row into the state's buffer in place, and any later child
copies the prefix. LM scores come in rows, one per LM context (the last
``order - 1`` tokens of ``<s>`` plus the prefix), each fetched once per
search by one ``lm.score_row`` call; the LM keeps every row it builds, so a
row is built once per LM, across searches and utterances.
:class:`Hypothesis` objects are made for the returned beam only. Caching
changes no bits either: the beam returns exactly what one ``advance_np``
and one ``lm.score`` per child would give.
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
    state: object            # PredState for the prefix
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


# Frames that one greedy joint forward scores against the current state.
_LOOK_AHEAD = 8


def _frames(model, stacked, joint):
    """The (J,) joint projection of each encoder row over ``stacked``, in
    order: each chunk of rows the encoder yields is projected at once."""
    for rows in encoder_tiles(model.encoder, stacked):
        yield from joint.f_parts(rows)


def _greedy_steps(model, stacked, max_symbols, trace=None):
    """Greedy search over the encoder rows of ``stacked``, pulled as they
    come; yields (frame, label) per emission. A ``trace`` list receives the
    (t, u, log-prob row) of every step.

    The search walks each chunk of rows the encoder yields, a tile of a
    matrix or one row of a stream. At frame p with state g, one joint
    forward scores the look-ahead tile, frames p..p+_LOOK_AHEAD-1 of the
    chunk, against g (:meth:`~satkit.lattice.JointRows.log_probs` of g and
    the tile).
    The rows are then read one by one, through ``_best_label``, up to the
    first non-blank: a blank moves to the next frame, whose row against g is
    already there, and an emission advances the state and re-scores from
    the same frame. Only the rows read are steps; the rest of a tile is
    dropped. A row has the same bits in a tile as scored alone, so the
    labels, frames and trace do not depend on the tile or on the chunks.
    The symbol guard counts emissions per frame as before: a frame that has
    emitted ``max_symbols`` labels logs one warning and is left unscored.
    """
    joint = model.joint.row_step(_LOOK_AHEAD)
    pred = model.prednet.row_step(1)
    state = model.prednet.init_state(pred)
    g_part = joint.g_parts(state.g[None])[0]
    t = u = 0  # first frame of the chunk; labels emitted
    for rows in encoder_tiles(model.encoder, stacked):
        f_parts = joint.f_parts(rows)
        p = n = 0  # frame in the chunk; labels emitted at it
        while p < len(f_parts):
            if n == max_symbols:
                log.warning("frame %d hit the %d-symbol guard; forcing frame advance",
                            t + p, max_symbols)
                p, n = p + 1, 0
                continue
            for lp in joint.log_probs(g_part, f_parts[p:p + _LOOK_AHEAD]):
                if trace is not None:
                    trace.append((t + p, u, lp.copy()))
                k = _best_label(lp)
                if k != BLANK:
                    break
                p, n = p + 1, 0
            else:
                continue
            yield t + p, k
            u, n = u + 1, n + 1
            state = model.prednet.advance_np(state, k, pred)
            g_part = joint.g_parts(state.g[None])[0]
        t += len(f_parts)


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
    ``labels`` order, fetched by one ``lm.score_row`` call, which builds a
    row only for a context the LM has not scored before. Rows are
    read-only.
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


class _Node:
    """The part of a beam hypothesis that depends on its prefix alone,
    cached by prefix: the prediction state, its (J,) joint projection
    ``g_part``, the prefix's LM score ``lm_score`` and ``w_lm``, lm_weight
    times it. With an LM, ``lm_next`` holds each child's LM score, the
    prefix's plus the LM row of its context in label order, and
    ``w_lm_next`` lm_weight times that: the terms a step adds to its
    children's transducer scores, formed once per prefix rather than once
    per step, with the same bits."""

    __slots__ = ("state", "g_part", "lm_score", "w_lm", "lm_next", "w_lm_next")

    def __init__(self, state, g_part, lm_score, lm_weight, lm_row):
        self.state, self.g_part, self.lm_score = state, g_part, lm_score
        self.w_lm = lm_weight * lm_score
        self.lm_next = self.w_lm_next = None
        if lm_row is not None:
            self.lm_next = lm_score + lm_row
            self.w_lm_next = lm_weight * self.lm_next


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
    joint, pred = model.joint.row_step(width), model.prednet.row_step(width)
    # The blank and the start token hold the lowest ids; every later id is a
    # label the beam can emit.
    first = max(BLANK, SOS) + 1
    ids = range(first, model.joint.vocab_size)
    labels = [(k,) for k in ids]  # what each label appends to a prefix
    n_labels, fused = len(labels), lm is not None
    lm_rows = _LMScorer(lm, vocab, ids) if fused else None
    # Child prefix -> _Node; after each frame only the children of the beam
    # stay, so a hypothesis that stays in the beam reuses them.
    cache = {}
    init = model.prednet.init_state(pred)
    root = _Node(init, joint.g_parts(init.g[None])[0], 0.0, lm_weight,
                 lm_rows.row(()) if fused else None)
    # The beam entering a frame, best first: (prefix, [t_score, node, rank
    # score]), where the rank score is t_score + lm_weight * lm_score.
    beam, final = [((), [0.0, root, 0.0])], []
    for t, f_part in enumerate(_frames(model, stacked, joint)):
        # The active hypotheses, as the columns a step stacks.
        prefixes = [prefix for prefix, _ in beam]
        t_list = [entry[0] for _, entry in beam]
        nodes = [entry[1] for _, entry in beam]
        settled = {}  # prefix -> [t_score, node, rank score] at frame t+1
        for step in range(cfg.max_symbols_per_frame + 1):
            expand = step < cfg.max_symbols_per_frame
            if not expand:
                log.warning("frame %d hit the %d-symbol guard; forcing frame advance",
                            t, cfg.max_symbols_per_frame)
            lp = joint.log_probs(f_part, np.array([nd.g_part for nd in nodes]))
            t_all = np.array(t_list)[:, None] + lp  # every child's transducer score
            # Blank step: settle each hypothesis to frame t+1.
            for prefix, blank_score, nd in zip(prefixes, t_all[:, BLANK].tolist(), nodes):
                entry = settled.get(prefix)
                if entry is None:
                    settled[prefix] = [blank_score, nd, blank_score + nd.w_lm]
                else:
                    entry[0] = np.logaddexp(entry[0], blank_score)
                    entry[2] = entry[0] + nd.w_lm
            if not expand or not labels:
                break
            # Score every (hypothesis, label) child as arrays: t + w * lm.
            t_exp = t_all[:, first:]
            combined = t_exp + np.array([nd.w_lm_next for nd in nodes]) if fused else t_exp
            # Only children that can survive pruning are ranked: those scoring
            # at least the width-th best of everything alive at this frame,
            # and those equal to a settled prefix, because pruning keeps
            # prefixes and a kept settled prefix keeps its twin.
            s_comb = [entry[2] for entry in settled.values()]
            n_alive = len(s_comb) + combined.size
            if n_alive > width:
                pool = np.concatenate((s_comb, combined.ravel()))
                pool.partition(n_alive - width)
                pick = combined >= pool[n_alive - width]
                slot = dict(zip(prefixes, range(len(prefixes))))
                for prefix in settled:
                    i = slot.get(prefix[:-1]) if prefix else None
                    if i is not None:
                        pick[i, prefix[-1] - first] = True
            else:
                pick = np.ones(combined.shape, dtype=bool)
            # Children of distinct prefixes are distinct, so none merge here.
            at = [divmod(q, n_labels) for q in pick.ravel().nonzero()[0].tolist()]
            children = [prefixes[i] + labels[j] for i, j in at]
            t_vals = [t_all.item(i, first + j) for i, j in at]
            c_vals = [combined.item(i, j) for i, j in at] if fused else t_vals
            # Prune over everything alive at this frame, by the rank key.
            keys = [(-c, prefix) for c, prefix in zip(s_comb, settled)]
            keys += [(-c, child) for c, child in zip(c_vals, children)]
            keep = {prefix for _, prefix in sorted(keys)[:width]}
            settled = {p: v for p, v in settled.items() if p in keep}
            survivors = [(child, t_score, i, j) for child, t_score, (i, j)
                         in zip(children, t_vals, at) if child in keep]
            if not survivors:
                break
            # The survivors not cached yet advance together.
            new = [(child, i, j) for child, _, i, j in survivors if child not in cache]
            if new:
                advanced = model.prednet.advance_many(
                    [nodes[i].state for _, i, _ in new], [child[-1] for child, _, _ in new], pred)
                g_parts = joint.g_parts(np.array([state.g for state in advanced]))
                for (child, i, j), state, g_part in zip(new, advanced, g_parts):
                    lm_score = nodes[i].lm_next[j].item() if fused else 0.0
                    cache[child] = _Node(state, g_part, lm_score, lm_weight,
                                          lm_rows.row(child) if fused else None)
            prefixes = [child for child, _, _, _ in survivors]
            t_list = [t_score for _, t_score, _, _ in survivors]
            nodes = [cache[child] for child in prefixes]
        # On ties the prefix decides, so a settled (shorter) prefix wins,
        # matching greedy's lowest-index argmax.
        beam = final = sorted(settled.items(), key=lambda kv: (-kv[1][2], kv[0]))[:width]
        kept = {prefix for prefix, _ in beam}
        cache = {c: v for c, v in cache.items() if c[:-1] in kept}
    return [Hypothesis(prefix, nd.state, t_score, nd.lm_score)
            for prefix, (t_score, nd, _) in final]


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
