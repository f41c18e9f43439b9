"""Greedy, beam, and streaming decoding over the transducer output graph.

Every search reads encoder rows from one generator, :func:`_encoder_rows`,
over stacked rows: a matrix, or a raw-frame stream stacked by
:func:`stacked_stream`. For a bounded chunk window it pushes them through
:class:`~satkit.nnet.IncrementalEncoder`, which computes each row once from
a cache of the rows in its window and yields it as soon as it is final.
Offline and streaming decoding push the same stacked rows in the same
order, so greedy and beam search give the same bits on both; the streaming
beam is :func:`beam_decode` over a stream. Whole-matrix encoding
(:meth:`~satkit.nnet.Encoder.apply_np`, the tape modules run under
``no_grad``) serves unbounded windows and fast dev-set scoring during
training, where bit-level agreement with streaming is not needed; the
exhaustive oracle scores whole label sequences on the tape modules too.
Prediction states advance one label at a time through
:meth:`~satkit.nnet.PredictionNetwork.advance_np`.

The beam is the frame-synchronous prefix search of Graves (arXiv
1211.3711): within a frame, hypotheses expand by labels until pruned out or
the per-frame symbol guard trips, blanks move them to the next frame, and
duplicate prefixes are merged by log-adding their transducer mass. LM fusion
adds lambda_lm * log P_lm(token | prefix) at each label expansion; blanks
never touch the LM term. Each step scores as arrays: the active hypotheses'
log-prob rows stack into an (H, K) array, and the transducer, LM and
combined scores of every (hypothesis, label) child are array expressions.
Only children that can survive pruning become :class:`Hypothesis` objects.
A prediction state depends only on its prefix, so the search caches states
by child prefix and, after each frame, keeps only the children of the new
beam; a hypothesis that stays in the beam re-expands without recomputing
them. LM scores come in rows, one per LM context (the last ``order - 1``
tokens of ``<s>`` plus the prefix), each built once per search from
``lm.score``. Caching changes no bits: the beam returns exactly what one
``advance_np`` and one ``lm.score`` per child would give.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .data import StreamStacker
from .ngram import BOS
from .nnet import IncrementalEncoder
from .vocab import BLANK, SOS

log = logging.getLogger(__name__)


@dataclass
class DecodeConfig:
    beam_width: int = 5
    lm_weight: float = 0.2
    max_symbols_per_frame: int = 10
    mode: str = "offline"
    chunk: object = None  # ChunkSpec override; None = model's training window

    def __post_init__(self):
        if self.beam_width < 1:
            raise ValueError(f"beam width must be >= 1, got {self.beam_width}")
        if self.lm_weight < 0:
            raise ValueError(f"LM weight must be >= 0, got {self.lm_weight}")
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


def _log_softmax_np(v: np.ndarray) -> np.ndarray:
    m = v.max()
    s = v - m
    return s - math.log(np.exp(s).sum())


class _JointScorer:
    """Caches the per-frame and per-state halves of the joint network."""

    def __init__(self, model):
        self.w_f, self.w_g = (w.data for w in model.joint.input_weights())
        self.w_out = model.joint.params["joint.w_out"].data

    def f_part(self, enc_row: np.ndarray) -> np.ndarray:
        return enc_row @ self.w_f

    def g_part(self, state) -> np.ndarray:
        return state.g @ self.w_g

    def log_probs(self, f_part: np.ndarray, g_part: np.ndarray) -> np.ndarray:
        return _log_softmax_np(np.tanh(f_part + g_part) @ self.w_out)


def _encoder_rows(model, stacked, chunk=None, frame_exact=None):
    """Encoder output rows of an iterable of stacked rows, in order: the one
    row source of every search.

    Frame-exact (the default for a bounded window), each stacked row goes
    through an :class:`IncrementalEncoder` and every row is yielded as soon
    as it is final, so stacked rows may arrive one at a time from a stream.
    Otherwise ``stacked`` is a matrix, encoded in one full-matrix pass when
    the first row is pulled.
    """
    chunk = chunk if chunk is not None else model.encoder.chunk
    if frame_exact is None:
        frame_exact = chunk.bounded
    if not frame_exact:
        if len(stacked):  # the encoder refuses an empty matrix
            yield from model.encoder.apply_np(stacked, chunk)
        return
    encoder = IncrementalEncoder(model.encoder, chunk)
    for row in stacked:
        yield from encoder.push(row)
    yield from encoder.finish()


def stacked_stream(model, raw_frames):
    """Stacked rows of a raw-frame stream with the model's stacking, each as
    soon as it exists (edge replication only at end of stream)."""
    mc = model.config
    stacker = StreamStacker(mc.stack_left, mc.stack_right, mc.factor)
    for frame in raw_frames:
        yield from stacker.push(frame)
    yield from stacker.finish()


def _best_label(lp: np.ndarray) -> int:
    """Argmax over the row with the start token ruled out (it is an
    input-side symbol, never a valid emission)."""
    masked = lp.copy()
    masked[SOS] = -np.inf
    return int(np.argmax(masked))


def _greedy_steps(model, rows, max_symbols, trace=None):
    """Greedy search over an iterable of encoder rows, pulled one at a time;
    yields (frame, label) per emission. A ``trace`` list receives the
    (t, u, log-prob row) of every step."""
    scorer = _JointScorer(model)
    state = model.prednet.init_state()
    g_part = scorer.g_part(state)
    u = 0
    for t, enc_row in enumerate(rows):
        f_part = scorer.f_part(enc_row)
        for _ in range(max_symbols):
            lp = scorer.log_probs(f_part, g_part)
            if trace is not None:
                trace.append((t, u, lp))
            k = _best_label(lp)
            if k == BLANK:
                break
            yield t, k
            u += 1
            state = model.prednet.advance_np(state, k)
            g_part = scorer.g_part(state)
        else:
            log.warning("frame %d hit the %d-symbol guard; forcing frame advance",
                        t, max_symbols)


def greedy_decode(model, stacked: np.ndarray, chunk=None, frame_exact=None,
                  max_symbols: int = 10):
    """Best-label-per-step decoding; returns the emitted label ids."""
    rows = _encoder_rows(model, stacked, chunk, frame_exact)
    return [k for _, k in _greedy_steps(model, rows, max_symbols)]


def greedy_trace(model, stacked: np.ndarray, chunk=None, frame_exact=None,
                 max_symbols: int = 10):
    """Greedy pass keeping the (t, u, log-prob row) visited at every step;
    returns (labels, emission frames, trace).

    Feeds the lattice plot: the trace rows are the exact distributions the
    greedy search sampled its argmax from.
    """
    trace = []
    rows = _encoder_rows(model, stacked, chunk, frame_exact)
    emitted = list(_greedy_steps(model, rows, max_symbols, trace))
    return [k for _, k in emitted], [t for t, _ in emitted], trace


class _LMScorer:
    """Rows of LM log-probs for one search, one row per LM context.

    An n-gram model reads only the last ``order - 1`` tokens of ``<s>``
    plus the prefix, so prefixes that share that tail share a row. Rows are
    keyed by label ids (``SOS`` stands in for ``<s>``) and hold
    ``lm.score(context, token)`` for each label the beam can emit, in
    ``labels`` order.
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
            row = np.array([self.lm.score(context, name) for name in self.names])
            self.rows[key] = row
        return row


def _rank_key(lm_weight):
    # On ties the prefix decides, so a settled (shorter) prefix wins,
    # matching greedy's lowest-index argmax.
    return lambda kv: (-kv[1][0].combined(lm_weight), kv[0])


def beam_decode(model, stacked: np.ndarray, lm=None, vocab=None,
                cfg: DecodeConfig = None, frame_exact=None):
    """Frame-synchronous beam search; returns hypotheses best-first.

    With lm set, vocab must map label ids to the LM's token strings. With
    ``frame_exact=True``, ``stacked`` may be any iterable of stacked rows,
    such as :func:`stacked_stream`.
    """
    cfg = cfg or DecodeConfig()
    if lm is not None and vocab is None:
        raise ValueError("LM fusion needs the vocab to name the labels")
    rows = _encoder_rows(model, stacked, cfg.chunk, frame_exact)
    scorer = _JointScorer(model)
    width, lm_weight = cfg.beam_width, cfg.lm_weight
    rank_key = _rank_key(lm_weight)
    # The blank and the start token hold the lowest ids; every later id is a
    # label the beam can emit.
    first = max(BLANK, SOS) + 1
    labels = range(first, scorer.w_out.shape[1])
    lm_rows = _LMScorer(lm, vocab, labels) if lm is not None else None
    # Child prefix -> (PredState, g_part); after each frame only the children
    # of the beam stay, so a hypothesis that stays in the beam reuses them.
    states = {}

    init = Hypothesis(prefix=(), state=model.prednet.init_state())
    active = {(): (init, scorer.g_part(init.state))}
    final = []
    for t, enc_row in enumerate(rows):
        f_part = scorer.f_part(enc_row)
        settled = {}
        for step in range(cfg.max_symbols_per_frame + 1):
            expand = step < cfg.max_symbols_per_frame
            if not expand and active:
                log.warning("frame %d hit the %d-symbol guard; forcing frame advance",
                            t, cfg.max_symbols_per_frame)
            hyps = [hyp for hyp, _ in active.values()]
            lp = np.array([scorer.log_probs(f_part, g_part)
                           for _, g_part in active.values()])
            t_col = np.array([hyp.t_score for hyp in hyps])
            # Blank step: settle each hypothesis to frame t+1.
            for (prefix, (hyp, g_part)), blank_score in zip(
                    active.items(), (t_col + lp[:, BLANK]).tolist()):
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
            t_exp = t_col[:, None] + lp[:, first:]
            if lm_rows is not None:
                lm_exp = (np.array([hyp.lm_score for hyp in hyps])[:, None]
                          + np.array([lm_rows.row(hyp.prefix) for hyp in hyps]))
                combined = t_exp + lm_weight * lm_exp
            else:
                lm_exp, combined = None, t_exp
            # Only children that can survive pruning become hypotheses: those
            # scoring at least the width-th best of everything alive at this
            # frame, and those equal to a settled prefix, because pruning keeps
            # prefixes and a kept settled prefix keeps its twin.
            pool = [s.combined(lm_weight) for s, _ in settled.values()]
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
            expansions = {}
            for i, j, t_score, lm_score in zip(at_hyp, at_label, t_vals, lm_vals):
                child = hyps[i].prefix + (labels[j],)
                expansions[child] = (Hypothesis(child, None, t_score, lm_score), i)
            # Prune over everything alive at this frame.
            union = list(settled.items()) + list(expansions.items())
            union.sort(key=rank_key)
            keep = {prefix for prefix, _ in union[:width]}
            settled = {p: v for p, v in settled.items() if p in keep}
            survivors = [(p, v) for p, v in expansions.items() if p in keep]
            if not survivors:
                break
            active = {}
            for child, (hyp, i) in survivors:
                cached = states.get(child)
                if cached is None:
                    state = model.prednet.advance_np(hyps[i].state, child[-1])
                    cached = states[child] = (state, scorer.g_part(state))
                hyp.state = cached[0]
                active[child] = (hyp, cached[1])
        ranked = sorted(settled.items(), key=rank_key)
        active = dict(ranked[:width])
        final = [hyp for _, (hyp, _) in ranked[:width]]
        states = {c: v for c, v in states.items() if c[:-1] in active}
    return final


def exhaustive_decode(model, stacked: np.ndarray, max_len: int, token_ids,
                      chunk=None, frame_exact=None):
    """Argmax over every label sequence up to max_len by full lattice scoring.

    Exponential reference oracle for beam search on tiny inputs.
    """
    import itertools

    from . import autodiff as ad
    from . import lattice as lat

    enc = ad.Tensor(np.stack(list(_encoder_rows(model, stacked, chunk, frame_exact))))
    best = None
    for n in range(max_len + 1):
        for y in itertools.product(token_ids, repeat=n):
            with ad.no_grad():
                lp = model.joint.log_probs(enc, model.prednet(list(y)))
            grid = lat.PosteriorLattice(lp, np.array(y, dtype=np.int64))
            score = -lat.forward_backward_arrays(grid)[0]
            if best is None or score > best[1] or (score == best[1] and y < best[0]):
                best = (y, score)
    return list(best[0]), best[1]


def stream_decode(model, raw_frames, cfg: DecodeConfig = None):
    """Greedy streaming decode over an incremental raw-frame source.

    Yields (stacked_frame_index, label_id) as emissions happen, the same
    as :func:`greedy_trace` on the stacked matrix. Frames are stacked with
    the model's own stacking. A stacked frame exists once raw frame
    factor*s + stack_right has arrived (edge replication only at end of
    stream); its encoder output is final once stacked frames through
    s + B*N_r exist. Decisions for frame s therefore lag the input by
    factor*B*N_r + stack_right raw frames, and the final frames flush when
    the source ends. The stacker and the encoder keep state of a fixed size,
    however long the stream. The streaming beam is :func:`beam_decode` over
    ``stacked_stream(model, raw_frames)`` with ``frame_exact=True``; it
    returns its hypotheses when the stream ends.
    """
    cfg = cfg or DecodeConfig(mode="streaming")
    rows = _encoder_rows(model, stacked_stream(model, raw_frames), cfg.chunk,
                         frame_exact=True)
    yield from _greedy_steps(model, rows, cfg.max_symbols_per_frame)
