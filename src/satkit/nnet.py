"""Self-attention building blocks, encoder and prediction networks.

Everything is post-norm: LayerNorm(x + Sublayer(x)), eps 1e-6.

Whole sequences are evaluated only by the Tensor modules: training records
the tape, and everything else (the full-matrix encoder policy, dev scoring,
the exhaustive decoding oracle) calls the same modules inside
``autodiff.no_grad()`` and reads ``.data``. The modules take one sequence,
(n, d_m), or a zero-padded batch, (B, n, d_m) with its ``lengths``, through
the same code: linear layers act on the last axis, and all heads of an
attention sublayer are one tape op, :func:`autodiff.attention`, which splits
and merges the heads itself. That op takes the window as a ``ChunkSpec``'s
two bounds and builds its own 0 / LOG_ZERO band mask from them and from
``lengths``: a real frame sees only the real frames of its window, and a
padded frame keeps its plain window and yields a row nothing reads. A
bounded window is computed in blocks of query rows, each scoring only the
strided slab of keys its rows can reach, so scores, mask and tape all grow
linearly with the sequence; a window at least as wide as the sequence
(unbounded, the prediction network's causal ``(inf, 0)``, or a short batch)
is one block with every key, the dense product. A training step is therefore one tape over the whole batch, and a
real row equals that of its sequence run alone up to rounding.

Decoding one row at a time has its own step, the cached key/value row step:
:meth:`MultiHeadAttention.kv_np` projects a row's key and value once, when
the row enters a block, and :meth:`SABlock.apply_kv_np` computes a block's
output rows from those cached projections. It is plain numpy, never a
Tensor, because on the tape one block row costs about 2.6x as much (one
query over 16 keys, d_m 64); its softmax and context are the same numpy
kernel as the tape op's forward, :func:`autodiff.softmax_context`.
:class:`IncrementalEncoder` runs it over each block's bounded window, so
streaming and offline decoding push the same rows in the same order and
agree bit for bit; :meth:`PredictionNetwork.advance_np` runs it over a
causal prefix, the left-context caching of the Transformer Transducer.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .vocab import BLANK, SOS

LN_EPS = 1e-6


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int, rows=None) -> Tensor:
    """Uniform Glorot-scaled parameter matrix.

    ``rows`` carves a (rows x fan_out) block that keeps the scale of the full
    (fan_in x fan_out) matrix, for weights stored as column/row blocks.
    """
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    shape = (fan_in if rows is None else rows, fan_out)
    return Tensor(rng.uniform(-limit, limit, size=shape), requires_grad=True)


def zeros_param(*shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def ones_param(*shape) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=True)


@dataclass(frozen=True)
class ChunkSpec:
    """Per-layer attention window: ``left`` past and ``right`` future frames.

    ``math.inf`` on either side lifts that bound. Stacking B blocks widens
    the effective receptive field to [t - B*left, t + B*right].
    """

    left: float
    right: float

    def __post_init__(self):
        for v in (self.left, self.right):
            if v != math.inf and (v < 0 or int(v) != v):
                raise ValueError(f"window sizes must be non-negative integers or inf, got {v}")

    @classmethod
    def unbounded(cls):
        return cls(math.inf, math.inf)

    @property
    def bounded(self):
        return self.left != math.inf and self.right != math.inf

    def receptive_field(self, t: int, n_blocks: int, length: int):
        """Inclusive input range that can influence output frame t."""
        lo = 0 if self.left == math.inf else max(0, t - n_blocks * int(self.left))
        hi = length - 1 if self.right == math.inf else min(length - 1, t + n_blocks * int(self.right))
        return lo, hi

    @staticmethod
    def parse(left: str, right: str):
        conv = lambda s: math.inf if s == "inf" else int(s)
        return ChunkSpec(conv(left), conv(right))


UNBOUNDED = ChunkSpec.unbounded()
CAUSAL = ChunkSpec(math.inf, 0)  # the prediction network's window


def pe_frequencies(d_m: int) -> np.ndarray:
    """The frequencies 1 / 10000^(2i/d_m) of :func:`positional_encoding`."""
    if d_m % 2:
        raise ValueError(f"positional encoding needs even width, got {d_m}")
    return np.power(10000.0, -np.arange(0, d_m, 2, dtype=np.float64) / d_m)


def positional_encoding(length: int, d_m: int, start: int = 0, freqs=None) -> np.ndarray:
    """Sine/cosine position table for positions start .. start+length-1.

    Column 2i is sin(pos / 10000^(2i/d_m)), column 2i+1 the matching cos.
    ``start`` lets a sequence slice keep its global positions. ``freqs``,
    :func:`pe_frequencies` of d_m, saves recomputing them on every call.
    """
    if length < 1:
        raise ValueError("positional encoding needs length >= 1")
    angle = np.arange(start, start + length, dtype=np.float64)[:, None] * (
        pe_frequencies(d_m) if freqs is None else freqs)
    pe = np.empty((length, d_m))
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle)
    return pe


class MultiHeadAttention:
    """n_h heads over shared (d_m x d_m) projections.

    Head i reads column block [i*d_k, (i+1)*d_k) of each projection, which is
    the concat-then-project formulation with the per-head matrices stored
    side by side.
    """

    def __init__(self, d_m: int, n_heads: int, rng, prefix: str):
        if d_m % n_heads:
            raise ValueError(f"d_m={d_m} not divisible by n_heads={n_heads}")
        self.d_m, self.n_heads, self.d_k = d_m, n_heads, d_m // n_heads
        self.params = {
            f"{prefix}.w_q": glorot(rng, d_m, d_m),
            f"{prefix}.w_k": glorot(rng, d_m, d_m),
            f"{prefix}.w_v": glorot(rng, d_m, d_m),
            f"{prefix}.w_o": glorot(rng, d_m, d_m),
        }
        self._prefix = prefix

    def __call__(self, x: Tensor, chunk: ChunkSpec = UNBOUNDED, lengths=None) -> Tensor:
        """Self-attention of the rows of x, (n, d_m), or of a zero-padded
        batch (B, n, d_m) whose sequence b holds ``lengths[b]`` rows, over
        the window ``chunk`` (see :func:`autodiff.attention`)."""
        p, pre = self.params, self._prefix
        q, k, v = (ad.matmul(x, p[f"{pre}.{w}"]) for w in ("w_q", "w_k", "w_v"))
        ctx = ad.attention(q, k, v, chunk.left, chunk.right, lengths,
                           1.0 / math.sqrt(self.d_k), self.n_heads)
        return ad.matmul(ctx, p[f"{pre}.w_o"])

    def kv_np(self, x_kv: np.ndarray):
        """Key and value projections of the rows ``x_kv``, (n, d_m) each."""
        p, pre = self.params, self._prefix
        return x_kv @ p[f"{pre}.w_k"].data, x_kv @ p[f"{pre}.w_v"].data

    def attend_np(self, x_q: np.ndarray, k: np.ndarray, v: np.ndarray, mask=None) -> np.ndarray:
        """Attention output for the query rows ``x_q`` over already-projected
        keys ``k`` and values ``v`` (see :meth:`kv_np`)."""
        p, pre = self.params, self._prefix
        n_q, n_kv = x_q.shape[0], k.shape[0]
        sp = lambda x, n: (x.reshape(n, self.n_heads, self.d_k)).transpose(1, 0, 2)
        q = sp(x_q @ p[f"{pre}.w_q"].data, n_q)
        k = sp(k, n_kv)
        v = sp(v, n_kv)
        _, ctx = ad.softmax_context(q @ k.transpose(0, 2, 1) / math.sqrt(self.d_k), mask, v)
        return ctx.transpose(1, 0, 2).reshape(n_q, self.d_m) @ p[f"{pre}.w_o"].data


def _np_layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    xc = x - ad.mean_lastdim(x)
    var = ad.mean_lastdim(xc * xc)
    return xc / np.sqrt(var + LN_EPS) * gain + bias


class FeedForward:
    """max(0, x W1 + b1) W2 + b2."""

    def __init__(self, d_m: int, d_ff: int, rng, prefix: str):
        self.params = {
            f"{prefix}.w1": glorot(rng, d_m, d_ff),
            f"{prefix}.b1": zeros_param(d_ff),
            f"{prefix}.w2": glorot(rng, d_ff, d_m),
            f"{prefix}.b2": zeros_param(d_m),
        }
        self._prefix = prefix

    def __call__(self, x: Tensor) -> Tensor:
        p, pre = self.params, self._prefix
        h = ad.relu(ad.add(ad.matmul(x, p[f"{pre}.w1"]), p[f"{pre}.b1"]))
        return ad.add(ad.matmul(h, p[f"{pre}.w2"]), p[f"{pre}.b2"])

    def apply_np(self, x: np.ndarray) -> np.ndarray:
        p, pre = self.params, self._prefix
        h = np.maximum(x @ p[f"{pre}.w1"].data + p[f"{pre}.b1"].data, 0.0)
        return h @ p[f"{pre}.w2"].data + p[f"{pre}.b2"].data


class SABlock:
    """Post-norm self-attention block.

    y = LayerNorm(x + MultiHead(x, x, x)); out = LayerNorm(y + FFN(y)).
    Dropout hits each sublayer output, training mode only.
    """

    def __init__(self, d_m: int, n_heads: int, d_ff: int, rng, prefix: str):
        self.attn = MultiHeadAttention(d_m, n_heads, rng, f"{prefix}.attn")
        self.ffn = FeedForward(d_m, d_ff, rng, f"{prefix}.ffn")
        self.params = dict(self.attn.params)
        self.params.update(self.ffn.params)
        self.params[f"{prefix}.ln1.g"] = ones_param(d_m)
        self.params[f"{prefix}.ln1.b"] = zeros_param(d_m)
        self.params[f"{prefix}.ln2.g"] = ones_param(d_m)
        self.params[f"{prefix}.ln2.b"] = zeros_param(d_m)
        self._prefix = prefix

    def __call__(self, x: Tensor, chunk: ChunkSpec = UNBOUNDED, lengths=None,
                 dropout_rate: float = 0.0, rng=None, training: bool = False) -> Tensor:
        p, pre = self.params, self._prefix
        a = ad.dropout(self.attn(x, chunk, lengths), dropout_rate, rng, training)
        y = ad.layer_norm(ad.add(x, a), p[f"{pre}.ln1.g"], p[f"{pre}.ln1.b"], LN_EPS)
        f = ad.dropout(self.ffn(y), dropout_rate, rng, training)
        return ad.layer_norm(ad.add(y, f), p[f"{pre}.ln2.g"], p[f"{pre}.ln2.b"], LN_EPS)

    def apply_kv_np(self, x_new: np.ndarray, k: np.ndarray, v: np.ndarray,
                    mask=None) -> np.ndarray:
        """Block output for the query rows ``x_new`` attending over keys ``k``
        and values ``v`` already projected by ``self.attn.kv_np``."""
        p, pre = self.params, self._prefix
        y = _np_layer_norm(x_new + self.attn.attend_np(x_new, k, v, mask),
                           p[f"{pre}.ln1.g"].data, p[f"{pre}.ln1.b"].data)
        return _np_layer_norm(y + self.ffn.apply_np(y),
                              p[f"{pre}.ln2.g"].data, p[f"{pre}.ln2.b"].data)


class Encoder:
    """Feature-side stack: linear projection + positional encoding + B blocks.

    Every block applies the same chunk window. ``start`` pins positional
    encodings to global frame indices so slice-wise evaluation matches the
    full pass.
    """

    def __init__(self, d_in: int, d_m: int, n_heads: int, d_ff: int,
                 n_blocks: int, chunk: ChunkSpec, rng):
        self.d_in, self.d_m, self.n_blocks = d_in, d_m, n_blocks
        self.chunk = chunk
        self.pe_freqs = pe_frequencies(d_m)
        self.blocks = [SABlock(d_m, n_heads, d_ff, rng, f"enc.{i}") for i in range(n_blocks)]
        self.params = {
            "enc.in.w": glorot(rng, d_in, d_m),
            "enc.in.b": zeros_param(d_m),
        }
        for b in self.blocks:
            self.params.update(b.params)

    def __call__(self, feats: Tensor, chunk: ChunkSpec = None, start: int = 0,
                 dropout_rate: float = 0.0, rng=None, training: bool = False,
                 lengths=None) -> Tensor:
        """(T, d_in) -> (T, d_m), or a zero-padded batch (B, T_max, d_in) ->
        (B, T_max, d_m) whose sequence b holds ``lengths[b]`` frames.

        In a batch, a real frame attends only to real frames of its window,
        so its row equals that of the sequence encoded alone up to rounding;
        a padded frame keeps its plain window and yields a row nothing reads.
        """
        if feats.ndim not in (2, 3) or feats.shape[-2] == 0:
            raise ad.ShapeError(f"encoder expects non-empty (T, {self.d_in}) or "
                                f"(B, T, {self.d_in}), got {feats.shape}")
        if feats.shape[-1] != self.d_in:
            raise ad.ShapeError(f"encoder expects width {self.d_in}, got {feats.shape}")
        chunk = chunk if chunk is not None else self.chunk
        T = feats.shape[-2]
        x = ad.add(ad.matmul(feats, self.params["enc.in.w"]), self.params["enc.in.b"])
        x = ad.add(x, Tensor(positional_encoding(T, self.d_m, start, self.pe_freqs).astype(x.dtype)))
        x = ad.dropout(x, dropout_rate, rng, training)
        for block in self.blocks:
            x = block(x, chunk, lengths, dropout_rate, rng, training)
        return x

    def apply_np(self, feats: np.ndarray, chunk: ChunkSpec = None, start: int = 0) -> np.ndarray:
        """Evaluation-mode output over the whole matrix, recording nothing."""
        with ad.no_grad():
            return self(Tensor(feats), chunk, start).data


class IncrementalEncoder:
    """Bounded-window encoder fed one stacked row at a time: the decoding
    path for every bounded window, offline and streaming alike.

    It runs the cached key/value row step over each block's window. Block i
    keeps only the newest left + right + 1 rows that entered it, each stored
    as [input | key projection | value projection]; the projections are made
    once, when the row enters. The block computes its output row t exactly
    once: when input row t + right enters, or in :meth:`finish` for the last
    ``right`` rows, whose windows the end of the sequence clips. Output row t
    of the top block is therefore final once stacked row t + B*right has been
    pushed, and callers that push the same rows get the same bits. Rows agree
    with the whole-matrix :meth:`Encoder.apply_np` to rounding.
    """

    def __init__(self, encoder: Encoder, chunk: ChunkSpec = None):
        chunk = chunk if chunk is not None else encoder.chunk
        if not chunk.bounded:
            raise ValueError("incremental encoding needs a bounded chunk window")
        self.left, self.right = int(chunk.left), int(chunk.right)
        self.d_m, self._pe_freqs = encoder.d_m, encoder.pe_freqs
        self.blocks = list(encoder.blocks)
        self._w_in = encoder.params["enc.in.w"].data
        self._b_in = encoder.params["enc.in.b"].data
        size = self.left + self.right + 1
        self.windows = [np.empty((size, 3 * self.d_m)) for _ in self.blocks]
        self._entered = [0] * len(self.blocks)   # rows that entered block i
        self._done = [0] * len(self.blocks)      # output rows block i computed

    def push(self, stacked_row: np.ndarray) -> list:
        """Feed the next stacked row; returns the output rows it made final
        (at most one)."""
        x = stacked_row @ self._w_in + self._b_in
        x = x + positional_encoding(1, self.d_m, self._entered[0], self._pe_freqs)[0]
        return self._enter(0, x)

    def finish(self) -> list:
        """End of sequence: returns the output rows not yet returned."""
        out = []
        for i in range(len(self.blocks)):
            while self._done[i] < self._entered[i]:
                out += self._emit(i)
        return out

    def _enter(self, i: int, x: np.ndarray) -> list:
        """Row x enters block i; returns the top-block rows this made final."""
        window, d = self.windows[i], self.d_m
        k, v = self.blocks[i].attn.kv_np(x[None, :])
        n = self._entered[i]
        if n >= window.shape[0]:
            window[:-1] = window[1:]
            n = window.shape[0] - 1
        window[n, :d], window[n, d:2 * d], window[n, 2 * d:] = x, k[0], v[0]
        self._entered[i] += 1
        if self._done[i] + self.right < self._entered[i]:
            return self._emit(i)
        return []

    def _emit(self, i: int) -> list:
        """Compute the next output row of block i from its (clipped) window
        and pass it on to block i + 1."""
        window, d = self.windows[i], self.d_m
        t = self._done[i]
        first = max(0, self._entered[i] - window.shape[0])  # row index of window[0]
        rows = window[max(0, t - self.left) - first:self._entered[i] - first]
        x_t = window[t - first:t - first + 1, :d]
        y = self.blocks[i].apply_kv_np(x_t, rows[:, d:2 * d], rows[:, 2 * d:])[0]
        self._done[i] += 1
        if i + 1 == len(self.blocks):
            return [y]
        return self._enter(i + 1, y)


class PredictionNetwork:
    """Label-side stack: token embedding + positional encoding + causal blocks.

    Input label ids are prefixed with the start token, so an empty prefix
    still yields one state row. Embeddings are scaled by sqrt(d_m) before the
    positional encoding is added.
    """

    def __init__(self, vocab_size: int, d_m: int, n_heads: int, d_ff: int,
                 n_blocks: int, rng):
        self.vocab_size, self.d_m, self.n_blocks = vocab_size, d_m, n_blocks
        self.pe_freqs = pe_frequencies(d_m)
        self.blocks = [SABlock(d_m, n_heads, d_ff, rng, f"pred.{i}") for i in range(n_blocks)]
        self.params = {"pred.emb": glorot(rng, vocab_size, d_m)}
        for b in self.blocks:
            self.params.update(b.params)

    def __call__(self, labels, dropout_rate: float = 0.0, rng=None,
                 training: bool = False) -> Tensor:
        """One label sequence -> (U+1, d_m) states, or a list of B sequences
        -> (B, U_max+1, d_m), shorter ones padded at the end. The causal
        mask keeps every real row blind to the padding after it."""
        ids = _label_ids(labels)
        n = ids.shape[-1]
        x = ad.scale(ad.index_rows(self.params["pred.emb"], ids), math.sqrt(self.d_m))
        x = ad.add(x, Tensor(positional_encoding(n, self.d_m, 0, self.pe_freqs).astype(x.dtype)))
        x = ad.dropout(x, dropout_rate, rng, training)
        for block in self.blocks:
            x = block(x, CAUSAL, None, dropout_rate, rng, training)
        return x

    def init_state(self):
        """Decode state of the empty prefix (the start token alone)."""
        return self.advance_np(PredState([None] * self.n_blocks, 0, None), None)

    def advance_np(self, state: "PredState", token) -> "PredState":
        """Extend a decode state by one token (None = the start token).

        Each block projects the new row's key and value once and appends
        them to its cache; the new row attends over the whole cache, which
        the causal mask makes equal to a fresh full pass.
        """
        tok = SOS if token is None else int(token)
        x = self.params["pred.emb"].data[tok] * math.sqrt(self.d_m)
        x = (x + positional_encoding(1, self.d_m, state.length, self.pe_freqs)[0])[None, :]
        layers, d = [], self.d_m
        for block, cache in zip(self.blocks, state.layers):
            kv = np.concatenate(block.attn.kv_np(x), axis=1)
            if cache is not None:
                kv = np.concatenate([cache, kv], axis=0)
            layers.append(kv)
            x = block.apply_kv_np(x, kv[:, :d], kv[:, d:])
        return PredState(layers, state.length + 1, x[0])


def _label_ids(labels) -> np.ndarray:
    """Prediction-network input ids: [SOS] + labels, (U+1,); or for a batch
    of sequences (B, U_max+1), padded with blanks after each sequence."""
    if len(labels) == 0 or np.ndim(labels[0]) == 0:  # one sequence
        return np.asarray([SOS] + [int(t) for t in labels], dtype=np.int64)
    ids = np.full((len(labels), 1 + max(len(y) for y in labels)), BLANK, dtype=np.int64)
    ids[:, 0] = SOS
    for b, y in enumerate(labels):
        ids[b, 1:1 + len(y)] = y
    return ids


@dataclass
class PredState:
    """Prediction-network cache for one decode prefix.

    ``layers[i]`` holds block i's [key | value] projections, one row per
    prefix position (``length`` rows); ``g`` is the top block's output for
    the newest position, the vector the joint network reads. States are
    immutable: advancing returns a new one, so beam hypotheses can share
    ancestors safely.
    """

    layers: list
    length: int
    g: np.ndarray
