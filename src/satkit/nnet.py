"""The self-attention block, and the encoder and prediction networks built
from it.

Both networks stack one kind of block, :class:`SABlock`: multi-head
self-attention and a feed-forward sublayer, each post-norm,
LayerNorm(x + Sublayer(x)) with eps 1e-6. The block owns its twelve weights,
and the names in its ``params`` are the checkpoint format. On the tape,
each residual add and its layer norm are one op,
:func:`autodiff.add_layer_norm`, and the feed-forward sublayer is one op,
:func:`autodiff.ffn`.

The tape modules evaluate whole sequences, for training. They take one
sequence, (n, d_m), or a zero-padded batch, (B, n, d_m) with its
``lengths``, through the same code: linear layers act on the last axis, and
all heads of an attention sublayer are one tape op,
:func:`autodiff.attention`, which splits and merges the heads itself. That
op takes the window as a ``ChunkSpec``'s two bounds and builds its own 0 /
LOG_ZERO band mask from them and from ``lengths``: a real frame sees only
the real frames of its window, and a padded frame keeps its plain window and
yields a row nothing reads. A bounded window is computed in blocks of query
rows, each scoring only the strided slab of keys its rows can reach, so
scores, mask and tape all grow linearly with the sequence; a window at least
as wide as the sequence (unbounded, the prediction network's causal
``(inf, 0)``, or a short batch) is one block with every key, the dense
product. A training step is therefore one tape over the whole batch, and a
real row equals that of its sequence run alone up to rounding.

:func:`encoder_tiles` is the one source of encoder rows, for decoding and
dev scoring alike, under every window. Each block stage runs the block's two
row methods, :meth:`SABlock.context_np` and :meth:`SABlock.output_np`, over
key and value rows projected once, when each row enters the block: over each
row's window when the window is bounded, over every row of a matrix when it
is not. The row step records no tape, because on the tape one block row
costs about 2.6x as much (one query over 16 keys, d_m 64), but it has no
arithmetic of its own: it runs the plain-array forwards of the block's fused
ops, :func:`autodiff.attend`, :func:`autodiff.add_layer_norm_forward` and
:func:`autodiff.ffn_forward`, the same functions the tape ops call. Every
weight product of a row step follows the four-row rule of :func:`row_tile`:
one 2-D product over the rows rounded up to a multiple of 4, in which a
row's bits do not depend on the row count, its position or its neighbours.
So a row's bits do not depend on how many rows share a call, and each stage
has one path: a chain of generators, one per block, through which a matrix
flows a tile at a time and a stream one row at a time.
:meth:`PredictionNetwork.advance_many` runs the row step for the new rows of
many decode states over their causal prefixes, the left-context caching of
the Transformer Transducer, and gives each the bits it has alone. A search
makes that row step once, as a :class:`PredRows` (from
:meth:`PredictionNetwork.row_step`) that holds each block's fused
``[w_q | w_k | w_v]`` and the row-tile pad, and passes it to every advance.
Each new row writes its key and value into its own child cache and attends
over that cache alone. A state is a length into its cache, one buffer per
block (:class:`PredState`), and a chain of states grows that cache in place,
so an emission copies no prefix; only a second child of one state copies its
parent's rows.
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

    @staticmethod
    def parse(left: str, right: str):
        conv = lambda s: math.inf if s == "inf" else int(s)
        return ChunkSpec(conv(left), conv(right))


UNBOUNDED = ChunkSpec.unbounded()
CAUSAL = ChunkSpec(math.inf, 0)  # the prediction network's window


def row_tile(x: np.ndarray, pad: np.ndarray) -> np.ndarray:
    """The rows of ``x`` as the operand of a decode row step's weight
    product: ``x`` itself when its row count is a multiple of 4, else the
    first rows of ``pad`` up to the next multiple, with ``x`` copied in.

    This is the four-row rule. In a 2-D product whose row count is a
    multiple of 4, the BLAS gives a row the same bits whatever the row
    count, the row's position and its neighbours' contents; one row alone
    (a vector-matrix product) or an odd count rounds differently. So a row
    keeps its bits however rows are grouped into calls.
    ``tests/test_nnet.py`` checks the rule on the model's weight shapes.

    ``pad`` is scratch of x's width with at least :func:`tile_len` rows,
    allocated once by the stage or search that owns it. Its other rows may
    hold any finite values: their products are dropped.
    """
    m = len(x)
    if m % 4 == 0:
        return x
    pad[:m] = x
    return pad[:tile_len(m)]


def tile_len(m: int) -> int:
    """m rounded up to a multiple of 4: the rows of :func:`row_tile`."""
    return m + (-m % 4)


def positional_encoding(positions, d_m: int) -> np.ndarray:
    """Sine/cosine position table, one row per entry of ``positions``.

    Column 2i is sin(pos / 10000^(2i/d_m)), column 2i+1 the matching cos.
    A whole sequence reads ``np.arange(n)``; a decode stage reads a tile of
    global positions. The d_m/2 frequencies are worked out on every call,
    which costs little beside the sines and cosines. An odd d_m raises
    ``ValueError``.
    """
    pos = np.asarray(positions, dtype=np.float64)
    if pos.ndim != 1 or pos.size < 1:
        raise ValueError("positional encoding needs at least one position")
    if d_m % 2:
        raise ValueError(f"positional encoding needs even width, got {d_m}")
    angle = pos[:, None] * np.power(10000.0, -np.arange(0, d_m, 2, dtype=np.float64) / d_m)
    pe = np.empty((pos.size, d_m))
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle)
    return pe


class SABlock:
    """Post-norm self-attention block: the one block of the encoder and the
    prediction network.

    y = LayerNorm(x + MultiHead(x, x, x)); out = LayerNorm(y + FFN(y)), with
    FFN(y) = max(0, y W1 + b1) W2 + b2. Dropout hits each sublayer output,
    training mode only. The n_h heads share (d_m x d_m) projections: head i
    reads column block [i*d_k, (i+1)*d_k) of each, the concat-then-project
    formulation with the per-head matrices stored side by side.

    The twelve weights are Tensor attributes, read by the tape call and the
    row methods alike; the row methods read each ``data`` on every call,
    because an optimizer's arena rebinds it. ``params`` maps their names to
    them, and those names are the checkpoint format: ``{prefix}.attn.w_q``,
    ``.attn.w_k``, ``.attn.w_v``, ``.attn.w_o``, ``.ffn.w1``, ``.ffn.b1``,
    ``.ffn.w2``, ``.ffn.b2``, ``.ln1.g``, ``.ln1.b``, ``.ln2.g`` and
    ``.ln2.b``, in that order. The weights draw from ``rng`` in the order
    w_q, w_k, w_v, w_o, w1, w2.

    The row step for query rows x, (m, d_m), is
    ``output_np(x, context_np(q, k, v, mask), pad)``, with their query
    projections q and the projected keys k and values v, which the caller
    makes and caches.
    """

    def __init__(self, d_m: int, n_heads: int, d_ff: int, rng, prefix: str):
        if n_heads < 1 or d_m % n_heads:
            raise ValueError(f"d_m={d_m} not divisible by n_heads={n_heads}")
        self.d_m, self.n_heads, self.d_k = d_m, n_heads, d_m // n_heads
        self.scale = 1.0 / math.sqrt(self.d_k)
        self.w_q, self.w_k, self.w_v, self.w_o = (glorot(rng, d_m, d_m) for _ in range(4))
        self.w1, self.b1 = glorot(rng, d_m, d_ff), zeros_param(d_ff)
        self.w2, self.b2 = glorot(rng, d_ff, d_m), zeros_param(d_m)
        self.ln1_g, self.ln1_b = ones_param(d_m), zeros_param(d_m)
        self.ln2_g, self.ln2_b = ones_param(d_m), zeros_param(d_m)
        self.params = {f"{prefix}.{name}": p for name, p in (
            ("attn.w_q", self.w_q), ("attn.w_k", self.w_k), ("attn.w_v", self.w_v),
            ("attn.w_o", self.w_o), ("ffn.w1", self.w1), ("ffn.b1", self.b1),
            ("ffn.w2", self.w2), ("ffn.b2", self.b2), ("ln1.g", self.ln1_g),
            ("ln1.b", self.ln1_b), ("ln2.g", self.ln2_g), ("ln2.b", self.ln2_b))}

    def __call__(self, x: Tensor, chunk: ChunkSpec = UNBOUNDED, lengths=None,
                 dropout_rate: float = 0.0, rng=None, training: bool = False) -> Tensor:
        """The block over the rows of x, (n, d_m), or of a zero-padded batch
        (B, n, d_m) whose sequence b holds ``lengths[b]`` rows, attending
        over the window ``chunk`` (see :func:`autodiff.attention`)."""
        q, k, v = (ad.matmul(x, w) for w in (self.w_q, self.w_k, self.w_v))
        ctx = ad.attention(q, k, v, chunk.left, chunk.right, lengths, self.scale, self.n_heads)
        a = ad.dropout(ad.matmul(ctx, self.w_o), dropout_rate, rng, training)
        y = ad.add_layer_norm(x, a, self.ln1_g, self.ln1_b, LN_EPS)
        f = ad.ffn(y, self.w1, self.b1, self.w2, self.b2)
        f = ad.dropout(f, dropout_rate, rng, training)
        return ad.add_layer_norm(y, f, self.ln2_g, self.ln2_b, LN_EPS)

    def context_np(self, q: np.ndarray, k: np.ndarray, v: np.ndarray, mask=None):
        """The attention sublayer's (m, d_m) head contexts, before ``w_o``,
        of the query projections ``q``, (m, d_m), over projected keys ``k``
        and values ``v``: one (n, d_m) window for every row, or (m, n, d_m),
        one per row. ``mask`` is an additive (m, n) 0 / LOG_ZERO mask or
        None."""
        m, heads, d_k = len(q), self.n_heads, self.d_k
        q = q.reshape(m, heads, 1, d_k)
        k = k.reshape(k.shape[:-1] + (heads, d_k)).swapaxes(-2, -3)
        v = v.reshape(v.shape[:-1] + (heads, d_k)).swapaxes(-2, -3)
        _, ctx = ad.attend(q, k, v, None if mask is None else mask[:, None, None], self.scale)
        return ctx.reshape(m, -1)

    def output_np(self, x: np.ndarray, ctx: np.ndarray, pad: np.ndarray) -> np.ndarray:
        """Block output for the rows ``x`` given their head contexts ``ctx``:
        the ``w_o`` product, the residual norm, the FFN and the second norm,
        every product over a :func:`row_tile` in ``pad``, so a row's bits do
        not depend on the rows sharing the call."""
        m = len(x)
        a = (row_tile(ctx, pad) @ self.w_o.data)[:m]
        y = ad.add_layer_norm_forward(x, a, self.ln1_g.data, self.ln1_b.data, LN_EPS)[2]
        f = ad.ffn_forward(row_tile(y, pad), self.w1.data, self.b1.data,
                           self.w2.data, self.b2.data)[1][:m]
        return ad.add_layer_norm_forward(y, f, self.ln2_g.data, self.ln2_b.data, LN_EPS)[2]


class Encoder:
    """Feature-side stack: linear projection + positional encoding + B blocks.

    Calling it evaluates a sequence or a batch on the tape, for training;
    :func:`encoder_tiles` is its row source for decoding and dev scoring.
    Every block applies the encoder's one window, ``chunk``: the window the
    model was trained with, and the one :func:`encoder_tiles` reads to pick
    each block's stage. To decode with another window, set ``chunk``.
    """

    def __init__(self, d_in: int, d_m: int, n_heads: int, d_ff: int,
                 n_blocks: int, chunk: ChunkSpec, rng):
        self.d_in, self.d_m, self.n_blocks = d_in, d_m, n_blocks
        self.chunk = chunk
        self.blocks = [SABlock(d_m, n_heads, d_ff, rng, f"enc.{i}") for i in range(n_blocks)]
        self.params = {
            "enc.in.w": glorot(rng, d_in, d_m),
            "enc.in.b": zeros_param(d_m),
        }
        for b in self.blocks:
            self.params.update(b.params)

    def __call__(self, feats: Tensor, dropout_rate: float = 0.0, rng=None,
                 training: bool = False, lengths=None) -> Tensor:
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
        pe = positional_encoding(np.arange(feats.shape[-2]), self.d_m)
        x = ad.add(ad.matmul(feats, self.params["enc.in.w"]), self.params["enc.in.b"])
        x = ad.add(x, Tensor(pe))
        x = ad.dropout(x, dropout_rate, rng, training)
        for block in self.blocks:
            x = block(x, self.chunk, lengths, dropout_rate, rng, training)
        return x


# Rows enter each encoder stage at most this many at a time, from a matrix or
# a stream: a bounded block's buffer holds this many plus its window's reach.
_ROW_TILE = 64


def encoder_tiles(encoder: Encoder, stacked):
    """Output rows of the encoder over stacked rows, in order, as the
    (m, d_m) chunks the last stage makes them in: the one row source of
    decoding, offline and streaming, and of dev scoring.

    Rows pass through the input projection plus the positional encoding,
    then one stage per block, which the encoder's window, ``chunk``, picks:
    :func:`_block_rows` when bounded, so top row t is yielded once stacked
    row t + B*right has been pulled, and the last B*right rows once the
    input is complete; :func:`_whole_rows` over a matrix when unbounded, so
    this call refuses a stream with ``ValueError``. A 2-D matrix flows in
    tiles of ``_ROW_TILE`` rows, any other iterable one row at a time, and a
    row's bits do not depend on that grouping; they equal the tape
    encoder's up to rounding. A row of the wrong width raises ``ShapeError``.
    """
    total = len(stacked) if isinstance(stacked, np.ndarray) and stacked.ndim == 2 else None
    chunk = encoder.chunk
    if total is None and not chunk.bounded:
        raise ValueError("a stream of stacked rows needs a bounded chunk window")
    chunks = _input_rows(encoder, stacked, total)
    for block in encoder.blocks:
        chunks = (_block_rows(block, chunks, int(chunk.left), int(chunk.right), total)
                  if chunk.bounded else _whole_rows(block, chunks))
    return chunks


def _input_rows(encoder: Encoder, stacked, total):
    """The input projection, one product per :func:`row_tile`, plus the
    positional encoding, made for ``_ROW_TILE`` positions at a time: a
    matrix of ``total`` rows in tiles that start at those multiples, else
    row by row."""
    w_in, b_in = encoder.params["enc.in.w"].data, encoder.params["enc.in.b"].data
    chunks = ((stacked[t:t + _ROW_TILE] for t in range(0, total, _ROW_TILE))
              if total is not None else (np.asarray(x)[None] for x in stacked))
    pad = np.zeros((tile_len(_ROW_TILE), encoder.d_in))
    t = 0
    for x in chunks:
        if x.shape[1:] != (encoder.d_in,):
            raise ad.ShapeError(f"encoder expects width {encoder.d_in}, got rows of {x.shape[1:]}")
        if t % _ROW_TILE == 0:
            pe = positional_encoding(np.arange(t, t + _ROW_TILE), encoder.d_m)
        yield (row_tile(x, pad) @ w_in)[:len(x)] + b_in + pe[t % _ROW_TILE:][:len(x)]
        t += len(x)


def _block_rows(block: SABlock, chunks, left: int, right: int, total):
    """Output rows of ``block`` under the window (left, right) over input
    rows that arrive in chunks of any size, ``total`` of them if known.

    A buffer holds [input | query | key | value] rows, projected as they
    enter, in pieces of at most ``_ROW_TILE``, by one product over a
    :func:`row_tile` with :func:`_w_qkv`, under a view of every key/value
    window. When a piece enters, every row now final (row t once input row
    t + right has entered or the input is complete) is computed in one call
    and passed on as one chunk. Slots outside the sequence are masked, and
    rows still needed move to the front only when the buffer fills.
    """
    d, size = block.d_m, left + right + 1
    w_qkv = _w_qkv(block)
    buf = np.zeros((_ROW_TILE + left + 2 * right, 4 * d))
    pad = np.zeros((tile_len(_ROW_TILE + right), d))  # a call's rows: a piece plus right
    wins = np.lib.stride_tricks.sliding_window_view(buf[:, 2 * d:], size, axis=0).swapaxes(1, 2)
    n = t = base = 0  # rows entered; rows output; position of buf[left]

    def out(stop):
        i, j, mask = t - base, stop - base, None
        if t < left or stop + right > n:
            pos = np.arange(t - left, stop - left)[:, None] + np.arange(size)
            mask = np.where((pos < 0) | (pos >= n), ad.LOG_ZERO, 0.0)
        x, win = buf[i + left:j + left], wins[i:j]
        ctx = block.context_np(x[:, d:2 * d], win[..., :d], win[..., d:], mask)
        return block.output_np(x[:, :d], ctx, pad)

    for x in (x[i:i + _ROW_TILE] for x in chunks for i in range(0, len(x), _ROW_TILE)):
        end = n - base + left
        if end + len(x) + right > len(buf):
            buf[:end - t + base] = buf[t - base:end]
            end, base = end - t + base, t
        buf[end:end + len(x), :d] = x
        buf[end:end + len(x), d:] = (row_tile(x, pad) @ w_qkv)[:len(x)]
        n += len(x)
        stop = n if n == total else n - right
        if stop > t:
            yield out(stop)
            t = stop
    if t < n:
        yield out(n)


def _whole_rows(block: SABlock, chunks):
    """Output rows of ``block`` under an unbounded window: every input row
    projected by one product over a :func:`row_tile` with :func:`_w_qkv`,
    then ``_ROW_TILE`` query rows per call over all the rows' keys and
    values, with no mask."""
    d = block.d_m
    x = np.concatenate([np.empty((0, d)), *chunks])
    pad = np.zeros((tile_len(max(len(x), _ROW_TILE)), d))
    qkv = (row_tile(x, pad) @ _w_qkv(block))[:len(x)]
    for i in range(0, len(x), _ROW_TILE):
        j = i + _ROW_TILE
        yield block.output_np(x[i:j], block.context_np(qkv[i:j, :d], qkv[:, d:2 * d],
                                                       qkv[:, 2 * d:]), pad)


def _w_qkv(block: SABlock) -> np.ndarray:
    """[w_q | w_k | w_v]: one product makes q, k and v with the bits of three."""
    return np.concatenate([block.w_q.data, block.w_k.data, block.w_v.data], 1)


class PredictionNetwork:
    """Label-side stack: token embedding + positional encoding + causal blocks.

    Input label ids are prefixed with the start token, so an empty prefix
    still yields one state row. Embeddings are scaled by sqrt(d_m) before the
    positional encoding is added.

    Calling it evaluates label sequences on the tape, for training. Decoding
    advances :class:`PredState` objects one label at a time through
    :meth:`init_state`, :meth:`advance_np` and :meth:`advance_many`, over the
    :class:`PredRows` row step that a search makes with :meth:`row_step` and
    passes as their last argument; a call without one makes its own.
    """

    def __init__(self, vocab_size: int, d_m: int, n_heads: int, d_ff: int,
                 n_blocks: int, rng):
        self.vocab_size, self.d_m, self.n_blocks = vocab_size, d_m, n_blocks
        # Positional-encoding rows for the row step, replaced by a longer
        # table on demand; a row has the bits it has alone.
        self._pe = np.empty((0, d_m))
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
        x = ad.add(x, Tensor(positional_encoding(np.arange(n), self.d_m)))
        x = ad.dropout(x, dropout_rate, rng, training)
        for block in self.blocks:
            x = block(x, CAUSAL, None, dropout_rate, rng, training)
        return x

    def row_step(self, rows: int) -> "PredRows":
        """The row step of one search that advances up to ``rows`` states
        per call."""
        return PredRows(self, rows)

    def init_state(self, step: "PredRows" = None):
        """Decode state of the empty prefix (the start token alone), written
        in place into a new, empty cache."""
        empty = _KVCache(self.n_blocks, 2 * self.d_m, _MIN_CACHE_ROWS)
        return self.advance_np(PredState(empty, 0, None), None, step)

    def advance_np(self, state: "PredState", token, step: "PredRows" = None) -> "PredState":
        """Extend a decode state by one token (None = the start token): a
        one-state :meth:`advance_many`."""
        return self.advance_many([state], [token], step)[0]

    def advance_many(self, states, tokens, step: "PredRows" = None) -> list:
        """Extend each decode state by its token (None = the start token) in
        one pass, and return the new states in order.

        ``step`` is the search's :class:`PredRows`; without one, the call
        makes its own. Every weight product of a block takes the new rows as
        one :func:`row_tile`, and q, k and v come from one product. Each
        block writes a new row's key and value after its state's cached
        rows, in place when the state owns its cache's tail (see
        :class:`PredState`), and the row attends over that cache alone,
        which the causal mask makes equal to a fresh full pass. Every state
        gets the bits it gets alone.

        Raises ValueError for a token outside [0, vocab_size) and when
        ``states`` and ``tokens`` differ in length.
        """
        n = len(states)
        if len(tokens) != n:
            raise ValueError(f"advance_many got {n} states but {len(tokens)} tokens")
        ids = [SOS if t is None else int(t) for t in tokens]
        for t, i in zip(tokens, ids):
            if not 0 <= i < self.vocab_size:
                raise ValueError(f"token {t} is outside [0, {self.vocab_size})")
        if n == 0:
            return []
        step = self.row_step(n) if step is None else step
        if n == 1:
            return [step.advance_one(states[0], ids[0])]
        return step.advance_group(states, ids)

    def _positions(self, length: int) -> np.ndarray:
        """Positional-encoding rows for positions 0..length-1 at least: a
        table kept on the network and replaced by one twice as long on
        demand; a row has the bits it has alone."""
        if length > len(self._pe):
            self._pe = positional_encoding(np.arange(2 * length - 1), self.d_m)
        return self._pe


class PredRows:
    """The prediction network's decode row step for one search: the
    counterpart of :class:`satkit.lattice.JointRows`.

    It reads the weights once, when the search makes it: the embedding
    table scaled by sqrt(d_m) and each block's ``[w_q | w_k | w_v]``
    (:func:`_w_qkv`), so a block makes q, k and v in one product whose
    columns have the bits of three. It also owns the :func:`row_tile` pad,
    sized for ``rows`` states and grown when a call brings more. A search
    makes its own and drops it at the end: an optimizer updates its arena in
    place, so a row step kept across searches would read stale weights.
    :meth:`PredictionNetwork.advance_many` calls :meth:`advance_one` for a
    lone state and :meth:`advance_group` for more; both run one attention
    rule, each row over its own child cache (:meth:`_KVCache.for_child`).
    """

    def __init__(self, net: PredictionNetwork, rows: int):
        self.net, self.d = net, net.d_m
        self.emb = net.params["pred.emb"].data * math.sqrt(net.d_m)
        self.w_qkv = [_w_qkv(block) for block in net.blocks]
        self.pad = np.zeros((tile_len(max(1, rows)), net.d_m))

    def advance_one(self, state: "PredState", token: int) -> "PredState":
        """One state's child by ``token``: :meth:`advance_group`'s
        arithmetic for one row, without its loop over rows."""
        d, length = self.d, state.length
        x = self.emb[token:token + 1] + self.net._positions(length + 1)[length]
        cache = _KVCache.for_child(state)
        for block, w_qkv, buf in zip(self.net.blocks, self.w_qkv, cache.bufs):
            qkv = row_tile(x, self.pad) @ w_qkv
            win = buf[:length + 1]
            win[length] = qkv[0, d:]
            ctx = block.context_np(qkv[:1, :d], win[:, :d], win[:, d:])
            x = block.output_np(x, ctx, self.pad)
        return PredState(cache, length + 1, x[0])

    def advance_group(self, states, ids) -> list:
        """Each state's child by its token, for two states or more. Each
        block's products take all rows as one :func:`row_tile`; each row
        writes its key and value into its own child cache and attends over
        that cache alone."""
        n, d = len(states), self.d
        if len(self.pad) < n:
            self.pad = np.zeros((tile_len(n), d))
        lengths = [state.length for state in states]
        x = self.emb.take(ids, 0)
        x += self.net._positions(max(lengths) + 1).take(lengths, 0)
        caches = [_KVCache.for_child(state) for state in states]
        ctx = np.empty((n, d))
        for b, (block, w_qkv) in enumerate(zip(self.net.blocks, self.w_qkv)):
            qkv = (row_tile(x, self.pad) @ w_qkv)[:n]
            for i, (cache, length) in enumerate(zip(caches, lengths)):
                win = cache.bufs[b][:length + 1]
                win[length] = qkv[i, d:]
                ctx[i:i + 1] = block.context_np(qkv[i:i + 1, :d], win[:, :d], win[:, d:])
            x = block.output_np(x, ctx, self.pad)
        return [PredState(cache, length + 1, row) for cache, length, row in zip(caches, lengths, x)]


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
    """Prediction-network state of one decode prefix: the first ``length``
    rows of its :class:`_KVCache`, and ``g``, the top block's output for the
    newest position, the vector the joint network reads.

    ``layers[i]``, read-only and made on each read, is a view of block i's
    [key | value] projections, one row per prefix position. States are
    immutable: advancing returns a new one,
    and the rows a state exposes never change, so beam hypotheses can share
    ancestors safely. A cache may be shared with descendants: a state that
    owns the cache's tail (its ``length`` equals the rows written) lets its
    child write the next row in place, past every row the state exposes,
    and the child then owns the tail. A state whose cache is full or already
    extended by another child (a sibling earlier in the same call included)
    gives its child a copy of its rows in a new cache.
    """

    cache: "_KVCache"
    length: int
    g: np.ndarray

    @property
    def layers(self) -> list:
        return [buf[:self.length] for buf in self.cache.bufs]


# Fewest rows a new cache buffer holds; a full buffer is replaced by one of
# twice the rows, so a chain of N labels reallocates O(log N) times.
_MIN_CACHE_ROWS = 16


class _KVCache:
    """Growable [key | value] rows of a chain of decode states: ``bufs[b]``
    is block b's (``cap``, width) buffer, of which the first ``n`` rows are
    written. A new cache has none written."""

    __slots__ = ("bufs", "n", "cap")

    def __init__(self, n_blocks: int, width: int, cap: int):
        self.bufs = [np.empty((cap, width)) for _ in range(n_blocks)]
        self.n, self.cap = 0, cap

    @classmethod
    def for_child(cls, state: PredState) -> "_KVCache":
        """The cache into which ``state``'s child writes row ``state.length``:
        ``state``'s own when the state owns its tail and the buffers have
        room, otherwise a new one holding a copy of ``state``'s rows. Either
        way the cache counts the child's row as written, so the child owns
        the tail from here on, and a second child of ``state`` gets a
        copy."""
        cache, length = state.cache, state.length
        if cache.n == length < cache.cap:
            cache.n = length + 1
            return cache
        cap = max(_MIN_CACHE_ROWS, 2 * (length + 1))
        child = cls(len(cache.bufs), cache.bufs[0].shape[1], cap)
        for buf, rows in zip(child.bufs, state.layers):
            buf[:length] = rows
        child.n = length + 1
        return child
