"""Dense tensors with reverse-mode automatic differentiation.

Every primitive records a node on an implicit tape; ``backward`` walks the
recorded graph once, in exact reverse topological order, and accumulates
gradients into every reachable leaf tensor (one created with
``requires_grad``, not by an op). Intermediate results carry no ``grad``:
their cotangents live only while ``backward`` runs. A node links to its
inputs' nodes, not to their tensors, and its vector-Jacobian product keeps
only the arrays it reads, so an intermediate result the backward pass does
not need is freed as soon as the forward pass is done with it. An op none
of whose inputs needs a gradient records no node, so evaluating with
constant inputs keeps no intermediate alive.
Shapes are strict: each primitive documents the exact shapes it accepts
(there is no general broadcasting), and mismatches raise ``ShapeError``
naming the primitive and both shapes.

The module keeps only what the model and the losses call: the product of a
stack of rows and a weight matrix, elementwise add/mul/scale, a row gather,
a sum, dropout and the fused ops: attention, the feed-forward sublayer, the
residual add with its layer norm, and the joint. Ops are called by name;
``Tensor`` has no operator sugar. Each fused op runs a plain-array forward
(:func:`attend`, :func:`ffn_forward`, :func:`add_layer_norm_forward`,
:func:`joint_forward`) that the decode row steps in :mod:`satkit.nnet` and
:mod:`satkit.lattice` call too, so that arithmetic exists once. A layer
with a closed-form gradient, like the lattice loss, records itself through
:func:`op_result` as one node with a hand-written vector-Jacobian product.
:class:`ParamArena` lays a model's parameters out in one array, so that an
optimizer updates them all at once and zeroes their gradients in one fill.

Every tensor holds 64-bit floats: ``Tensor`` converts what it is given, so
no op checks or carries a dtype. The lattice kernel's gradients and the
1e-10 normalization check assume that precision.
"""

from __future__ import annotations

import numpy as np

# Log-space "impossible" marker. Kept finite so exp() underflows to exactly
# 0.0 instead of producing inf/nan through arithmetic.
LOG_ZERO = -1.0e30


class ShapeError(ValueError):
    pass


class GraphError(RuntimeError):
    pass


class _Node:
    """One recorded op. ``parents`` holds, per op input, that input's own
    node (an op result), the input tensor (a leaf with ``requires_grad``),
    or None (a constant). ``vjp`` is None once backward has consumed it."""

    __slots__ = ("parents", "vjp")

    def __init__(self, parents, vjp):
        self.parents = parents
        self.vjp = vjp


class Tensor:
    """N-dimensional float64 array, optionally tracked for differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_ctx")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.data) if self.requires_grad else None
        self._ctx = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data)

    def backward(self):
        backward(self)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"


def _needs_grad(t: Tensor) -> bool:
    """True when a gradient must flow into ``t``: a tracked leaf, or the
    result of a recorded op."""
    return t.requires_grad or t._ctx is not None


def _edge(t: Tensor):
    """Where a tape node sends the cotangent of its input ``t``."""
    if t._ctx is not None:
        return t._ctx
    return t if t.requires_grad else None


def _result(data, parents, vjp):
    """Wrap an op result, recording a tape node when any parent needs grad.

    ``vjp`` must not refer to the parent tensors themselves, only to the
    arrays and flags it needs, so that the node keeps no input alive.
    """
    out = Tensor(data)
    if any(_needs_grad(p) for p in parents):
        out.requires_grad = any(p.requires_grad for p in parents)
        out._ctx = _Node(tuple(_edge(p) for p in parents), vjp)
    return out


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def backward(loss: Tensor) -> None:
    """Run reverse-mode differentiation from a scalar loss.

    Gradients are *accumulated* (summed over all paths) into ``grad`` of
    every reachable leaf tensor with ``requires_grad``. The recorded graph is
    consumed: calling backward a second time without a fresh forward pass
    raises ``GraphError``.
    """
    if loss.data.ndim != 0 and loss.data.size != 1:
        raise GraphError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    root = loss._ctx
    if root is None:
        # Leaf scalar: nothing to do, but mark so a repeat call errors the same way.
        loss._ctx = _Node((), None)
        return

    # Iterative post-order topological sort over recorded nodes.
    topo = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        if node.vjp is None:
            raise GraphError("backward: graph already consumed; run a new forward pass")
        stack.append((node, True))
        for p in node.parents:
            if isinstance(p, _Node) and id(p) not in visited:
                stack.append((p, False))

    seeds = {id(root): np.ones_like(loss.data)}
    while topo:
        # Popping drops the walk's reference, so each node's saved arrays
        # are freed once it has run.
        node = topo.pop()
        g = seeds.pop(id(node), None)
        if g is None:
            continue
        parents, vjp = node.parents, node.vjp
        node.parents, node.vjp = (), None
        for p, pg in zip(parents, vjp(g)):
            if pg is None or p is None:
                continue
            if isinstance(p, _Node):
                acc = seeds.get(id(p))
                # Fresh array on accumulation: pg may alias g or saved data.
                seeds[id(p)] = pg if acc is None else acc + pg
            else:
                if p.grad is None:
                    p.grad = np.zeros_like(p.data)
                p.grad += pg


# float64 elements per 64-byte cache line: every arena slot starts on one.
_LINE = 8


class ParamArena:
    """Every parameter's ``data`` and ``grad`` as views into two contiguous
    float64 arrays, ``data`` and ``grad``.

    Slots follow sorted-name order and each starts on a 64-byte boundary;
    the padding between them is zero and stays zero, since no op writes
    there. Building the arena copies each parameter's values into its slot
    and rebinds ``p.data`` and ``p.grad`` to the views, so whole-model
    updates can run over one array. Code that keeps the arena must write
    into the views (``p.data[...] = ...``), never rebind them.
    """

    def __init__(self, params: dict):
        self.shapes, self.slots, n = {}, {}, 0
        for name in sorted(params):
            p = params[name]
            if not p.requires_grad:
                raise ValueError(f"arena: {name!r} is not a trainable parameter")
            self.shapes[name] = p.shape
            self.slots[name] = slice(n, n + p.data.size)
            n += -(-p.data.size // _LINE) * _LINE
        self.size = n
        self.data, self.grad = self.zeros(), self.zeros()
        data, grad = self.views(self.data), self.views(self.grad)
        for name, p in params.items():
            data[name][...] = p.data
            if p.grad is not None:
                grad[name][...] = p.grad
            p.data, p.grad = data[name], grad[name]

    def zeros(self) -> np.ndarray:
        """A zeroed flat float64 array laid out like the arena, starting on a
        64-byte boundary: optimizer state that updates with the arena."""
        buf = np.zeros(self.size + _LINE)
        start = (-buf.ctypes.data % 64) // buf.itemsize
        return buf[start:start + self.size]

    def views(self, flat: np.ndarray) -> dict:
        """name -> the slot of ``flat`` shaped like that parameter."""
        return {name: flat[s].reshape(self.shapes[name]) for name, s in self.slots.items()}


def op_result(data, parents, vjp) -> Tensor:
    """Record a composite op with a hand-written vector-Jacobian product.

    ``vjp(g)`` must return one cotangent per parent (None for "no gradient"),
    each shaped like the matching parent's data. It should keep only the
    arrays it reads, not the parent tensors.
    """
    return _result(data, tuple(_as_tensor(p) for p in parents), vjp)


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of an (..., k) stack and a (k, m) matrix: a shared
    weight applied to every row of the stack, computed as one 2-D product
    over the flattened rows."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim != 2:
        raise ShapeError(f"matmul: expects (..., k) x (k, m), got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} x {b.shape}")
    # Each side's gradient reads the other side's data.
    need_a, need_b = _needs_grad(a), _needs_grad(b)
    a_data = a.data if need_b else None
    b_data = b.data if need_a else None
    k, m = b.shape
    a_shape = a.shape
    out = (a.data.reshape(-1, k) @ b.data).reshape(a_shape[:-1] + (m,))

    def vjp(g):
        ga = (g.reshape(-1, m) @ b_data.T).reshape(a_shape) if need_a else None
        gb = a_data.reshape(-1, k).T @ g.reshape(-1, m) if need_b else None
        return ga, gb

    return _result(out, (a, b), vjp)


def _suffix_ok(a_shape, b_shape):
    return len(b_shape) <= len(a_shape) and a_shape[len(a_shape) - len(b_shape):] == b_shape


def _reduce_to(g, shape):
    if g.shape == shape:
        return g
    axes = tuple(range(g.ndim - len(shape)))
    return g.sum(axis=axes)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum. Shapes must match exactly, or b's shape must be a
    trailing suffix of a's (bias rows, attention masks)."""
    a, b = _as_tensor(a), _as_tensor(b)
    if not _suffix_ok(a.shape, b.shape):
        raise ShapeError(f"add: {b.shape} is not a trailing suffix of {a.shape}")
    out = a.data + b.data
    b_shape, need_b = b.shape, _needs_grad(b)

    def vjp(g):
        return g, _reduce_to(g, b_shape) if need_b else None

    return _result(out, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product, same suffix rule as ``add``."""
    a, b = _as_tensor(a), _as_tensor(b)
    if not _suffix_ok(a.shape, b.shape):
        raise ShapeError(f"mul: {b.shape} is not a trailing suffix of {a.shape}")
    out = a.data * b.data
    need_a, need_b = _needs_grad(a), _needs_grad(b)
    a_data = a.data if need_b else None
    b_data = b.data if need_a else None
    b_shape = b.shape

    def vjp(g):
        return (g * b_data if need_a else None,
                _reduce_to(g * a_data, b_shape) if need_b else None)

    return _result(out, (a, b), vjp)


def scale(x: Tensor, alpha: float) -> Tensor:
    x = _as_tensor(x)
    alpha = float(alpha)
    out = x.data * alpha

    def vjp(g):
        return (g * alpha,)

    return _result(out, (x,), vjp)


def _check_finite(name, x: np.ndarray):
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name}: non-finite input")


def _softmax_inplace(x: np.ndarray) -> np.ndarray:
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def _softmax_vjp(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    d = g - (g * out).sum(axis=-1, keepdims=True)
    d *= out
    return d


# Bytes of tanh rows in one tile of joint_log_softmax: a tile's rows, logits
# and cotangents then fit in L2 cache together.
_JOINT_TILE_BYTES = 1 << 19


def _joint_tiles(B, T, rows):
    """(b0, b1, t0, t1) blocks of at most ``rows`` frames covering (B, T):
    whole utterances when one fits, else frame ranges of one utterance.
    Blocks are balanced, so none is much smaller than the others."""
    def split(n, parts):
        return [(i * n // parts, (i + 1) * n // parts) for i in range(parts)]

    if rows >= T:
        return [(b0, b1, 0, T) for b0, b1 in split(B, -(-B // (rows // max(T, 1))))]
    return [(b, b + 1, t0, t1) for b in range(B) for t0, t1 in split(T, -(-T // rows))]


def joint_forward(f: np.ndarray, g: np.ndarray, w_out: np.ndarray, h=None, out=None,
                  scratch=None) -> np.ndarray:
    """``log_softmax(tanh(f + g) @ w_out)`` on plain arrays: the forward of
    :func:`joint_log_softmax` on one tile, shared with the decode row step.
    ``f + g`` broadcasts to the (..., J) sums, made tanh rows in place;
    returns the (n, K) log-prob rows. ``h`` (the sums), ``out`` and
    ``scratch`` (n, K) are optional buffers. The reductions are the ufuncs'
    own, which ``ndarray.max``/``sum`` wrap at a cost per call."""
    h = np.add(f, g, out=h)
    np.tanh(h, out=h)
    z = np.matmul(h.reshape(-1, h.shape[-1]), w_out, out=out)
    z -= np.maximum.reduce(z, -1, keepdims=True)
    z -= np.log(np.add.reduce(np.exp(z, out=scratch), -1, keepdims=True))
    return z


def joint_log_softmax(f: Tensor, g: Tensor, w_out: Tensor) -> Tensor:
    """The transducer joint as one op:
    ``log_softmax(tanh(f[..., :, None, :] + g[..., None, :, :]) @ w_out)``.

    ``f`` is (T, J) or (B, T, J) frame projections, ``g`` (U+1, J) or
    (B, U+1, J) prediction projections and ``w_out`` (J, K); the result is
    the (..., T, U+1, K) grid of log distributions. Non-finite logits, which
    make non-finite log probs, raise ``ValueError``.

    The grid is built in tiles of frames sized by ``_JOINT_TILE_BYTES``, each
    by :func:`joint_forward`: a tile's sums become its tanh rows in place, are
    projected straight into the output and normalized there, so the only
    grid-sized arrays are the result and, when an input needs a gradient, the
    tanh grid the vjp reads. The vjp goes tile by tile from the log-prob
    cotangent G to the logits (``G - softmax * sum_k G``), then to ``w_out``
    and through tanh to the per-frame and per-label sums that are the
    cotangents of ``f`` and ``g``.
    """
    f, g, w_out = _as_tensor(f), _as_tensor(g), _as_tensor(w_out)
    if (f.ndim not in (2, 3) or g.ndim != f.ndim or f.shape[:-2] != g.shape[:-2]
            or w_out.ndim != 2 or g.shape[-1] != f.shape[-1] or w_out.shape[0] != f.shape[-1]):
        raise ShapeError(f"joint_log_softmax: expects (..., T, J), (..., U+1, J) and (J, K), "
                         f"got {f.shape}, {g.shape} and {w_out.shape}")
    fb = f.data if f.ndim == 3 else f.data[None]
    gb = g.data if g.ndim == 3 else g.data[None]
    w = w_out.data
    (B, T, J), U1, K = fb.shape, gb.shape[1], w.shape[1]
    batched = f.ndim == 3
    need_f, need_g, need_w = _needs_grad(f), _needs_grad(g), _needs_grad(w_out)
    keep = need_f or need_g or need_w
    rows = max(1, _JOINT_TILE_BYTES // max(1, U1 * J * 8))  # 8-byte floats
    tiles = _joint_tiles(B, T, rows)
    n_max = max(((b1 - b0) * (t1 - t0) * U1 for b0, b1, t0, t1 in tiles), default=0)

    out = np.empty((B, T, U1, K))
    # the tanh grid the vjp reads, or one tile's worth reused across tiles
    h = np.empty((B, T, U1, J)) if keep else np.empty(n_max * J)
    ez = np.empty((n_max, K))
    for b0, b1, t0, t1 in tiles:
        nb, nt = b1 - b0, t1 - t0
        n = nb * nt * U1
        ht = h[b0:b1, t0:t1] if keep else h[:n * J].reshape(nb, nt, U1, J)
        z = joint_forward(fb[b0:b1, t0:t1, None], gb[b0:b1, None], w, ht,
                          out[b0:b1, t0:t1].reshape(n, K), ez[:n])
        _check_finite("joint_log_softmax", z)

    def vjp(G):
        G = G.reshape(out.shape)
        df = np.empty((B, T, J)) if need_f else None
        dg = np.zeros((B, U1, J)) if need_g else None
        dw_t = np.zeros((K, J)) if need_w else None
        d = np.empty((n_max, K))
        dh = np.empty((n_max, J))
        sq = np.empty((n_max, J))
        # Short sums as products with ones: BLAS beats numpy's reductions
        # over a short last axis or a middle one.
        ones = np.ones(max(K, U1, T))
        for b0, b1, t0, t1 in tiles:
            nb, nt = b1 - b0, t1 - t0
            n = nb * nt * U1
            Gt = G[b0:b1, t0:t1].reshape(n, K)
            ht = h[b0:b1, t0:t1].reshape(n, J)
            dz = np.exp(out[b0:b1, t0:t1].reshape(n, K), out=d[:n])
            dz *= (Gt @ ones[:K])[:, None]
            np.subtract(Gt, dz, out=dz)
            if need_w:
                dw_t += dz.T @ ht
            if need_f or need_g:
                dht = np.matmul(dz, w.T, out=dh[:n])
                np.multiply(ht, ht, out=sq[:n])
                np.subtract(1.0, sq[:n], out=sq[:n])
                dht *= sq[:n]
                dht = dht.reshape(nb, nt, U1, J)
                if need_f:
                    df[b0:b1, t0:t1] = ones[:U1] @ dht
                if need_g:
                    dg[b0:b1] += (ones[:nt] @ dht.reshape(nb, nt, U1 * J)).reshape(nb, U1, J)
        dw = None if dw_t is None else dw_t.T
        if not batched:
            df = None if df is None else df[0]
            dg = None if dg is None else dg[0]
        return df, dg, dw

    return _result(out if batched else out[0], (f, g, w_out), vjp)


def _check_open_rows(mask: np.ndarray):
    if mask.size and mask.max(axis=-1).min() < 0.0:
        raise ValueError("attention mask blocks every key for some query row")


def attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, mask, scale: float,
           check: bool = False):
    """The attention forward on plain arrays, shared by :func:`attention`
    and the decode row step: ``softmax(scale * q @ k^T + mask) @ v`` over
    the last two axes of head-split queries, keys and values. ``mask`` is
    an additive 0 / LOG_ZERO array broadcast against the scores, or None;
    one that closes every key of a row raises. With ``check``, non-finite
    scores raise too; the tape op checks, the per-row decode step does not.
    Returns (weights, context).
    """
    scores = q @ k.swapaxes(-1, -2)
    if check:
        _check_finite("attention", scores)
    scores *= scale
    if mask is not None:
        _check_open_rows(mask)
        scores += mask
    weights = _softmax_inplace(scores)
    return weights, weights @ v


# Fewest query rows per block of banded attention: smaller blocks waste less
# of each key slab but pay more per-block matrix-product overhead.
_MIN_BLOCK = 16


def _row_blocks(x: np.ndarray, n_blk: int, block: int) -> np.ndarray:
    """(B, H, T, d) -> (B, H, n_blk, block, d), zero rows after T."""
    B, H, T, d = x.shape
    if n_blk * block > T:
        x = np.concatenate([x, np.zeros((B, H, n_blk * block - T, d))], axis=2)
    return x.reshape(B, H, n_blk, block, d)


def _slab_view(x: np.ndarray, offset: int, n_blk: int, block: int, rows: int, **kw):
    """(B, H, n_blk, rows, d) view of x: block j is x[:, :, offset + j*block:][:rows]."""
    s = x.strides
    return np.lib.stride_tricks.as_strided(
        x[:, :, offset:], x.shape[:2] + (n_blk, rows, x.shape[3]),
        (s[0], s[1], block * s[2], s[2], s[3]), **kw)


def _slabs(x: np.ndarray, n_blk: int, block: int, first: int, slab: int) -> np.ndarray:
    """Key slabs (B, H, n_blk, slab, d): slab j holds the rows j*block +
    first ... + slab - 1 of x, zero outside [0, T). The slabs of adjacent
    blocks overlap, so this is a strided view of one padded copy."""
    if n_blk == 1:
        return x[:, :, None]
    B, H, T, d = x.shape
    front = max(0, -first)
    padded = np.zeros((B, H, front + (n_blk - 1) * block + first + slab, d))
    padded[:, :, front:front + T] = x[:, :, :padded.shape[2] - front]
    return _slab_view(padded, front + first, n_blk, block, slab, writeable=False)


def _unslab(g: np.ndarray, T: int, block: int, first: int) -> np.ndarray:
    """Cotangent of :func:`_slabs`: sums the overlapping slab rows back into
    (B, H, T, d)."""
    B, H, n_blk, slab, d = g.shape
    if n_blk == 1:
        return g[:, :, 0]
    front = max(0, -first)
    rows = np.zeros((B, H, front + max(T, first + n_blk * block + slab), d))
    for r in range(0, slab, block):  # pieces of at most one block never overlap
        n = min(block, slab - r)
        _slab_view(rows, front + first + r, n_blk, block, n)[...] += g[:, :, :, r:r + n]
    return rows[:, :, front:front + T]


def _band_mask(T, n_blk, block, first, slab, left, right, lengths):
    """(B or 1, 1, n_blk, block, slab) additive mask of 0 / LOG_ZERO: query
    i = j*block + c may see key p = j*block + first + s."""
    i = (np.arange(n_blk) * block)[:, None, None] + np.arange(block)[:, None]
    p = (np.arange(n_blk) * block + first)[:, None, None] + np.arange(slab)
    ok = (p - i >= -left) & (p - i <= right) & (p >= 0) & (p < T)
    if lengths is not None:  # a real query sees only real keys
        n = lengths[:, None, None, None]
        ok = ok & ((i >= n) | (p < n))
    else:
        ok = ok[None]
    ok = ok | (i >= T)  # rows past T are dropped; keep them open
    return np.where(ok, 0.0, LOG_ZERO)[:, None]


def attention(q: Tensor, k: Tensor, v: Tensor, left, right, lengths=None,
              scale: float = 1.0, heads: int = 1) -> Tensor:
    """Windowed multi-head scaled dot-product attention of a sequence over
    itself.

    ``q``, ``k`` and ``v`` are (T, heads * d) for one sequence, or
    (B, T, heads * d) for a zero-padded batch whose sequence b holds
    ``lengths[b]`` frames (None: all T); head h reads column block
    [h*d, (h+1)*d) of each, and writes the same block of the result. Query
    i attends to the keys j with ``-left <= j - i <= right`` (integers, or
    ``math.inf`` to lift a bound), with weights softmax(scale * q.k). In a
    batch, a real query sees only the real keys of its window and a padded
    query keeps its plain window. A window that leaves some query without a
    key, or non-finite scores, raise ``ValueError``.

    A bounded window is computed in blocks of ``block >= left + right + 1``
    query rows. Block j scores only the ``block + left + right`` keys its
    rows can reach, a strided slab of the zero-padded keys, so scores are
    (B, H, n_blocks, block, slab) and cost O(T) rather than O(T^2). A window
    at least as wide as the sequence is one block whose slab is all T keys:
    the dense product. Either way the blocks go through :func:`attend`.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    shape = q.shape
    if q.ndim not in (2, 3) or k.shape != shape or v.shape != shape or shape[-1] % heads:
        raise ShapeError(f"attention: expects equal (T, {heads} * d) or (B, T, {heads} * d) "
                         f"inputs, got {q.shape}, {k.shape}, {v.shape}")
    B = shape[0] if q.ndim == 3 else 1
    H, T, d = heads, shape[-2], shape[-1] // heads
    if lengths is not None:
        lengths = np.asarray(lengths, dtype=np.int64)
        if q.ndim != 3 or lengths.shape != (B,):
            raise ShapeError(f"attention: lengths {lengths.shape} do not match a batch of {shape}")
        if lengths.min() < 1 or lengths.max() > T:
            raise ValueError(f"attention: sequence lengths must lie in [1, {T}], got {lengths}")
    # offsets beyond T - 1 reach no key
    lo, hi = -int(min(left, T - 1)), int(min(right, T - 1))
    block = max(hi - lo + 1, _MIN_BLOCK)
    if lo <= hi and block + hi - lo < T:
        n_blk, first, slab = -(-T // block), lo, block + hi - lo
    else:
        n_blk, block, first, slab = 1, T, 0, T
    mask = _band_mask(T, n_blk, block, first, slab, left, right, lengths)

    def split(x):  # (..., T, H*d) -> (B, H, T, d), a view
        return x.reshape(B, T, H, d).transpose(0, 2, 1, 3)

    def merge(x):  # (B, H, >= T, d) -> (..., T, H*d)
        return x[:, :, :T].transpose(0, 2, 1, 3).reshape(shape)

    qb = _row_blocks(split(q.data), n_blk, block)
    ks = _slabs(split(k.data), n_blk, block, first, slab)
    vs = _slabs(split(v.data), n_blk, block, first, slab)
    weights, ctx = attend(qb, ks, vs, mask, scale, check=True)
    out = merge(ctx.reshape(B, H, n_blk * block, d))
    need_q, need_k, need_v = _needs_grad(q), _needs_grad(k), _needs_grad(v)

    def vjp(g):
        gb = _row_blocks(split(g), n_blk, block)
        ds = _softmax_vjp(np.matmul(gb, np.swapaxes(vs, -1, -2)), weights)
        ds *= scale
        gq = gk = gv = None
        if need_q:
            gq = merge(np.matmul(ds, ks).reshape(B, H, n_blk * block, d))
        if need_k:
            gk = merge(_unslab(np.matmul(np.swapaxes(ds, -1, -2), qb), T, block, first))
        if need_v:
            gv = merge(_unslab(np.matmul(np.swapaxes(weights, -1, -2), gb), T, block, first))
        return gq, gk, gv

    return _result(out, (q, k, v), vjp)


def index_rows(x: Tensor, indices) -> Tensor:
    """Gather rows of a 2-D tensor (embedding lookup); the result has shape
    ``indices.shape + (x.shape[1],)``."""
    x = _as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"index_rows: expects 2-D table, got {x.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise ShapeError(f"index_rows: index out of range for table of {x.shape[0]} rows")
    out = x.data[idx]
    x_shape = x.shape

    def vjp(g):
        full = np.zeros(x_shape)
        np.add.at(full, idx, g)
        return (full,)

    return _result(out, (x,), vjp)


def mean_lastdim(x: np.ndarray) -> np.ndarray:
    """``x.mean(-1, keepdims=True)``, bit for bit, without numpy's
    Python-level ``_mean`` wrapper."""
    return np.add.reduce(x, -1, keepdims=True) / x.shape[-1]


def ffn_forward(x: np.ndarray, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray,
                b2: np.ndarray):
    """The forward of :func:`ffn` on plain (..., d) arrays, shared with the
    decode row step, which passes (rows, 1, d) for one product per row.
    Returns the (..., f) hidden rows and the (..., m) result."""
    h = x @ w1
    h += b1
    np.maximum(h, 0.0, out=h)
    out = h @ w2
    out += b2
    return h, out


def ffn(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """The feed-forward sublayer as one op: ``max(0, x @ w1 + b1) @ w2 + b2``.

    ``x`` is (..., d), ``w1`` (d, f), ``b1`` (f,), ``w2`` (f, m) and ``b2``
    (m,); the result is (..., m). Both products act on the flattened rows,
    and the bias adds and the relu run in place on the product they follow
    (:func:`ffn_forward`), so the forward pass allocates only the hidden
    rows and the result. The vjp keeps the inputs and the hidden rows, as
    the five ops it replaces did, and computes their cotangents with the
    same arithmetic.
    """
    x, w1, b1, w2, b2 = (_as_tensor(t) for t in (x, w1, b1, w2, b2))
    if (x.ndim < 2 or w1.ndim != 2 or w2.ndim != 2 or x.shape[-1] != w1.shape[0]
            or b1.shape != w1.shape[1:] or w2.shape[0] != w1.shape[1]
            or b2.shape != w2.shape[1:]):
        raise ShapeError(f"ffn: expects (..., d), (d, f), (f,), (f, m) and (m,), got "
                         f"{x.shape}, {w1.shape}, {b1.shape}, {w2.shape} and {b2.shape}")
    (d, f), m = w1.shape, w2.shape[1]
    x_shape, h_shape = x.shape, x.shape[:-1] + (f,)
    h, out = ffn_forward(x.data.reshape(-1, d), w1.data, b1.data, w2.data, b2.data)
    need_x, need_w1, need_b1, need_w2, need_b2 = (
        _needs_grad(t) for t in (x, w1, b1, w2, b2))
    x_data = x.data if need_w1 else None
    w1_data, w2_data = w1.data, w2.data

    def vjp(g):
        gb2 = _reduce_to(g, (m,)) if need_b2 else None
        g = g.reshape(-1, m)
        gw2 = h.T @ g if need_w2 else None
        gx = gw1 = gb1 = None
        if need_x or need_w1 or need_b1:
            gh = g @ w2_data.T
            gh *= h > 0.0
            if need_b1:
                gb1 = _reduce_to(gh.reshape(h_shape), (f,))
            if need_x:
                gx = (gh @ w1_data.T).reshape(x_shape)
            if need_w1:
                gw1 = x_data.reshape(-1, d).T @ gh
        return gx, gw1, gb1, gw2, gb2

    return _result(out.reshape(x_shape[:-1] + (m,)), (x, w1, b1, w2, b2), vjp)


def add_layer_norm_forward(x: np.ndarray, a: np.ndarray, gain: np.ndarray,
                           bias: np.ndarray, eps: float):
    """The forward of :func:`add_layer_norm` on plain arrays, shared with
    the decode row step. Returns the centred sum ``xc``, the inverse
    standard deviation ``inv`` (last extent 1) and the result."""
    xc = x + a
    xc -= mean_lastdim(xc)
    inv = 1.0 / np.sqrt(mean_lastdim(xc * xc) + eps)
    out = xc * inv
    out *= gain
    out += bias
    return xc, inv, out


def add_layer_norm(x: Tensor, a: Tensor, gain: Tensor, bias: Tensor,
                   eps: float = 1e-6) -> Tensor:
    """A residual add and a layer norm as one op: the final axis of ``x + a``
    normalized to zero mean / unit variance, then scaled by ``gain`` and
    shifted by ``bias`` (both 1-D of the final extent). ``x`` and ``a`` have
    equal shapes; both receive the cotangent of the sum."""
    x, a, gain, bias = (_as_tensor(t) for t in (x, a, gain, bias))
    d = x.shape[-1]
    if a.shape != x.shape or gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"add_layer_norm: expects equal x and a and ({d},) gain and "
                         f"bias, got {x.shape}, {a.shape}, {gain.shape} and {bias.shape}")
    xc, inv, out = add_layer_norm_forward(x.data, a.data, gain.data, bias.data, eps)
    gain_data = gain.data
    need_x, need_a, need_gain, need_bias = (_needs_grad(t) for t in (x, a, gain, bias))

    def vjp(g):
        gx = None
        if need_x or need_a:
            dxhat = g * gain_data
            dvar = (dxhat * xc).sum(axis=-1, keepdims=True) * (-0.5) * inv**3
            dmu = (-dxhat * inv).sum(axis=-1, keepdims=True) + dvar * mean_lastdim(-2.0 * xc)
            gx = dxhat * inv + dvar * 2.0 * xc / d + dmu / d
        ggain = _reduce_to(g * (xc * inv), (d,)) if need_gain else None
        gbias = _reduce_to(g, (d,)) if need_bias else None
        return gx if need_x else None, gx if need_a else None, ggain, gbias

    return _result(out, (x, a, gain, bias), vjp)


def sum_all(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    out = x.data.sum()
    x_shape = x.shape

    def vjp(g):
        return (np.full(x_shape, float(g)),)

    return _result(out, (x,), vjp)


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout; identity when not training or rate is 0."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must lie in [0, 1), got {rate}")
    if not training or rate <= 0.0:
        return x
    keep = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return mul(x, Tensor(keep))
