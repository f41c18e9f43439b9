"""Dense tensors with reverse-mode automatic differentiation.

Every primitive records a node on an implicit tape; ``backward`` walks the
recorded graph once, in exact reverse topological order, and accumulates
gradients into every reachable leaf tensor (one created with
``requires_grad``, not by an op). Intermediate results carry no ``grad``:
their cotangents live only while ``backward`` runs. A node links to its
inputs' nodes, not to their tensors, and its vector-Jacobian product keeps
only the arrays it reads, so an intermediate result the backward pass does
not need is freed as soon as the forward pass is done with it. Inside
``no_grad()`` no node is recorded, so evaluation keeps no intermediate
alive.
Shapes are strict: each primitive documents the exact shapes it accepts
(there is no general broadcasting), and mismatches raise ``ShapeError``
naming the primitive and both shapes.

64-bit floats are the default; 32-bit tensors can be created explicitly and
ops preserve the operand dtype (mixing dtypes is an error).
"""

from __future__ import annotations

import contextlib

import numpy as np

# Log-space "impossible" marker. Kept finite so exp() underflows to exactly
# 0.0 instead of producing inf/nan through arithmetic.
LOG_ZERO = -1.0e30

DEFAULT_DTYPE = np.float64


class ShapeError(ValueError):
    pass


class GraphError(RuntimeError):
    pass


# False inside no_grad(): ops record no tape node.
_recording = True


class _Node:
    """One recorded op. ``parents`` holds, per op input, that input's own
    node (an op result), the input tensor (a leaf with ``requires_grad``),
    or None (a constant). ``vjp`` is None once backward has consumed it."""

    __slots__ = ("parents", "vjp")

    def __init__(self, parents, vjp):
        self.parents = parents
        self.vjp = vjp


class Tensor:
    """N-dimensional float array, optionally tracked for differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_ctx")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype if dtype is not None else None)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(arr) if self.requires_grad else None
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

    def zero_grad(self):
        """Zero the gradient in place: a training loop keeps one gradient
        array per parameter instead of allocating it anew every step."""
        if self.requires_grad:
            if self.grad is None:
                self.grad = np.zeros_like(self.data)
            else:
                self.grad.fill(0.0)

    def backward(self):
        backward(self)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"

    # Small amount of operator sugar; model code mostly calls the named ops.
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, scale(other, -1.0))

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale(self, other)

    def __rmul__(self, other):
        return scale(self, other)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


@contextlib.contextmanager
def no_grad():
    """Evaluate without recording: results inside the block are plain
    values that ``backward`` cannot reach, and no op keeps its inputs."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


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
    if _recording and any(_needs_grad(p) for p in parents):
        out.requires_grad = any(p.requires_grad for p in parents)
        out._ctx = _Node(tuple(_edge(p) for p in parents), vjp)
    return out


def _same_dtype(name, *tensors):
    dtypes = {t.data.dtype for t in tensors}
    if len(dtypes) > 1:
        raise ShapeError(f"{name}: mixed dtypes {sorted(str(d) for d in dtypes)}")


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


def zero_grads(params) -> None:
    for p in params.values() if isinstance(params, dict) else params:
        p.zero_grad()


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
    """Matrix product over the last two axes.

    2-D x 2-D; stacked N-D x N-D with equal leading axes; or N-D x 2-D, a
    shared weight applied to every row of a stack (computed as one 2-D
    product over the flattened rows).
    """
    a, b = _as_tensor(a), _as_tensor(b)
    _same_dtype("matmul", a, b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: expects matrices, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} x {b.shape}")
    # Each side's gradient reads the other side's data.
    need_a, need_b = _needs_grad(a), _needs_grad(b)
    a_data = a.data if need_b else None
    b_data = b.data if need_a else None
    if b.ndim == 2:
        k, m = b.shape
        a_shape = a.shape
        out = (a.data.reshape(-1, k) @ b.data).reshape(a_shape[:-1] + (m,))

        def vjp(g):
            ga = (g.reshape(-1, m) @ b_data.T).reshape(a_shape) if need_a else None
            gb = a_data.reshape(-1, k).T @ g.reshape(-1, m) if need_b else None
            return ga, gb

        return _result(out, (a, b), vjp)
    if a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul: stacked shapes incompatible, {a.shape} x {b.shape}")
    out = np.matmul(a.data, b.data)

    def vjp(g):
        ga = np.matmul(g, np.swapaxes(b_data, -1, -2)) if need_a else None
        gb = np.matmul(np.swapaxes(a_data, -1, -2), g) if need_b else None
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
    _same_dtype("add", a, b)
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
    _same_dtype("mul", a, b)
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


def relu(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    out = np.maximum(x.data, 0.0)

    def vjp(g):
        return (g * (out > 0.0),)  # out > 0 exactly where x > 0

    return _result(out, (x,), vjp)


def exp(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    out = np.exp(x.data)

    def vjp(g):
        return (g * out,)

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


def softmax_lastdim(x: Tensor) -> Tensor:
    """Softmax over the final axis. Rows are probability vectors."""
    x = _as_tensor(x)
    _check_finite("softmax_lastdim", x.data)
    out = _softmax_inplace(x.data.copy())

    def vjp(g):
        return (_softmax_vjp(g, out),)

    return _result(out, (x,), vjp)


def logsumexp_lastdim(x: Tensor) -> Tensor:
    """Log of summed exponentials over the final axis; output drops that axis."""
    x = _as_tensor(x)
    _check_finite("logsumexp_lastdim", x.data)
    m = x.data.max(axis=-1, keepdims=True)
    out = (m + np.log(np.exp(x.data - m).sum(axis=-1, keepdims=True))).squeeze(-1)
    x_data = x.data

    def vjp(g):
        soft = np.exp(x_data - out[..., None])
        return (soft * g[..., None],)

    return _result(out, (x,), vjp)


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


def joint_log_softmax(f: Tensor, g: Tensor, w_out: Tensor) -> Tensor:
    """The transducer joint as one op:
    ``log_softmax(tanh(f[..., :, None, :] + g[..., None, :, :]) @ w_out)``.

    ``f`` is (T, J) or (B, T, J) frame projections, ``g`` (U+1, J) or
    (B, U+1, J) prediction projections and ``w_out`` (J, K); the result is
    the (..., T, U+1, K) grid of log distributions. Non-finite logits raise
    ``ValueError``.

    The grid is built in tiles of frames sized by ``_JOINT_TILE_BYTES``: a
    tile's sums become its tanh rows in place, are projected straight into
    the output and normalized there, so the only grid-sized arrays are the
    result and, when recording, the tanh grid the vjp reads. The vjp goes
    tile by tile from the log-prob cotangent G to the logits
    (``G - softmax * sum_k G``), then to ``w_out`` and through tanh to the
    per-frame and per-label sums that are the cotangents of ``f`` and ``g``.
    """
    f, g, w_out = _as_tensor(f), _as_tensor(g), _as_tensor(w_out)
    _same_dtype("joint_log_softmax", f, g, w_out)
    if (f.ndim not in (2, 3) or g.ndim != f.ndim or f.shape[:-2] != g.shape[:-2]
            or w_out.ndim != 2 or g.shape[-1] != f.shape[-1] or w_out.shape[0] != f.shape[-1]):
        raise ShapeError(f"joint_log_softmax: expects (..., T, J), (..., U+1, J) and (J, K), "
                         f"got {f.shape}, {g.shape} and {w_out.shape}")
    fb = f.data if f.ndim == 3 else f.data[None]
    gb = g.data if g.ndim == 3 else g.data[None]
    w = w_out.data
    (B, T, J), U1, K = fb.shape, gb.shape[1], w.shape[1]
    dtype, batched = f.dtype, f.ndim == 3
    need_f, need_g, need_w = _needs_grad(f), _needs_grad(g), _needs_grad(w_out)
    keep = _recording and (need_f or need_g or need_w)
    rows = max(1, _JOINT_TILE_BYTES // max(1, U1 * J * dtype.itemsize))
    tiles = _joint_tiles(B, T, rows)
    n_max = max(((b1 - b0) * (t1 - t0) * U1 for b0, b1, t0, t1 in tiles), default=0)

    out = np.empty((B, T, U1, K), dtype)
    # the tanh grid the vjp reads, or one tile's worth reused across tiles
    h = np.empty((B, T, U1, J), dtype) if keep else np.empty(n_max * J, dtype)
    ez = np.empty((n_max, K), dtype)
    for b0, b1, t0, t1 in tiles:
        nb, nt = b1 - b0, t1 - t0
        n = nb * nt * U1
        ht = h[b0:b1, t0:t1] if keep else h[:n * J].reshape(nb, nt, U1, J)
        np.add(fb[b0:b1, t0:t1, None], gb[b0:b1, None], out=ht)
        np.tanh(ht, out=ht)
        z = out[b0:b1, t0:t1].reshape(n, K)
        np.matmul(ht.reshape(n, J), w, out=z)
        _check_finite("joint_log_softmax", z)
        z -= z.max(axis=-1, keepdims=True)
        z -= np.log(np.exp(z, out=ez[:n]).sum(axis=-1, keepdims=True))

    def vjp(G):
        G = G.reshape(out.shape)
        df = np.empty((B, T, J), dtype) if need_f else None
        dg = np.zeros((B, U1, J), dtype) if need_g else None
        dw_t = np.zeros((K, J), dtype) if need_w else None
        d = np.empty((n_max, K), dtype)
        dh = np.empty((n_max, J), dtype)
        sq = np.empty((n_max, J), dtype)
        # Short sums as products with ones: BLAS beats numpy's reductions
        # over a short last axis or a middle one.
        ones = np.ones(max(K, U1, T), dtype)
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


def softmax_context(scores: np.ndarray, mask, v: np.ndarray):
    """The attention kernel, shared by :func:`attention` and the decode row
    step: softmax over the last axis of ``scores + mask``, then the context
    ``weights @ v``. ``mask`` is an additive 0 / LOG_ZERO array broadcast
    against ``scores``, or None; one that closes every key of a row raises.
    ``scores`` is overwritten with the weights. Returns (weights, context).
    """
    if mask is not None:
        _check_open_rows(mask)
        scores += mask
    weights = _softmax_inplace(scores)
    return weights, np.matmul(weights, v)


# Fewest query rows per block of banded attention: smaller blocks waste less
# of each key slab but pay more per-block matrix-product overhead.
_MIN_BLOCK = 16


def _row_blocks(x: np.ndarray, n_blk: int, block: int) -> np.ndarray:
    """(B, H, T, d) -> (B, H, n_blk, block, d), zero rows after T."""
    B, H, T, d = x.shape
    if n_blk * block > T:
        x = np.concatenate([x, np.zeros((B, H, n_blk * block - T, d), x.dtype)], axis=2)
    return x.reshape(B, H, n_blk, block, d)


def _slab_view(x: np.ndarray, start: int, n_blk: int, block: int, rows: int, **kw):
    """(B, H, n_blk, rows, d) view of x: block j is x[:, :, start + j*block:][:rows]."""
    s = x.strides
    return np.lib.stride_tricks.as_strided(
        x[:, :, start:], x.shape[:2] + (n_blk, rows, x.shape[3]),
        (s[0], s[1], block * s[2], s[2], s[3]), **kw)


def _slabs(x: np.ndarray, n_blk: int, block: int, first: int, slab: int) -> np.ndarray:
    """Key slabs (B, H, n_blk, slab, d): slab j holds the rows j*block +
    first ... + slab - 1 of x, zero outside [0, T). The slabs of adjacent
    blocks overlap, so this is a strided view of one padded copy."""
    if n_blk == 1:
        return x[:, :, None]
    B, H, T, d = x.shape
    front = max(0, -first)
    padded = np.zeros((B, H, front + (n_blk - 1) * block + first + slab, d), x.dtype)
    padded[:, :, front:front + T] = x[:, :, :padded.shape[2] - front]
    return _slab_view(padded, front + first, n_blk, block, slab, writeable=False)


def _unslab(g: np.ndarray, T: int, block: int, first: int) -> np.ndarray:
    """Cotangent of :func:`_slabs`: sums the overlapping slab rows back into
    (B, H, T, d)."""
    B, H, n_blk, slab, d = g.shape
    if n_blk == 1:
        return g[:, :, 0]
    front = max(0, -first)
    rows = np.zeros((B, H, front + max(T, first + n_blk * block + slab), d), g.dtype)
    for r in range(0, slab, block):  # pieces of at most one block never overlap
        n = min(block, slab - r)
        _slab_view(rows, front + first + r, n_blk, block, n)[...] += g[:, :, :, r:r + n]
    return rows[:, :, front:front + T]


def _band_mask(T, n_blk, block, first, slab, left, right, lengths, dtype):
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
    return np.where(ok, 0.0, LOG_ZERO).astype(dtype, copy=False)[:, None]


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
    key raises ``ValueError``.

    A bounded window is computed in blocks of ``block >= left + right + 1``
    query rows. Block j scores only the ``block + left + right`` keys its
    rows can reach, a strided slab of the zero-padded keys, so scores are
    (B, H, n_blocks, block, slab) and cost O(T) rather than O(T^2). A window
    at least as wide as the sequence is one block whose slab is all T keys:
    the dense product.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    _same_dtype("attention", q, k, v)
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
    mask = _band_mask(T, n_blk, block, first, slab, left, right, lengths, q.dtype)

    def split(x):  # (..., T, H*d) -> (B, H, T, d), a view
        return x.reshape(B, T, H, d).transpose(0, 2, 1, 3)

    def merge(x):  # (B, H, >= T, d) -> (..., T, H*d)
        return x[:, :, :T].transpose(0, 2, 1, 3).reshape(shape)

    qb = _row_blocks(split(q.data), n_blk, block)
    ks = _slabs(split(k.data), n_blk, block, first, slab)
    vs = _slabs(split(v.data), n_blk, block, first, slab)
    scores = np.matmul(qb, np.swapaxes(ks, -1, -2))
    _check_finite("attention", scores)
    scores *= scale
    weights, ctx = softmax_context(scores, mask, vs)
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


def concat(parts, axis: int = 0) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat: no inputs")
    _same_dtype("concat", *parts)
    base = list(parts[0].shape)
    for p in parts[1:]:
        other = list(p.shape)
        if len(other) != len(base) or any(
            i != (axis % len(base)) and other[i] != base[i] for i in range(len(base))
        ):
            raise ShapeError(f"concat: {p.shape} incompatible with {parts[0].shape} on axis {axis}")
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]

    def vjp(g):
        return tuple(np.split(g, np.cumsum(sizes)[:-1], axis=axis))

    return _result(out, tuple(parts), vjp)


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice [start:stop) along one axis."""
    x = _as_tensor(x)
    n = x.shape[axis]
    if not (0 <= start <= stop <= n):
        raise ShapeError(f"slice_axis: [{start}:{stop}) out of range for axis {axis} of {x.shape}")
    key = [slice(None)] * x.ndim
    key[axis] = slice(start, stop)
    key = tuple(key)
    out = x.data[key]
    x_shape, x_dtype = x.shape, x.dtype

    def vjp(g):
        full = np.zeros(x_shape, dtype=x_dtype)
        full[key] = g
        return (full,)

    return _result(out, (x,), vjp)


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
    x_shape, x_dtype = x.shape, x.dtype

    def vjp(g):
        full = np.zeros(x_shape, dtype=x_dtype)
        np.add.at(full, idx, g)
        return (full,)

    return _result(out, (x,), vjp)


def reshape(x: Tensor, shape) -> Tensor:
    x = _as_tensor(x)
    out = x.data.reshape(shape)
    x_shape = x.shape

    def vjp(g):
        return (g.reshape(x_shape),)

    return _result(out, (x,), vjp)


def mean_lastdim(x: np.ndarray) -> np.ndarray:
    """``x.mean(-1, keepdims=True)``, bit for bit, without numpy's
    Python-level ``_mean`` wrapper."""
    return np.add.reduce(x, -1, keepdims=True) / x.shape[-1]


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize the final axis to zero mean / unit variance, then apply
    learned gain and bias (both 1-D of the final extent)."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    _same_dtype("layer_norm", x, gain, bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm: gain/bias must be ({d},), got {gain.shape} and {bias.shape}"
        )
    xc = x.data - mean_lastdim(x.data)
    inv = 1.0 / np.sqrt(mean_lastdim(xc * xc) + eps)
    out = xc * inv
    out *= gain.data
    out += bias.data
    gain_data, gain_shape, bias_shape = gain.data, gain.shape, bias.shape
    need_x, need_gain, need_bias = _needs_grad(x), _needs_grad(gain), _needs_grad(bias)

    def vjp(g):
        gx = None
        if need_x:
            dxhat = g * gain_data
            dvar = (dxhat * xc).sum(axis=-1, keepdims=True) * (-0.5) * inv**3
            dmu = (-dxhat * inv).sum(axis=-1, keepdims=True) + dvar * (-2.0 * xc).mean(
                axis=-1, keepdims=True
            )
            gx = dxhat * inv + dvar * 2.0 * xc / d + dmu / d
        ggain = _reduce_to(g * (xc * inv), gain_shape) if need_gain else None
        gbias = _reduce_to(g, bias_shape) if need_bias else None
        return gx, ggain, gbias

    return _result(out, (x, gain, bias), vjp)


def sum_all(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    out = x.data.sum()
    x_shape, x_dtype = x.shape, x.dtype

    def vjp(g):
        return (np.full(x_shape, float(g), dtype=x_dtype),)

    return _result(out, (x,), vjp)


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout; identity when not training or rate is 0."""
    if not training or rate <= 0.0:
        return x
    keep = (rng.random(x.shape) >= rate).astype(x.dtype) / x.dtype.type(1.0 - rate)
    return mul(x, Tensor(keep))
