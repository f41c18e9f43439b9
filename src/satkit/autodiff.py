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
LOG_ZERO_GUARD = -1.0e29

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

    def numpy(self):
        return self.data

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

    def detach(self):
        return Tensor(self.data.copy())

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


def _sum_to(g, shape):
    """Sum ``g`` over the axes that ``shape`` holds at extent 1."""
    axes = tuple(i for i, (n, m) in enumerate(zip(shape, g.shape)) if n == 1 and m != 1)
    return g.sum(axis=axes, keepdims=True) if axes else g


def broadcast_add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of equal-rank tensors where each axis either matches
    or has extent 1 on one side, e.g. (B, T, 1, J) + (B, 1, U, J) ->
    (B, T, U, J), the transducer joint grid."""
    a, b = _as_tensor(a), _as_tensor(b)
    _same_dtype("broadcast_add", a, b)
    if a.ndim != b.ndim or any(n != m and 1 not in (n, m) for n, m in zip(a.shape, b.shape)):
        raise ShapeError(f"broadcast_add: {a.shape} and {b.shape} do not broadcast")
    out = a.data + b.data
    a_shape, b_shape = a.shape, b.shape
    need_a, need_b = _needs_grad(a), _needs_grad(b)

    def vjp(g):
        return (_sum_to(g, a_shape) if need_a else None,
                _sum_to(g, b_shape) if need_b else None)

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


def tanh(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    out = np.tanh(x.data)

    def vjp(g):
        d = out * out
        np.subtract(1.0, d, out=d)
        d *= g
        return (d,)

    return _result(out, (x,), vjp)


def exp(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    out = np.exp(x.data)

    def vjp(g):
        return (g * out,)

    return _result(out, (x,), vjp)


def log(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    if not np.all(np.isfinite(x.data)):
        raise ValueError("log: non-finite input")
    if np.any(x.data <= 0.0):
        raise ValueError("log: input must be strictly positive")
    out = np.log(x.data)
    x_data = x.data

    def vjp(g):
        return (g / x_data,)

    return _result(out, (x,), vjp)


def _check_finite(name, x):
    if not np.all(np.isfinite(x.data)):
        raise ValueError(f"{name}: non-finite input")


def softmax_lastdim(x: Tensor, scale: float = 1.0, mask=None) -> Tensor:
    """Softmax over the final axis of ``x * scale + mask``. Rows are
    probability vectors.

    ``mask`` is a constant array broadcast against ``x``, e.g. an attention
    window of 0 / LOG_ZERO. Folding the scale and the mask in keeps the tape
    from storing two more score-sized arrays.
    """
    x = _as_tensor(x)
    _check_finite("softmax_lastdim", x)
    out = x.data * scale if scale != 1.0 else x.data.copy()
    if mask is not None:
        out += mask
    out -= out.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        d = g - dot
        d *= out
        if scale != 1.0:
            d *= scale
        return (d,)

    return _result(out, (x,), vjp)


def log_softmax_lastdim(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    _check_finite("log_softmax_lastdim", x)
    out = x.data - x.data.max(axis=-1, keepdims=True)
    out -= np.log(np.exp(out).sum(axis=-1, keepdims=True))

    def vjp(g):
        d = np.exp(out)
        d *= g.sum(axis=-1, keepdims=True)
        np.subtract(g, d, out=d)
        return (d,)

    return _result(out, (x,), vjp)


def logsumexp_lastdim(x: Tensor) -> Tensor:
    """Log of summed exponentials over the final axis; output drops that axis."""
    x = _as_tensor(x)
    _check_finite("logsumexp_lastdim", x)
    m = x.data.max(axis=-1, keepdims=True)
    out = (m + np.log(np.exp(x.data - m).sum(axis=-1, keepdims=True))).squeeze(-1)
    x_data = x.data

    def vjp(g):
        soft = np.exp(x_data - out[..., None])
        return (soft * g[..., None],)

    return _result(out, (x,), vjp)


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


def transpose(x: Tensor, axes=None) -> Tensor:
    x = _as_tensor(x)
    perm = tuple(axes) if axes is not None else tuple(reversed(range(x.ndim)))
    out = np.transpose(x.data, perm)
    inv = np.argsort(perm)

    def vjp(g):
        return (np.transpose(g, inv),)

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
