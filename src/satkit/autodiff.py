"""Dense tensors with reverse-mode automatic differentiation.

Every primitive records a node on an implicit tape; ``backward`` walks the
recorded graph once, in exact reverse topological order, and accumulates
gradients into every reachable leaf tensor (one created with
``requires_grad``, not by an op). Intermediate results carry no ``grad``:
their cotangents live only while ``backward`` runs. Inside ``no_grad()``
no node is recorded, so evaluation keeps no intermediate alive.
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

# Sentinel marking a node whose tape entry was already consumed by backward().
_CONSUMED = object()


class _Node:
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
        if self.requires_grad:
            self.grad = np.zeros_like(self.data)

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


def _result(data, parents, vjp):
    """Wrap an op result, recording a tape node when any parent needs grad."""
    out = Tensor(data)
    if _recording and any(p.requires_grad or p._ctx is not None for p in parents):
        out.requires_grad = any(p.requires_grad for p in parents)
        out._ctx = _Node(tuple(parents), vjp)
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
    if loss._ctx is _CONSUMED:
        raise GraphError("backward: graph already consumed; run a new forward pass")

    # Iterative post-order topological sort over recorded nodes.
    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        if node._ctx is _CONSUMED:
            raise GraphError("backward: graph already consumed; run a new forward pass")
        if node._ctx is None:
            continue
        stack.append((node, True))
        for p in node._ctx.parents:
            if id(p) not in visited:
                stack.append((p, False))

    seeds = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = seeds.pop(id(node), None)
        if g is None:
            continue
        ctx = node._ctx
        node._ctx = _CONSUMED
        parent_grads = ctx.vjp(g)
        for p, pg in zip(ctx.parents, parent_grads):
            if pg is None:
                continue
            if p._ctx is not None and p._ctx is not _CONSUMED:
                acc = seeds.get(id(p))
                # Fresh array on accumulation: pg may alias g or saved data.
                seeds[id(p)] = pg if acc is None else acc + pg
            elif p.requires_grad:
                if p.grad is None:
                    p.grad = np.zeros_like(p.data)
                p.grad += pg
    if loss._ctx is None:
        # Leaf scalar: nothing to do, but mark so a repeat call errors the same way.
        loss._ctx = _CONSUMED


def zero_grads(params) -> None:
    for p in params.values() if isinstance(params, dict) else params:
        p.zero_grad()


def op_result(data, parents, vjp) -> Tensor:
    """Record a composite op with a hand-written vector-Jacobian product.

    ``vjp(g)`` must return one cotangent per parent (None for "no gradient"),
    each shaped like the matching parent's data.
    """
    return _result(data, tuple(_as_tensor(p) for p in parents), vjp)


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product. 2-D x 2-D, or stacked 3-D x 3-D with equal batch axes."""
    a, b = _as_tensor(a), _as_tensor(b)
    _same_dtype("matmul", a, b)
    if a.ndim == b.ndim == 2:
        if a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul: inner dims differ, {a.shape} x {b.shape}")
    elif a.ndim == b.ndim == 3:
        if a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
            raise ShapeError(f"matmul: stacked shapes incompatible, {a.shape} x {b.shape}")
    else:
        raise ShapeError(f"matmul: expects 2-D or 3-D pairs, got {a.shape} x {b.shape}")
    out = np.matmul(a.data, b.data)

    def vjp(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2)) if a.requires_grad or a._ctx else None
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g) if b.requires_grad or b._ctx else None
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

    def vjp(g):
        return g, _reduce_to(g, b.shape)

    return _result(out, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product, same suffix rule as ``add``."""
    a, b = _as_tensor(a), _as_tensor(b)
    _same_dtype("mul", a, b)
    if not _suffix_ok(a.shape, b.shape):
        raise ShapeError(f"mul: {b.shape} is not a trailing suffix of {a.shape}")
    out = a.data * b.data

    def vjp(g):
        return g * b.data, _reduce_to(g * a.data, b.shape)

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
        return (g * (x.data > 0.0),)

    return _result(out, (x,), vjp)


def tanh(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    out = np.tanh(x.data)

    def vjp(g):
        return (g * (1.0 - out * out),)

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

    def vjp(g):
        return (g / x.data,)

    return _result(out, (x,), vjp)


def _check_finite(name, x):
    if not np.all(np.isfinite(x.data)):
        raise ValueError(f"{name}: non-finite input")


def softmax_lastdim(x: Tensor) -> Tensor:
    """Softmax over the final axis. Rows are probability vectors."""
    x = _as_tensor(x)
    _check_finite("softmax_lastdim", x)
    out = np.exp(x.data - x.data.max(axis=-1, keepdims=True))
    out /= out.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return _result(out, (x,), vjp)


def log_softmax_lastdim(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    _check_finite("log_softmax_lastdim", x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = shifted - lse
    soft = np.exp(out)

    def vjp(g):
        return (g - soft * g.sum(axis=-1, keepdims=True),)

    return _result(out, (x,), vjp)


def logsumexp_lastdim(x: Tensor) -> Tensor:
    """Log of summed exponentials over the final axis; output drops that axis."""
    x = _as_tensor(x)
    _check_finite("logsumexp_lastdim", x)
    m = x.data.max(axis=-1, keepdims=True)
    out = (m + np.log(np.exp(x.data - m).sum(axis=-1, keepdims=True))).squeeze(-1)

    def vjp(g):
        soft = np.exp(x.data - out[..., None])
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

    def vjp(g):
        full = np.zeros_like(x.data)
        full[key] = g
        return (full,)

    return _result(out, (x,), vjp)


def index_rows(x: Tensor, indices) -> Tensor:
    """Gather rows of a 2-D tensor (embedding lookup)."""
    x = _as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"index_rows: expects 2-D table, got {x.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"index_rows: indices must be 1-D, got {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise ShapeError(f"index_rows: index out of range for table of {x.shape[0]} rows")
    out = x.data[idx]

    def vjp(g):
        full = np.zeros_like(x.data)
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

    def vjp(g):
        return (g.reshape(x.shape),)

    return _result(out, (x,), vjp)


def repeat_rows(x: Tensor, repeats: int) -> Tensor:
    """Repeat each row of a 2-D tensor ``repeats`` times consecutively."""
    x = _as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"repeat_rows: expects 2-D, got {x.shape}")
    out = np.repeat(x.data, repeats, axis=0)

    def vjp(g):
        return (g.reshape(x.shape[0], repeats, x.shape[1]).sum(axis=1),)

    return _result(out, (x,), vjp)


def tile_rows(x: Tensor, reps: int) -> Tensor:
    """Stack ``reps`` copies of a 2-D tensor on top of each other."""
    x = _as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"tile_rows: expects 2-D, got {x.shape}")
    out = np.tile(x.data, (reps, 1))

    def vjp(g):
        return (g.reshape(reps, x.shape[0], x.shape[1]).sum(axis=0),)

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
    var = mean_lastdim(xc * xc)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gain.data + bias.data

    def vjp(g):
        gx = None
        if x.requires_grad or x._ctx:
            dxhat = g * gain.data
            dvar = (dxhat * xc).sum(axis=-1, keepdims=True) * (-0.5) * inv**3
            dmu = (-dxhat * inv).sum(axis=-1, keepdims=True) + dvar * (-2.0 * xc).mean(
                axis=-1, keepdims=True
            )
            gx = dxhat * inv + dvar * 2.0 * xc / d + dmu / d
        ggain = _reduce_to(g * xhat, gain.shape) if gain.requires_grad or gain._ctx else None
        gbias = _reduce_to(g, bias.shape) if bias.requires_grad or bias._ctx else None
        return gx, ggain, gbias

    return _result(out, (x, gain, bias), vjp)


def sum_all(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    out = x.data.sum()

    def vjp(g):
        return (np.full_like(x.data, float(g)),)

    return _result(out, (x,), vjp)


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout; identity when not training or rate is 0."""
    if not training or rate <= 0.0:
        return x
    keep = (rng.random(x.shape) >= rate).astype(x.dtype) / x.dtype.type(1.0 - rate)
    return mul(x, Tensor(keep))
