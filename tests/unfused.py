"""The transducer joint as separate tape primitives: the reference that
``autodiff.joint_log_softmax`` must reproduce.

``broadcast_add``, ``tanh`` and ``log_softmax_lastdim`` are the ops the
fused joint replaced, with their original arithmetic; ``joint_log_softmax``
composes them the way ``JointNetwork.log_probs`` once did.
"""

import numpy as np

from satkit import autodiff as ad
from satkit.autodiff import ShapeError, Tensor


def _sum_to(g, shape):
    """Sum ``g`` over the axes that ``shape`` holds at extent 1."""
    axes = tuple(i for i, (n, m) in enumerate(zip(shape, g.shape)) if n == 1 and m != 1)
    return g.sum(axis=axes, keepdims=True) if axes else g


def broadcast_add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of equal-rank tensors where each axis either matches
    or has extent 1 on one side, e.g. (B, T, 1, J) + (B, 1, U, J)."""
    a, b = ad._as_tensor(a), ad._as_tensor(b)
    if a.ndim != b.ndim or any(n != m and 1 not in (n, m) for n, m in zip(a.shape, b.shape)):
        raise ShapeError(f"broadcast_add: {a.shape} and {b.shape} do not broadcast")
    a_shape, b_shape = a.shape, b.shape

    def vjp(g):
        return _sum_to(g, a_shape), _sum_to(g, b_shape)

    return ad.op_result(a.data + b.data, (a, b), vjp)


def tanh(x: Tensor) -> Tensor:
    x = ad._as_tensor(x)
    out = np.tanh(x.data)

    def vjp(g):
        d = out * out
        np.subtract(1.0, d, out=d)
        d *= g
        return (d,)

    return ad.op_result(out, (x,), vjp)


def log_softmax_lastdim(x: Tensor) -> Tensor:
    x = ad._as_tensor(x)
    if not np.all(np.isfinite(x.data)):
        raise ValueError("log_softmax_lastdim: non-finite input")
    out = x.data - x.data.max(axis=-1, keepdims=True)
    out -= np.log(np.exp(out).sum(axis=-1, keepdims=True))

    def vjp(g):
        d = np.exp(out)
        d *= g.sum(axis=-1, keepdims=True)
        np.subtract(g, d, out=d)
        return (d,)

    return ad.op_result(out, (x,), vjp)


def joint_log_softmax(f: Tensor, g: Tensor, w_out: Tensor) -> Tensor:
    """log_softmax(tanh(f[..., :, None, :] + g[..., None, :, :]) @ w_out),
    one tape node per step."""
    j = f.shape[-1]
    grid = broadcast_add(ad.reshape(f, f.shape[:-1] + (1, j)),
                         ad.reshape(g, g.shape[:-2] + (1,) + g.shape[-2:]))
    return log_softmax_lastdim(ad.matmul(tanh(grid), w_out))
