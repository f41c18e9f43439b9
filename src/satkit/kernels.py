"""Lattice kernel backend selection and the one checked entry point.

Prefers the compiled extension, falls back to the numpy implementation when
the extension was not built. ``SATKIT_LATTICE_BACKEND`` overrides: "compiled"
(error if missing), "numpy", or "auto" (default).

:func:`forward_backward` scores one (T, U+1, K) lattice or a padded batch
(B, T_max, U_max+1, K) with per-utterance frame and target counts. It checks
ranks, lengths, targets and contiguity before it dispatches, because the
compiled kernel runs without bounds checks and trusts its caller's shapes.
The numpy backend runs a batch as one anti-diagonal loop; the compiled one
loops its per-utterance kernel over the batch.
"""

import os

import numpy as np

from . import latfb_np
from .autodiff import LOG_ZERO

_requested = os.environ.get("SATKIT_LATTICE_BACKEND", "auto")
if _requested not in ("auto", "compiled", "numpy"):
    raise ValueError("SATKIT_LATTICE_BACKEND must be auto, compiled or numpy, "
                     "got %r" % _requested)


def per_utterance(fb_one):
    """The batch contract from a one-utterance kernel: a batch is scored by
    calling ``fb_one`` on each utterance's own (T_b, U_b+1, K) lattice."""

    def forward_backward(log_probs, targets, t_lengths=None, u_lengths=None):
        if log_probs.ndim == 3:
            return fb_one(log_probs, targets)
        B = log_probs.shape[0]
        loss = np.empty(B)
        grad = np.zeros_like(log_probs)
        alpha = np.full(log_probs.shape[:3], LOG_ZERO)
        beta = np.full(log_probs.shape[:3], LOG_ZERO)
        for b in range(B):
            T, U1 = int(t_lengths[b]), int(u_lengths[b]) + 1
            loss[b], grad[b, :T, :U1], alpha[b, :T, :U1], beta[b, :T, :U1] = \
                fb_one(log_probs[b, :T, :U1], targets[b])
        return loss, grad, alpha, beta

    return forward_backward


def available_backends():
    """Name -> forward_backward callable for every importable backend. Each
    takes the unchecked arguments of :func:`forward_backward`."""
    out = {"numpy": latfb_np.forward_backward}
    try:
        from . import _latfb
        out["compiled"] = per_utterance(_latfb.forward_backward)
    except ImportError:
        if _requested == "compiled":
            raise
    return out


_backends = available_backends()
BACKEND = "numpy" if _requested == "numpy" or "compiled" not in _backends else "compiled"
_active = _backends[BACKEND]


def _ids(name, targets, U, K) -> np.ndarray:
    y = np.asarray(targets)
    if y.ndim != 1 or (y.size and not np.issubdtype(y.dtype, np.integer)):
        raise ValueError(f"{name}: targets must be a 1-D integer array, got {y.dtype} {y.shape}")
    if y.shape[0] != U:
        raise ValueError(f"{name}: {y.shape[0]} targets for a lattice with U={U}")
    if y.size and (y.min() < 1 or y.max() >= K):
        raise ValueError(f"{name}: target ids must lie in [1, {K}), got {y.min()}..{y.max()}")
    return y.astype(np.int64, copy=False)


def forward_backward(log_probs, targets, t_lengths=None, u_lengths=None):
    """Transducer loss, gradient and DP tables from the active backend.

    One utterance: ``log_probs`` (T, U+1, K) and ``targets`` its U ids;
    returns (loss, grad, alpha, beta) with a float loss, grad shaped like
    ``log_probs`` and (T, U+1) tables. A batch: ``log_probs`` (B, T_max,
    U_max+1, K), ``targets`` B id sequences and ``t_lengths``/``u_lengths``
    the (B,) frame and target counts; returns a (B,) loss and the stacked
    grad and tables, with zero gradient and ``LOG_ZERO`` tables in padding.

    Raises ValueError unless ``log_probs`` is a C-contiguous float64 array,
    every 1 <= T_b <= T_max and 0 <= U_b <= U_max, ``len(targets[b]) ==
    U_b`` and every target id lies in [1, K).
    """
    if not isinstance(log_probs, np.ndarray) or log_probs.dtype != np.float64 \
            or not log_probs.flags.c_contiguous:
        raise ValueError("forward_backward: log_probs must be a C-contiguous float64 array")
    if log_probs.ndim == 3:
        if t_lengths is not None or u_lengths is not None:
            raise ValueError("forward_backward: lengths belong to a 4-D lattice batch")
        T, U1, K = log_probs.shape
        if T < 1:
            raise ValueError("forward_backward: lattice needs at least one time frame")
        return _active(log_probs, _ids("forward_backward", targets, U1 - 1, K))
    if log_probs.ndim != 4:
        raise ValueError(f"forward_backward: expects a (T, U+1, K) lattice or a "
                         f"(B, T, U+1, K) batch, got {log_probs.shape}")
    B, T, U1, K = log_probs.shape
    if t_lengths is None or u_lengths is None:
        raise ValueError("forward_backward: a lattice batch needs t_lengths and u_lengths")
    t_len = np.asarray(t_lengths)
    u_len = np.asarray(u_lengths)
    for name, n in (("t_lengths", t_len), ("u_lengths", u_len)):
        if n.shape != (B,) or not np.issubdtype(n.dtype, np.integer):
            raise ValueError(f"forward_backward: {name} must be {B} integers, got {n}")
    if t_len.min() < 1 or t_len.max() > T:
        raise ValueError(f"forward_backward: frame counts must lie in [1, {T}], got {t_len}")
    if u_len.min() < 0 or u_len.max() > U1 - 1:
        raise ValueError(f"forward_backward: target counts must lie in [0, {U1 - 1}], "
                         f"got {u_len}")
    if len(targets) != B:
        raise ValueError(f"forward_backward: {len(targets)} target sequences for a "
                         f"batch of {B}")
    ys = [_ids(f"forward_backward: utterance {b}", targets[b], int(u_len[b]), K)
          for b in range(B)]
    return _active(log_probs, ys, t_len.astype(np.int64), u_len.astype(np.int64))
