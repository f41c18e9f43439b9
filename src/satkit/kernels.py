"""Transducer forward-backward: the lattice kernel and its checked entry point.

:func:`forward_backward` scores one (T, U+1, K) lattice or a padded batch
(B, T_max, U_max+1, K) with per-utterance frame and target counts. It checks
ranks, lengths, targets and contiguity before the dynamic programming runs;
one lattice is scored as a batch of one.

The DP is vectorized over lattice anti-diagonals. A batch runs one
anti-diagonal loop for all of its utterances: the tables are stored skewed,
one row per anti-diagonal, so a step updates every utterance's cells on one
diagonal with whole-row array operations, and a cell past utterance b's own
(T_b, U_b) keeps its sentinel, so each utterance's tables equal those of its
lattice scored alone. Blank is always token 0. All dynamic programming runs
in log space with a finite sentinel (``LOG_ZERO``) standing in for minus
infinity, with absorbing add semantics.
"""

import numpy as np

from .autodiff import LOG_ZERO, LOG_ZERO_GUARD


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
    """Transducer loss, gradient and DP tables.

    One utterance: ``log_probs`` (T, U+1, K) and ``targets`` its U ids;
    returns (loss, grad, alpha, beta) with a float loss (the negative
    log-likelihood), grad = d(loss)/d(log_probs) shaped like ``log_probs``
    and the (T, U+1) forward/backward tables. A batch: ``log_probs`` (B,
    T_max, U_max+1, K), ``targets`` B id sequences and
    ``t_lengths``/``u_lengths`` the (B,) frame and target counts; returns a
    (B,) loss and the stacked grad and tables, with zero gradient and
    ``LOG_ZERO`` tables in padding.

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
        y = _ids("forward_backward", targets, U1 - 1, K)
        loss, grad, alpha, beta = _batch(log_probs[None], [y], np.array([T]), np.array([U1 - 1]))
        return float(loss[0]), grad[0], alpha[0], beta[0]
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
    return _batch(log_probs, ys, t_len.astype(np.int64), u_len.astype(np.int64))


def _logadd(a, b):
    m = np.maximum(a, b)
    out = m + np.log1p(np.exp(np.minimum(a, b) - m))
    return np.where(m <= LOG_ZERO_GUARD, LOG_ZERO, out)


def _batch(lp, targets, t_len, u_len):
    B, T, U1, _ = lp.shape
    U = U1 - 1
    bs = np.arange(B)
    y = np.zeros((B, U), dtype=np.int64)
    for b in range(B):
        y[b, :u_len[b]] = targets[b]
    t_idx, u_idx = np.arange(T), np.arange(U1)
    valid = (t_idx[None, :, None] < t_len[:, None, None]) & (u_idx[None, None, :] <= u_len[:, None, None])

    lp_blank = lp[:, :, :, 0]
    # Label log prob of each cell; LOG_ZERO where the utterance has no
    # label left to emit (u >= U_b), which also covers the ghost column u = U.
    lpl_pad = np.full((B, T, U1), LOG_ZERO)
    lp_label = lp[bs[:, None, None], t_idx[None, :, None], u_idx[None, None, :U], y[:, None, :]]
    has_label = u_idx[None, None, :U] < u_len[:, None, None]
    lpl_pad[:, :, :U] = np.where(has_label, lp_label, LOG_ZERO)

    # Skewed layout: row n of a (B, T+U, U+1) table is anti-diagonal n, with
    # cell (n - u, u) in column u, so each step of the recurrence reads and
    # writes whole rows. Cells off the grid are impossible and never valid.
    n_diag = T + U
    skew_t = np.arange(n_diag)[:, None] - u_idx[None, :]
    on_grid = (skew_t >= 0) & (skew_t < T)
    at_t = np.clip(skew_t, 0, T - 1)

    def skew(table, fill):
        return np.where(on_grid, table[:, at_t, u_idx[None, :]], fill)

    ok = skew(valid, False)
    lpb_s, lpl_s = skew(lp_blank, LOG_ZERO), skew(lpl_pad, LOG_ZERO)

    alpha_s = np.full((B, n_diag, U1), LOG_ZERO)
    alpha_s[:, 0, 0] = 0.0
    from_label = np.full((B, U1), LOG_ZERO)  # column 0 has no label move
    for n in range(1, n_diag):
        prev = alpha_s[:, n - 1]
        from_blank = prev + lpb_s[:, n - 1]
        from_label[:, 1:] = (prev + lpl_s[:, n - 1])[:, :U]
        alpha_s[:, n] = np.where(ok[:, n], _logadd(from_blank, from_label), LOG_ZERO)

    # Ghost row/column turn the terminal blank into the uniform recurrence:
    # beta at (T_b, U_b) = 0 is "finished". Cells outside an utterance keep
    # their value, so the terminal survives and the rest stay LOG_ZERO.
    beta_s = np.full((B, n_diag + 1, U1 + 1), LOG_ZERO)
    beta_s[bs, t_len + u_len, u_len] = 0.0
    for n in range(n_diag - 1, -1, -1):
        below = beta_s[:, n + 1]
        beta_s[:, n, :U1] = np.where(ok[:, n], _logadd(
            below[:, :U1] + lpb_s[:, n],
            below[:, 1:] + lpl_s[:, n],
        ), beta_s[:, n, :U1])

    diag = t_idx[:, None] + u_idx[None, :]
    alpha = alpha_s[:, diag, u_idx]
    beta = np.where(valid, beta_s[:, diag, u_idx], LOG_ZERO)
    beta_down = beta_s[:, diag + 1, u_idx]  # beta at (t + 1, u), ghost row included

    last_t = t_len - 1
    loss = -(alpha[bs, last_t, u_len] + lp_blank[bs, last_t, u_len])
    log_like = beta[:, 0, 0][:, None, None]

    grad = np.zeros_like(lp)
    occ_blank = np.exp(alpha + lp_blank + beta_down - log_like)
    grad[:, :, :, 0] = np.where(valid, -occ_blank, 0.0)
    if U:
        occ_label = np.exp(alpha[:, :, :U] + lp_label + beta[:, :, 1:] - log_like)
        b, t, u = np.nonzero(valid[:, :, :U] & has_label)
        grad[b, t, u, y[b, u]] = -occ_label[b, t, u]
    return loss, grad, alpha, beta
