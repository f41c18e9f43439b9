"""Transducer forward-backward: the lattice kernel and its checked entry point.

:func:`forward_backward` scores one (T, U+1, K) lattice or a padded batch
(B, T_max, U_max+1, K) with per-utterance frame and target counts. It checks
ranks, lengths, targets and contiguity before the dynamic programming runs;
one lattice is scored as a batch of one.

The DP is vectorized over lattice anti-diagonals. A batch runs one
anti-diagonal loop for all of its utterances: the tables are stored skewed,
one row per anti-diagonal, so a step updates every utterance's cells on one
diagonal with whole-row array operations. The transition weights are masked
once, before the loops: a blank or label move that leaves utterance b's own
(T_b, U_b) grid, or starts in its padding, weighs ``LOG_ZERO``. A step is
then two adds and one ``logaddexp``; cells outside an utterance fill with
ever more negative sums that no cell inside it ever reads, and are reset to
``LOG_ZERO`` at the end, so each utterance's tables equal those of its
lattice scored alone. Blank is always token 0. All dynamic programming runs
in log space with a finite sentinel (``LOG_ZERO``) standing in for minus
infinity.
"""

import numpy as np

from .autodiff import LOG_ZERO


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


def _batch(lp, targets, t_len, u_len):
    B, T, U1, _ = lp.shape
    U = U1 - 1
    bs = np.arange(B)
    y = np.zeros((B, U), dtype=np.int64)
    for b in range(B):
        y[b, :u_len[b]] = targets[b]
    t_idx, u_idx = np.arange(T), np.arange(U1)
    t_b, u_b = t_len[:, None, None], u_len[:, None, None]
    valid = (t_idx[None, :, None] < t_b) & (u_idx[None, None, :] <= u_b)

    # Transition weights of each cell, LOG_ZERO where the move leaves the
    # utterance or the cell is padding: a blank from the last frame is
    # allowed only as the terminal one (u = U_b), a label only while one is
    # left to emit (u < U_b, which also covers the ghost column u = U).
    lp_blank = lp[:, :, :, 0]
    stays = valid & ((t_idx[None, :, None] < t_b - 1) | (u_idx[None, None, :] == u_b))
    move_blank = np.where(stays, lp_blank, LOG_ZERO)
    label_at = (bs[:, None, None], t_idx[None, :, None], u_idx[None, None, :U], y[:, None, :])
    lp_label = lp[label_at]
    has_label = valid[:, :, :U] & (u_idx[None, None, :U] < u_b)
    move_label = np.full((B, T, U1), LOG_ZERO)
    move_label[:, :, :U] = np.where(has_label, lp_label, LOG_ZERO)

    # Skewed layout: row n of a (T+U, B, U+1) table is anti-diagonal n, with
    # utterance b's cell (n - u, u) in column u, so each step of the
    # recurrence reads and writes whole contiguous rows. Cells off the grid
    # make no move.
    n_diag = T + U
    skew_t = np.arange(n_diag)[:, None] - u_idx[None, :]
    on_grid = ((skew_t >= 0) & (skew_t < T))[:, None]
    at_t = np.clip(skew_t, 0, T - 1)

    def skew(table):
        return np.where(on_grid, table[:, at_t, u_idx].transpose(1, 0, 2), LOG_ZERO)

    mb, ml = skew(move_blank), skew(move_label)
    from_blank = np.empty((B, U1))
    from_label = np.full((B, U1), LOG_ZERO)  # column 0 has no label move
    alpha_s = np.full((n_diag, B, U1), LOG_ZERO)
    alpha_s[0, :, 0] = 0.0
    for prev, cur, blank, label in zip(alpha_s[:-1], alpha_s[1:], mb, ml[:, :, :U]):
        np.add(prev, blank, out=from_blank)
        np.add(prev[:, :U], label, out=from_label[:, 1:])
        np.logaddexp(from_blank, from_label, out=cur)

    # Ghost row/column turn the terminal blank into the uniform recurrence:
    # beta at (T_b, U_b) = 0 is "finished". That cell lies outside the
    # utterance, so the sweep of its anti-diagonal overwrites it; it is set
    # again right after, before the next row reads it.
    beta_s = np.full((n_diag + 1, B, U1 + 1), LOG_ZERO)
    ends = (t_len + u_len, bs, u_len)
    beta_s[ends] = 0.0
    end_rows = set(ends[0].tolist())
    for n, cur, below, blank, label in zip(range(n_diag - 1, -1, -1), beta_s[-2::-1, :, :U1],
                                           beta_s[:0:-1], mb[::-1], ml[::-1]):
        np.add(below[:, :U1], blank, out=from_blank)
        np.add(below[:, 1:], label, out=from_label)
        np.logaddexp(from_blank, from_label, out=cur)
        if n in end_rows:
            beta_s[ends] = 0.0

    def unskew(table, row):  # (rows, B, cols) -> (B, T, U+1), cell (t, u) from row t + u + row
        return np.moveaxis(table[t_idx[:, None] + u_idx + row, :, u_idx], -1, 0)

    alpha = np.where(valid, unskew(alpha_s, 0), LOG_ZERO)
    beta = np.where(valid, unskew(beta_s, 0), LOG_ZERO)
    beta_down = unskew(beta_s, 1)  # beta at (t + 1, u), ghost row included

    last_t = t_len - 1
    loss = -(alpha[bs, last_t, u_len] + lp_blank[bs, last_t, u_len])
    log_like = beta[:, 0, 0][:, None, None]

    # A masked move has zero occupancy, and padding reads no log prob. Cells
    # with no label left point their label at column 0, which the blank
    # write then fills.
    grad = np.zeros_like(lp)
    if U:
        grad[label_at] = -np.exp(alpha[:, :, :U] + move_label[:, :, :U] + beta[:, :, 1:] - log_like)
    grad[:, :, :, 0] = -np.exp(alpha + move_blank + beta_down - log_like)
    return loss, grad, alpha, beta
