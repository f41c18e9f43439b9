"""Lattice kernel benchmark: the compiled forward-backward against numpy.

Both backends score the same random lattice; the report gives each one's
best-of-N wall time and how far its loss and gradient stray from numpy's.
A second table times, per backend, one batched call over B padded lattices
of mixed lengths against B calls on the lattices one by one, at the
training shapes of the benchmark workloads.
"""

import time

import numpy as np

from .kernels import available_backends
from .latfb_np import forward_backward as np_forward_backward


def _best_time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _random_log_probs(rng, shape):
    logits = rng.standard_normal(shape)
    return logits - np.log(np.exp(logits).sum(-1, keepdims=True))


def run_lattice_bench(t_len: int = 200, u_len: int = 50, k_size: int = 30,
                      repeats: int = 3, seed: int = 0):
    """Compares the compiled lattice kernel against the numpy fallback."""
    rng = np.random.default_rng(seed)
    log_probs = _random_log_probs(rng, (t_len, u_len + 1, k_size))
    targets = rng.integers(1, k_size, size=u_len)
    backends = available_backends()
    rows = []
    loss_np, grad_np, _, _ = np_forward_backward(log_probs, targets)
    for name, fn in backends.items():
        sec = _best_time(lambda: fn(log_probs, targets), repeats)
        loss, grad, _, _ = fn(log_probs, targets)
        rows.append({
            "backend": name, "seconds": sec,
            "cells_per_sec": t_len * (u_len + 1) / sec,
            "loss_vs_numpy": abs(loss - loss_np),
            "max_grad_vs_numpy": float(np.max(np.abs(grad - grad_np))),
        })
    return rows


# (label, batch size, frame range, target range): train-short and
# train-long-par of the benchmark workloads.
BATCH_SHAPES = (("short", 4, (20, 35), (3, 8)), ("long", 2, (200, 260), (40, 60)))


def run_batch_bench(shapes=BATCH_SHAPES, k_size: int = 19, repeats: int = 3,
                    seed: int = 0):
    """Times one batched kernel call over B mixed-length lattices against B
    single-lattice calls, for each backend and shape."""
    rng = np.random.default_rng(seed)
    rows = []
    for label, batch, (t_lo, t_hi), (u_lo, u_hi) in shapes:
        t_len = rng.integers(t_lo, t_hi + 1, size=batch)
        u_len = rng.integers(u_lo, u_hi + 1, size=batch)
        grid = _random_log_probs(rng, (batch, t_len.max(), u_len.max() + 1, k_size))
        targets = [rng.integers(1, k_size, size=u) for u in u_len]
        singles = [np.ascontiguousarray(grid[b, :t_len[b], :u_len[b] + 1])
                   for b in range(batch)]
        for name, fn in available_backends().items():
            batched_s = _best_time(lambda: fn(grid, targets, t_len, u_len), repeats)
            looped_s = _best_time(lambda: [fn(lp, y) for lp, y in zip(singles, targets)],
                                  repeats)
            loss = fn(grid, targets, t_len, u_len)[0]
            want = [fn(lp, y)[0] for lp, y in zip(singles, targets)]
            rows.append({
                "shape": label, "backend": name, "batch": batch,
                "cells": int(np.sum(t_len * (u_len + 1))),
                "batched_s": batched_s, "looped_s": looped_s,
                "speedup": looped_s / batched_s,
                "loss_vs_looped": float(np.max(np.abs(loss - want))),
            })
    return rows


def format_report(lattice_rows, batch_rows=()) -> str:
    lines = ["lattice forward-backward kernels",
             f"{'backend':<10}{'sec':>12}{'cells/s':>14}"
             f"{'|loss diff|':>14}{'max |grad diff|':>17}"]
    for r in lattice_rows:
        lines.append(f"{r['backend']:<10}{r['seconds']:>12.6f}"
                     f"{r['cells_per_sec']:>14.1f}{r['loss_vs_numpy']:>14.3g}"
                     f"{r['max_grad_vs_numpy']:>17.3g}")
    if batch_rows:
        lines += ["", "one batched call against one call per lattice",
                  f"{'shape':<7}{'backend':<10}{'B':>3}{'cells':>8}{'batched s':>12}"
                  f"{'looped s':>12}{'speedup':>9}{'|loss diff|':>13}"]
        for r in batch_rows:
            lines.append(f"{r['shape']:<7}{r['backend']:<10}{r['batch']:>3}{r['cells']:>8}"
                         f"{r['batched_s']:>12.6f}{r['looped_s']:>12.6f}"
                         f"{r['speedup']:>9.2f}{r['loss_vs_looped']:>13.3g}")
    return "\n".join(lines)
