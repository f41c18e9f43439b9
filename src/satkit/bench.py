"""Lattice kernel benchmark: the compiled forward-backward against numpy.

Both backends score the same random lattice; the report gives each one's
best-of-N wall time and how far its loss and gradient stray from numpy's.
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


def run_lattice_bench(t_len: int = 200, u_len: int = 50, k_size: int = 30,
                      repeats: int = 3, seed: int = 0):
    """Compares the compiled lattice kernel against the numpy fallback."""
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal((t_len, u_len + 1, k_size))
    log_probs = logits - np.log(np.exp(logits).sum(-1, keepdims=True))
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


def format_report(lattice_rows) -> str:
    lines = ["lattice forward-backward kernels",
             f"{'backend':<10}{'sec':>12}{'cells/s':>14}"
             f"{'|loss diff|':>14}{'max |grad diff|':>17}"]
    for r in lattice_rows:
        lines.append(f"{r['backend']:<10}{r['seconds']:>12.6f}"
                     f"{r['cells_per_sec']:>14.1f}{r['loss_vs_numpy']:>14.3g}"
                     f"{r['max_grad_vs_numpy']:>17.3g}")
    return "\n".join(lines)
