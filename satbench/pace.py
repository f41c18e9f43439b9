"""Machine-speed calibration for timings taken on a shared, noisy host.

On a virtual machine that shares cores with other tenants, the same work can
take 1.5-2x longer for tens of seconds at a time, and process CPU time slows
down with it. A workload's timings then say more about its neighbours than
about satkit. :class:`Pace` runs a short fixed probe (small matrix products,
a softmax and some dict work; no satkit code) between operations, at most
every ``PERIOD_S`` seconds, and rescales each operation's time by how much
slower than ``REFERENCE_S`` the probes around it ran. A change to satkit
moves the operation's time but not the probe's, so it still shows.

Paced seconds are "seconds at the reference speed". ``REFERENCE_S`` is the
probe's uncontended time on a 2-vCPU 2.1 GHz x86-64 virtual machine; on
other hardware the scale differs, which is harmless because comparisons are
between two commits on one machine.
"""

import bisect
import statistics
import time

import numpy as np

REFERENCE_S = 0.0045
PERIOD_S = 0.25
_ROUNDS = 150


def _probe_inputs():
    rng = np.random.default_rng(0)
    return rng.standard_normal((32, 64)), rng.standard_normal((64, 64)) / 8.0


def probe(a, w) -> float:
    """Seconds one fixed round of numpy and interpreter work takes now."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(_ROUNDS):
        h = np.tanh(a @ w)
        e = np.exp(h - h.max(axis=-1, keepdims=True))
        acc += float((e / e.sum(axis=-1, keepdims=True))[0, 0])
        acc += sum({j: 2 * j for j in range(20)}.values()) * 1e-12
    return time.perf_counter() - start


class Pace:
    def __init__(self):
        self._inputs = _probe_inputs()
        self.times = []       # when each probe ran
        self.slowdown = []    # probe seconds / REFERENCE_S
        self.spent = 0.0      # seconds spent probing

    def tick(self, force: bool = False) -> float:
        """Probe if ``PERIOD_S`` has passed since the last probe (or if
        forced); returns the seconds spent, for callers timing around it."""
        now = time.perf_counter()
        if not force and self.times and now - self.times[-1] < PERIOD_S:
            return 0.0
        took = probe(*self._inputs)
        self.times.append(now)
        self.slowdown.append(took / REFERENCE_S)
        self.spent += took
        return took

    def factor(self, at: float) -> float:
        """Slowdown at time ``at``: median of the two probes on either side,
        so that one preempted probe does not rescale its neighbours."""
        if not self.slowdown:
            return 1.0
        i = bisect.bisect_right(self.times, at)
        return statistics.median(self.slowdown[max(0, i - 2):i + 2])

    def seconds(self, start: float, seconds: float) -> float:
        """``seconds`` of work begun at ``start``, at the reference speed."""
        return seconds / self.factor(start)
