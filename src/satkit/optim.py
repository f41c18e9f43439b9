"""Optimizers: SGD with momentum + dev-driven halving, and Noam warmup.

Both lay the parameters out in one :class:`satkit.autodiff.ParamArena` when
they are built and update the whole arena at once, in tiles of ``_TILE``
elements so that a tile's operands stay in cache, with scratch kept for the
optimizer's lifetime. Their state buffers are flat arrays laid out like the
arena. Every update is elementwise, so each parameter gets the arithmetic of
a per-parameter update, whatever order the parameter dict was assembled in;
``state_dict`` names each buffer's slots per parameter (``opt.v.<name>``),
so checkpoints do not depend on the layout.
"""

import numpy as np

from . import autodiff as ad

# Elements per update tile: a tile of each operand and the scratch fit in L2.
_TILE = 1 << 15
_BETA1, _BETA2, _EPS = 0.9, 0.98, 1e-9  # NoamWarmup's moment decays and epsilon


def noam_lr(step: int, lr_factor: float, warmup_steps: int, d_m: int) -> float:
    """lr(t) = factor * d_m^-0.5 * min(t^-0.5, t * warmup^-1.5); t >= 1."""
    if step < 1:
        raise ValueError(f"noam schedule is defined for step >= 1, got {step}")
    return lr_factor * d_m ** -0.5 * min(step ** -0.5, step * warmup_steps ** -1.5)


class _ArenaOptimizer:
    """The arena, its update tiles and ``n_scratch`` tile-sized scratch arrays."""

    def __init__(self, params: dict, n_scratch: int):
        self.params = params
        self.arena = ad.ParamArena(params)
        n = self.arena.size
        self._tiles = [(slice(i, min(i + _TILE, n)), min(_TILE, n - i))
                       for i in range(0, n, _TILE)]
        self._scratch = [np.empty(min(_TILE, n)) for _ in range(n_scratch)]

    def zero_grad(self):
        """Zero every parameter's gradient: one fill of the arena."""
        self.arena.grad.fill(0.0)

    def _named(self, prefix: str, flat: np.ndarray) -> dict:
        """Copies of ``flat``'s slots, one array per parameter."""
        return {f"{prefix}{k}": a.copy() for k, a in self.arena.views(flat).items()}

    def _load(self, prefix: str, flat: np.ndarray, arrays: dict) -> None:
        """Write saved per-parameter arrays into ``flat``'s slots."""
        for k, a in self.arena.views(flat).items():
            a[...] = arrays[f"{prefix}{k}"]


class SGDMomentum(_ArenaOptimizer):
    """Momentum SGD whose learning rate halves when the dev metric stalls.

    velocity = momentum * velocity + grad; param -= lr * velocity.
    ``report_dev`` feeds the end-of-epoch dev metric (lower is better); after
    ``halving_patience`` epochs without improvement the rate halves, floored
    at ``min_lr``. ``should_stop`` turns true when a halving request arrives
    with the rate already at the floor.
    """

    def __init__(self, params: dict, lr: float = 0.001, momentum: float = 0.9,
                 halving_patience: int = 1, min_lr: float = 1e-6):
        super().__init__(params, n_scratch=1)
        self.lr = lr
        self.momentum = momentum
        self.halving_patience = halving_patience
        self.min_lr = min_lr
        self.velocity = self.arena.zeros()
        self.best_metric = None
        self.bad_epochs = 0
        self.step_count = 0
        self.should_stop = False

    def step(self):
        self.step_count += 1
        data, grad, (tmp,) = self.arena.data, self.arena.grad, self._scratch
        for s, n in self._tiles:
            v = self.velocity[s]
            v *= self.momentum
            v += grad[s]
            data[s] -= np.multiply(v, self.lr, out=tmp[:n])

    def report_dev(self, metric: float) -> bool:
        """Record an epoch's dev metric; returns True when it improved."""
        improved = self.best_metric is None or metric < self.best_metric
        if improved:
            self.best_metric = metric
            self.bad_epochs = 0
            return True
        self.bad_epochs += 1
        if self.bad_epochs >= self.halving_patience:
            if self.lr <= self.min_lr:
                self.should_stop = True
            self.lr = max(self.lr / 2.0, self.min_lr)
            self.bad_epochs = 0
        return False

    def state_dict(self):
        meta = {"kind": "sgd", "lr": self.lr, "best_metric": self.best_metric,
                "bad_epochs": self.bad_epochs, "step_count": self.step_count,
                "should_stop": self.should_stop}
        return meta, self._named("opt.v.", self.velocity)

    def load_state_dict(self, meta, arrays):
        self.lr = meta["lr"]
        self.best_metric = meta["best_metric"]
        self.bad_epochs = meta["bad_epochs"]
        self.step_count = meta["step_count"]
        self.should_stop = meta["should_stop"]
        self._load("opt.v.", self.velocity, arrays)


class NoamWarmup(_ArenaOptimizer):
    """Noam-scheduled optimizer with two exponential moment accumulators
    (decays 0.9 / 0.98, epsilon 1e-9, bias-corrected): the step at rate
    ``lr`` is ``lr * mhat / (sqrt(vhat) + eps)``.
    """

    def __init__(self, params: dict, lr_factor: float = 0.5,
                 warmup_steps: int = 8000, d_m: int = 512):
        if warmup_steps < 1:
            raise ValueError(f"warmup steps must be >= 1, got {warmup_steps}")
        super().__init__(params, n_scratch=2)
        self.lr_factor = lr_factor
        self.warmup_steps = warmup_steps
        self.d_m = d_m
        self.step_count = 0
        self.should_stop = False
        self.m = self.v = None

    def _moments(self):
        """The two flat moment buffers, made when first needed: a trainer
        that has not stepped holds no optimizer state."""
        if self.m is None:
            self.m, self.v = self.arena.zeros(), self.arena.zeros()
        return self.m, self.v

    @property
    def lr(self) -> float:
        return noam_lr(max(self.step_count, 1), self.lr_factor,
                       self.warmup_steps, self.d_m)

    def step(self):
        self.step_count += 1
        lr = noam_lr(self.step_count, self.lr_factor, self.warmup_steps, self.d_m)
        t = self.step_count
        data, grad = self.arena.data, self.arena.grad
        m_all, v_all = self._moments()
        b1, b2 = _BETA1, _BETA2
        for s, n in self._tiles:
            g, m, v = grad[s], m_all[s], v_all[s]
            a, b = (x[:n] for x in self._scratch)
            m *= b1
            m += np.multiply(g, 1.0 - b1, out=a)
            v *= b2
            a = np.multiply(g, 1.0 - b2, out=a)
            a *= g
            v += a
            mhat = np.divide(m, 1.0 - b1 ** t, out=a)
            vhat = np.divide(v, 1.0 - b2 ** t, out=b)
            step = np.multiply(mhat, lr, out=a)
            denom = np.sqrt(vhat, out=b)
            denom += _EPS
            step /= denom
            data[s] -= step

    def report_dev(self, metric: float) -> bool:
        return True

    def state_dict(self):
        m, v = self._moments()
        return ({"kind": "noam", "step_count": self.step_count},
                {**self._named("opt.m.", m), **self._named("opt.v.", v)})

    def load_state_dict(self, meta, arrays):
        self.step_count = meta["step_count"]
        m, v = self._moments()
        self._load("opt.m.", m, arrays)
        self._load("opt.v.", v, arrays)
