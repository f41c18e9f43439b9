"""Optimizers: SGD with momentum + dev-driven halving, and Noam warmup.

Both iterate parameters in sorted-name order so updates are reproducible
regardless of how the parameter dict was assembled.
"""

import numpy as np


def noam_lr(step: int, lr_factor: float, warmup_steps: int, d_m: int) -> float:
    """lr(t) = factor * d_m^-0.5 * min(t^-0.5, t * warmup^-1.5); t >= 1."""
    if step < 1:
        raise ValueError(f"noam schedule is defined for step >= 1, got {step}")
    return lr_factor * d_m ** -0.5 * min(step ** -0.5, step * warmup_steps ** -1.5)


class SGDMomentum:
    """Momentum SGD whose learning rate halves when the dev metric stalls.

    velocity = momentum * velocity + grad; param -= lr * velocity.
    ``report_dev`` feeds the end-of-epoch dev metric (lower is better); after
    ``halving_patience`` epochs without improvement the rate halves, floored
    at ``min_lr``. ``should_stop`` turns true when a halving request arrives
    with the rate already at the floor.
    """

    def __init__(self, params: dict, lr: float = 0.001, momentum: float = 0.9,
                 halving_patience: int = 1, min_lr: float = 1e-6):
        self.params = params
        self.lr = lr
        self.momentum = momentum
        self.halving_patience = halving_patience
        self.min_lr = min_lr
        self.velocity = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.best_metric = None
        self.bad_epochs = 0
        self.step_count = 0
        self.should_stop = False

    def step(self):
        self.step_count += 1
        for name in sorted(self.params):
            p = self.params[name]
            v = self.velocity[name]
            v *= self.momentum
            v += p.grad
            p.data -= self.lr * v

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
        # copies: step() mutates the velocity buffers in place
        arrays = {f"opt.v.{k}": v.copy() for k, v in self.velocity.items()}
        return meta, arrays

    def load_state_dict(self, meta, arrays):
        self.lr = meta["lr"]
        self.best_metric = meta["best_metric"]
        self.bad_epochs = meta["bad_epochs"]
        self.step_count = meta["step_count"]
        self.should_stop = meta["should_stop"]
        for k in self.velocity:
            self.velocity[k] = arrays[f"opt.v.{k}"].copy()


class NoamWarmup:
    """Noam-scheduled optimizer.

    The default update keeps two exponential moment accumulators (decays
    0.9 / 0.98, epsilon 1e-9, bias-corrected); ``adaptive=False`` switches to
    a plain gradient step under the same schedule.
    """

    def __init__(self, params: dict, lr_factor: float = 0.5,
                 warmup_steps: int = 8000, d_m: int = 512,
                 adaptive: bool = True, beta1: float = 0.9,
                 beta2: float = 0.98, eps: float = 1e-9):
        self.params = params
        self.lr_factor = lr_factor
        self.warmup_steps = warmup_steps
        self.d_m = d_m
        self.adaptive = adaptive
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        self.should_stop = False
        self.m, self.v = {}, {}

    def _moments(self):
        """The two moment buffers per parameter, made when first needed: a
        trainer that has not stepped holds no optimizer state."""
        if not self.m:
            self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
            self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        return self.m, self.v

    @property
    def lr(self) -> float:
        return noam_lr(max(self.step_count, 1), self.lr_factor,
                       self.warmup_steps, self.d_m)

    def step(self):
        self.step_count += 1
        lr = noam_lr(self.step_count, self.lr_factor, self.warmup_steps, self.d_m)
        t = self.step_count
        moments = self._moments() if self.adaptive else None
        for name in sorted(self.params):
            p = self.params[name]
            g = p.grad
            if not self.adaptive:
                p.data -= lr * g
                continue
            m, v = moments[0][name], moments[1][name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            mhat = m / (1.0 - self.beta1 ** t)
            vhat = v / (1.0 - self.beta2 ** t)
            p.data -= lr * mhat / (np.sqrt(vhat) + self.eps)

    def report_dev(self, metric: float) -> bool:
        return True

    def state_dict(self):
        meta = {"kind": "noam", "step_count": self.step_count,
                "adaptive": self.adaptive}
        arrays = {}
        if self.adaptive:
            m, v = self._moments()
            arrays.update({f"opt.m.{k}": a.copy() for k, a in m.items()})
            arrays.update({f"opt.v.{k}": a.copy() for k, a in v.items()})
        return meta, arrays

    def load_state_dict(self, meta, arrays):
        self.step_count = meta["step_count"]
        if self.adaptive:
            m, v = self._moments()
            for k in m:
                m[k] = arrays[f"opt.m.{k}"].copy()
                v[k] = arrays[f"opt.v.{k}"].copy()
