"""Training loop: one tape per padded batch, dev CER tracking, checkpointing.

Each step runs the whole padded batch as one tape: one encoder pass over the
(B, T_max, d) features with key-padding masks from the frame counts, one
prediction-net pass, one (B, T_max, U_max+1, K) joint grid, and one loss op
(the code behind :func:`satkit.pathreg.joint_loss`): one batched lattice
forward-backward plus, at beta > 0, a gather of the T+U aligned cells of
each path. It backpropagates the mean joint loss of the batch once. A step
whose loss or gradient norm is not finite is skipped: the optimizer does not
move, ``Trainer.skipped_steps`` counts it and a warning names the utterances
at fault. After each epoch, dev scoring is greedy decoding: the dev CER is
that of :func:`satkit.decode.greedy_decode` on each dev utterance, the same
encoder rows and search the decoder runs.

Metrics stream to a CSV with columns step,lr,transducer_loss,par_loss,
joint_loss,dev_cer,step_seconds,frames_per_sec,grad_norm, whose header the
first row writes, so building a trainer writes no file. Per-step rows leave
dev_cer empty; step_seconds is the step's wall time, frames_per_sec the
batch's real (unpadded) stacked frames over it, and grad_norm the L2 norm of
all parameter gradients. Each epoch appends one summary row (epoch-mean
losses, dev CER) under the epoch's final step number, with the last three
columns empty. Wall-clock values go only into this file, never into the
history or a checkpoint, so that two runs of one seed stay equal there.
"""

import logging
import math
import os
import time
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from . import checkpoint as ckpt
from .data import make_batches
from .decode import corpus_cer, greedy_decode
from .model import SATModel, drop_retired
from .optim import NoamWarmup, SGDMomentum
from .pathreg import ParConfig, _regularized, build_path

log = logging.getLogger(__name__)

METRICS_COLUMNS = ("step,lr,transducer_loss,par_loss,joint_loss,dev_cer,"
                   "step_seconds,frames_per_sec,grad_norm")


# Trainer config keys of deleted options -> the one value that still runs.
RETIRED_TRAIN_KEYS = {"adaptive": True, "shuffle": True, "labels_only": False}


@dataclass
class TrainConfig:
    """Settings of one training run. Every epoch visits the batches in a
    fresh order drawn from the trainer's RNG. ``optimizer`` picks momentum
    SGD, whose rate starts at ``lr`` and halves after ``halving_patience``
    epochs without a dev improvement, down to ``min_lr``, or the Noam
    schedule (``lr_factor``, ``warmup_steps``) with moment accumulators.
    ``beta`` and ``detach_weight`` set the path regularizer
    (:class:`satkit.pathreg.ParConfig`)."""

    epochs: int = 10
    batch_size: int = 8
    seed: int = 0
    optimizer: str = "sgd"      # sgd | noam
    lr: float = 0.001
    momentum: float = 0.9
    halving_patience: int = 1
    min_lr: float = 1e-6
    lr_factor: float = 0.5      # noam only
    warmup_steps: int = 8000    # noam only
    beta: float = 0.0
    detach_weight: bool = True

    def __post_init__(self):
        if self.optimizer not in ("sgd", "noam"):
            raise ValueError(f"optimizer must be sgd or noam, got {self.optimizer!r}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")
        for name in ("lr", "lr_factor", "min_lr"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.halving_patience < 1:
            raise ValueError(f"halving_patience must be >= 1, got {self.halving_patience}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.warmup_steps < 1:
            raise ValueError(f"warmup steps must be >= 1, got {self.warmup_steps}")
        self.par()  # the regularizer's own check of beta

    def par(self) -> ParConfig:
        return ParConfig(beta=self.beta, detach_weight=self.detach_weight)


class Trainer:
    """Drives epochs over pre-batched utterances and tracks dev CER.

    One RNG (seeded from the config) serves both batch-order shuffling and
    dropout, so a (seed, data) pair fixes the whole run; checkpoints carry
    its state and resuming reproduces the next step bit for bit. Building
    one with no training utterance raises ``ValueError``.
    """

    def __init__(self, model: SATModel, vocab, train_utts, dev_utts,
                 cfg: TrainConfig = None, metrics_path=None):
        if not train_utts:
            raise ValueError("training needs at least one utterance, got none")
        self.model = model
        self.vocab = vocab
        self.cfg = cfg or TrainConfig()
        # First: the batches below reuse the memory of the parameter arrays
        # that the optimizer's arena replaces.
        self.optimizer = self._make_optimizer()
        mc = model.config
        self.batches = make_batches(train_utts, vocab, self.cfg.batch_size,
                                    left=mc.stack_left, right=mc.stack_right,
                                    factor=mc.factor)
        self.dev = [make_batches([u], vocab, 1, left=mc.stack_left,
                                 right=mc.stack_right, factor=mc.factor)[0]
                    for u in dev_utts]
        self.par_cfg = self.cfg.par()
        self.paths = None
        if self.cfg.beta > 0.0:
            self.paths = []
            for batch in self.batches:
                rows = []
                for i, ali in enumerate(batch.alignments):
                    if ali is None:
                        raise ValueError(
                            f"regularization weight {self.cfg.beta} needs "
                            f"alignments, but {batch.utt_ids[i]} has none")
                    rows.append(build_path(ali, batch.targets[i]))
                self.paths.append(rows)
        self.rng = np.random.default_rng(self.cfg.seed)
        self.epoch = 0
        self.global_step = 0
        self.skipped_steps = 0
        self.best_dev = None
        self.history = []
        self.metrics_path = metrics_path

    def _make_optimizer(self):
        c = self.cfg
        if c.optimizer == "sgd":
            return SGDMomentum(self.model.params, lr=c.lr, momentum=c.momentum,
                               halving_patience=c.halving_patience,
                               min_lr=c.min_lr)
        return NoamWarmup(self.model.params, lr_factor=c.lr_factor,
                          warmup_steps=c.warmup_steps, d_m=self.model.config.d_m)

    def _write_row(self, step, lr, tr, pr, jn, dev="", timing=("", "", "")):
        if self.metrics_path is None:
            return
        fmt = lambda v: v if isinstance(v, str) else f"{v:.10g}"
        cells = [str(step)] + [fmt(v) for v in (lr, tr, pr, jn, dev, *timing)]
        new = not os.path.exists(self.metrics_path)
        with open(self.metrics_path, "a", encoding="utf-8") as f:
            if new:
                f.write(METRICS_COLUMNS + "\n")
            f.write(",".join(cells) + "\n")

    def train_batch(self, batch, paths=None):
        """One optimizer step on the mean joint loss of a padded batch.

        Returns the batch-mean losses and the gradient norm. When the loss
        or the gradient norm is not finite the optimizer step is skipped.
        """
        n = len(batch.targets)
        lat = self.model.forward_lattice(batch.feats, batch.targets, training=True,
                                         rng=self.rng, lengths=batch.feat_lengths)
        per_utt, base, reg = _regularized(lat, paths, self.par_cfg, validate=False)
        mean = ad.scale(ad.sum_all(per_utt), 1.0 / n)
        self.optimizer.zero_grad()
        mean.backward()
        grad_norm = math.sqrt(sum(float(np.vdot(p.grad, p.grad))
                                  for p in self.model.params.values()))
        if math.isfinite(mean.item()) and math.isfinite(grad_norm):
            self.optimizer.step()
        else:
            self._skip(batch, per_utt.data)
        return {"transducer": float(base.sum()) / n,
                "par": float(reg.sum()) / n if reg is not None else 0.0,
                "joint": mean.item(), "grad_norm": grad_norm}

    def _skip(self, batch, per_utt):
        self.skipped_steps += 1
        bad = [u for u, v in zip(batch.utt_ids, per_utt) if not math.isfinite(v)]
        what = "loss" if bad else "gradient"
        log.warning("skipped step %d: non-finite %s from utterances %s",
                    self.global_step + 1, what, ", ".join(bad or batch.utt_ids))

    def evaluate(self) -> float:
        """Corpus CER over the dev set of :func:`~satkit.decode.greedy_decode`
        on each utterance's stacked matrix: dev scoring is greedy decoding,
        with the decoder's encoder rows and hypotheses."""
        refs, hyps = [], []
        for batch in self.dev:
            refs.append(batch.targets[0])
            hyps.append(greedy_decode(self.model, batch.feats[0, :int(batch.feat_lengths[0])]))
        return corpus_cer(refs, hyps)

    def run_epoch(self) -> dict:
        """One pass over the training batches plus a dev evaluation.

        Raises ValueError before the first step when the dev set holds no
        reference token, as dev scoring needs some.
        """
        if not any(len(batch.targets[0]) for batch in self.dev):
            raise ValueError("dev scoring needs reference tokens, but the dev set has none")
        self.epoch += 1
        n_b = len(self.batches)
        order = self.rng.permutation(n_b)
        sums = {"transducer": 0.0, "par": 0.0, "joint": 0.0}
        for bi in order:
            batch = self.batches[int(bi)]
            paths = self.paths[bi] if self.paths is not None else None
            start = time.perf_counter()
            stats = self.train_batch(batch, paths)
            seconds = time.perf_counter() - start
            self.global_step += 1
            self._write_row(self.global_step, self.optimizer.lr,
                            stats["transducer"], stats["par"], stats["joint"],
                            timing=(seconds, float(batch.feat_lengths.sum()) / seconds,
                                    stats["grad_norm"]))
            for k in sums:
                sums[k] += stats[k]
        means = {k: v / n_b for k, v in sums.items()}
        dev = self.evaluate()
        if self.best_dev is None or dev < self.best_dev:
            self.best_dev = dev
        self.optimizer.report_dev(dev)
        self._write_row(self.global_step, self.optimizer.lr, means["transducer"],
                        means["par"], means["joint"], dev)
        entry = {"epoch": self.epoch, "step": self.global_step,
                 "transducer_loss": means["transducer"], "par_loss": means["par"],
                 "joint_loss": means["joint"], "dev_cer": dev}
        self.history.append(entry)
        return entry

    def run(self, checkpoint_dir=None, run_meta: dict = None):
        """Epochs until the limit or the lr floor; returns the history.

        With a checkpoint dir, every epoch refreshes last.ckpt and dev
        improvements refresh best.ckpt.
        """
        if checkpoint_dir is not None:
            os.makedirs(checkpoint_dir, exist_ok=True)
        while self.epoch < self.cfg.epochs and not self.optimizer.should_stop:
            entry = self.run_epoch()
            if checkpoint_dir is not None:
                self.save(os.path.join(checkpoint_dir, "last.ckpt"), run_meta)
                if entry["dev_cer"] <= self.best_dev:
                    self.save(os.path.join(checkpoint_dir, "best.ckpt"), run_meta)
        return self.history

    def save(self, path, run_meta: dict = None) -> None:
        opt_meta, opt_arrays = self.optimizer.state_dict()
        meta = {"trainer": {
            "config": asdict(self.cfg),
            "epoch": self.epoch,
            "global_step": self.global_step,
            "skipped_steps": self.skipped_steps,
            "best_dev": self.best_dev,
            "optimizer": opt_meta,
            "rng": ckpt.rng_state_to_meta(self.rng),
            "history": self.history,
        }}
        if run_meta:
            meta["run"] = dict(run_meta)
        arrays = dict(self.model.params)
        arrays.update(opt_arrays)
        ckpt.save_checkpoint(path, arrays, asdict(self.model.config), meta)

    @classmethod
    def resume(cls, path, vocab, train_utts, dev_utts, metrics_path=None):
        """Rebuild a trainer mid-run; the next step matches the original run."""
        model, meta, arrays = SATModel.load(path)
        if "trainer" not in (meta or {}):
            raise ValueError(f"{path}: checkpoint has no trainer state")
        info = meta["trainer"]
        trainer = cls(model, vocab, train_utts, dev_utts,
                      TrainConfig(**drop_retired(info["config"], RETIRED_TRAIN_KEYS, path)),
                      metrics_path=metrics_path)
        trainer.optimizer.load_state_dict(info["optimizer"], arrays)
        trainer.rng = ckpt.rng_state_from_meta(info["rng"])
        trainer.epoch = info["epoch"]
        trainer.global_step = info["global_step"]
        trainer.skipped_steps = info.get("skipped_steps", 0)
        trainer.best_dev = info["best_dev"]
        trainer.history = [dict(h) for h in info["history"]]
        return trainer
