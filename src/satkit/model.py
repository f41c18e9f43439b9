"""Full transducer model: encoder + prediction network + joint, plus config.

The config file is plain "key = value" text; chunk window sizes take an
integer or "inf". A checkpoint stores this config next to the parameters, and
loading refuses shape or config conflicts rather than reinterpreting. Keys
that earlier versions stored for options since deleted load only at the one
value that still runs (:func:`drop_retired`).
"""

from dataclasses import dataclass, asdict

import numpy as np

from . import checkpoint as ckpt
from .autodiff import Tensor
from .data import check_stacking
from .lattice import JointNetwork, PosteriorLattice
from .nnet import ChunkSpec, Encoder, PredictionNetwork


@dataclass
class ModelConfig:
    feature_dim: int = 8           # raw feature dim, pre-stacking
    d_m: int = 64
    n_heads: int = 4
    d_ff: int = 128
    n_enc_blocks: int = 2
    n_pred_blocks: int = 2
    d_joint: int = 64
    vocab_size: int = 19
    chunk_left: str = "inf"
    chunk_right: str = "inf"
    dropout: float = 0.1
    stack_left: int = 3
    stack_right: int = 1
    factor: int = 3

    def __post_init__(self):
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")
        for name, least in (("feature_dim", 1), ("d_m", 1), ("n_heads", 1), ("d_ff", 1),
                            ("d_joint", 1), ("vocab_size", 3), ("n_enc_blocks", 0),
                            ("n_pred_blocks", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, "
                                 f"got {getattr(self, name)}")
        if self.d_m % 2:
            raise ValueError(f"d_m must be even for the positional encoding, got {self.d_m}")
        if self.d_m % self.n_heads:
            raise ValueError(f"d_m={self.d_m} not divisible by n_heads={self.n_heads}")
        for name in ("chunk_left", "chunk_right"):
            value = str(getattr(self, name))
            try:
                ChunkSpec.parse(value, value)
            except ValueError:
                raise ValueError(f"{name} must be a non-negative integer or inf, "
                                 f"got {value!r}") from None
        check_stacking(self.stack_left, self.stack_right, self.factor)

    @property
    def stacked_dim(self) -> int:
        return self.feature_dim * (self.stack_left + 1 + self.stack_right)

    def chunk(self) -> ChunkSpec:
        return ChunkSpec.parse(str(self.chunk_left), str(self.chunk_right))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for k, v in asdict(self).items():
                f.write(f"{k} = {v}\n")

    @classmethod
    def load(cls, path) -> "ModelConfig":
        """Read a config file; a bad line or value raises ``ValueError``
        that starts with the path."""
        fields = {f: t for f, t in cls.__annotations__.items()}
        raw = {}
        with open(path, encoding="utf-8") as f:
            for line in f:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}: malformed config line {line!r}")
                k, v = (s.strip() for s in line.split("=", 1))
                raw[k] = v
        kwargs = {}
        for k, v in drop_retired(raw, RETIRED_MODEL_KEYS, path).items():
            if k not in fields:
                raise ValueError(f"{path}: unknown config key {k!r}")
            try:
                kwargs[k] = _parse_value(fields[k], v)
            except ValueError as e:
                raise ValueError(f"{path}: {k}: {e}") from None
        try:
            return cls(**kwargs)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None


# Model config keys of deleted options -> the one value that still runs.
RETIRED_MODEL_KEYS = {"combine": "concat"}


def drop_retired(config: dict, retired: dict, path) -> dict:
    """``config`` without the keys of ``retired``, which maps each key of a
    deleted option to the one value that still runs. A stored key holding
    any other value raises ``ValueError`` naming ``path``."""
    for key, value in retired.items():
        if key in config and config[key] != value:
            raise ValueError(f"{path}: {key} = {config[key]!r} is no longer supported; "
                             f"only {value!r} runs")
    return {k: v for k, v in config.items() if k not in retired}


def _parse_value(ann, raw: str):
    if ann is int or ann == "int":
        return int(raw)
    if ann is float or ann == "float":
        return float(raw)
    return raw


class SATModel:
    """Transducer with self-attention encoder and prediction networks."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        self.encoder = Encoder(config.stacked_dim, config.d_m, config.n_heads,
                               config.d_ff, config.n_enc_blocks, config.chunk(), rng)
        self.prednet = PredictionNetwork(config.vocab_size, config.d_m,
                                         config.n_heads, config.d_ff,
                                         config.n_pred_blocks, rng)
        self.joint = JointNetwork(config.d_m, config.d_m, config.d_joint,
                                  config.vocab_size, rng)
        self.params = {}
        for part in (self.encoder, self.prednet, self.joint):
            self.params.update(part.params)

    def forward_lattice(self, stacked, target_ids, training: bool = False,
                        rng=None, lengths=None) -> PosteriorLattice:
        """Stacked features + target ids -> the full posterior lattice.

        One utterance: (T, d) features and one id sequence. A padded batch:
        (B, T_max, d) features, B id sequences and the B frame counts
        ``lengths``; the batch runs as one encoder, one prediction-net and
        one joint call.
        """
        feats = stacked if isinstance(stacked, Tensor) else Tensor(np.asarray(stacked))
        enc = self.encoder(feats, dropout_rate=self.config.dropout,
                           rng=rng, training=training, lengths=lengths)
        pred = self.prednet(target_ids, dropout_rate=self.config.dropout,
                            rng=rng, training=training)
        return self.joint.lattice(enc, pred, target_ids, lengths)

    def save(self, path, meta: dict = None) -> None:
        ckpt.save_checkpoint(path, dict(self.params), asdict(self.config), meta)

    @classmethod
    def load(cls, path, expect_config: ModelConfig = None):
        """Rebuild a model from a checkpoint; returns (model, meta, arrays).

        ``expect_config`` (e.g. from a config file) must agree with the
        stored config exactly.
        """
        config_dict, meta, arrays = ckpt.load_checkpoint(path)
        config = ModelConfig(**drop_retired(config_dict, RETIRED_MODEL_KEYS, path))
        if expect_config is not None and config != expect_config:
            diffs = [k for k in asdict(config)
                     if asdict(config)[k] != asdict(expect_config)[k]]
            raise ValueError(f"checkpoint config conflicts with expected config "
                             f"on {diffs}")
        model = cls(config, seed=0)
        ckpt.restore_params(model.params, arrays)
        return model, meta, arrays
