"""Transducer output lattice: joint network, loss and gradients.

The lattice is a (T, U+1, K) grid of log distributions over the vocabulary,
one per (time frame, emitted-prefix length) node. Token 0 is the blank.
Training minimizes the negative log-likelihood of the target sequence summed
over all monotone alignment paths; the DP kernel in :mod:`satkit.kernels`
supplies both the loss and its analytic gradient, which is grafted onto the
autodiff tape as one composite op: :func:`transducer_loss`, or with the
path regularizer's terms added into the same op and the same gradient array,
:func:`satkit.pathreg.joint_loss`.

A training batch is one padded (B, T_max, U_max+1, K) grid. The joint
projects the (B, T, d_enc) encoder frames and the (B, U+1, d_pred)
prediction states once each, then one fused tape op
(:func:`satkit.autodiff.joint_log_softmax`) combines every frame with every
state in cache-sized tiles and writes the normalized log probs; one kernel
call scores every utterance within its own frame and target counts. A
single utterance is the same code without the batch axis. Decoding scores
one frame against the states of a search step through the joint's row step,
:class:`JointRows`, one joint forward per call.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import kernels
from .autodiff import Tensor
from .nnet import glorot, row_tile, tile_len
from .vocab import BLANK, SOS


@dataclass
class PosteriorLattice:
    """Log-prob grid plus the target ids it is scored against.

    One utterance: ``log_probs`` is (T, U+1, K) and ``targets`` its U ids. A
    padded batch: ``log_probs`` is (B, T_max, U_max+1, K), ``targets`` holds
    B id sequences and ``lengths`` the B frame counts; utterance b owns the
    cells t < lengths[b], u <= len(targets[b]), and no loss reads the rest.
    """

    log_probs: Tensor
    targets: object
    lengths: np.ndarray = None

    def __post_init__(self):
        if not isinstance(self.log_probs, Tensor):
            self.log_probs = Tensor(self.log_probs)
        shape = self.log_probs.shape
        if self.lengths is None:
            if len(shape) != 3:
                raise ValueError(f"lattice must be (T, U+1, K), or a (B, T, U+1, K) "
                                 f"batch with lengths, got {shape}")
            if shape[0] < 1:
                raise ValueError("lattice needs at least one time frame")
            self.targets = _checked_targets(self.targets, shape[2])
            if self.targets.shape[0] != shape[1] - 1:
                raise ValueError(
                    f"targets shape {self.targets.shape} inconsistent with U+1={shape[1]}")
            return
        if len(shape) != 4:
            raise ValueError(f"a lattice batch must be (B, T, U+1, K), got {shape}")
        self.lengths = np.asarray(self.lengths, dtype=np.int64)
        if self.lengths.shape != (shape[0],) or len(self.targets) != shape[0]:
            raise ValueError(f"a batch of {shape[0]} lattices needs {shape[0]} lengths "
                             f"and target sequences")
        if self.lengths.min() < 1 or self.lengths.max() > shape[1]:
            raise ValueError(f"frame counts must lie in [1, {shape[1]}], got {self.lengths}")
        self.targets = [_checked_targets(y, shape[3]) for y in self.targets]
        if max(y.shape[0] for y in self.targets) > shape[2] - 1:
            raise ValueError(f"a target sequence is longer than U_max={shape[2] - 1}")

    @property
    def u_lengths(self) -> np.ndarray:
        """Target count of each utterance of a batch."""
        return np.array([y.shape[0] for y in self.targets], dtype=np.int64)

    @property
    def T(self):
        """Frames of the grid: T_max for a batch."""
        return self.log_probs.shape[-3]

    @property
    def U(self):
        """Target count of the grid: U_max for a batch."""
        return self.log_probs.shape[-2] - 1

    @property
    def K(self):
        return self.log_probs.shape[-1]

    def validate_normalized(self):
        """Error unless every (t, u) row is a normalized log distribution."""
        lp = self.log_probs.data
        tol = 1e-10 if lp.dtype == np.float64 else 1e-4
        residual = np.abs(_np_logsumexp(lp))
        if residual.max() > tol:
            bad = np.unravel_index(int(residual.argmax()), residual.shape)
            raise ValueError(
                f"lattice row {bad} not normalized: |logsumexp| = {residual.max():.3e}")


def _checked_targets(targets, K) -> np.ndarray:
    targets = np.asarray(targets, dtype=np.int64)
    if targets.ndim != 1:
        raise ValueError(f"targets must be one id sequence, got shape {targets.shape}")
    if targets.size:
        if targets.min() < 0 or targets.max() >= K:
            raise ValueError("target id out of vocabulary range")
        if np.any(targets == BLANK) or np.any(targets == SOS):
            raise ValueError("targets may not contain blank or start ids")
    return targets


def _np_logsumexp(lp):
    m = lp.max(axis=-1, keepdims=True)
    return (m + np.log(np.exp(lp - m).sum(axis=-1, keepdims=True))).squeeze(-1)


def transducer_loss(lattice: PosteriorLattice, validate: bool = True) -> Tensor:
    """Negative log-likelihood of the targets, summed over alignment paths:
    a scalar for one utterance, the (B,) per-utterance losses for a batch.

    Differentiable w.r.t. ``lattice.log_probs``. ``validate=False`` skips the
    row-normalization check so finite-difference probes can perturb single
    entries.
    """
    return _kernel_loss(lattice, validate)[0]


def _kernel_loss(lattice: PosteriorLattice, validate: bool, added=None, add_grad=None):
    """(a tape op over ``lattice.log_probs`` valued kernel loss + ``added``,
    the kernel loss). One kernel call; the vjp scales the kernel's own
    gradient in place by the cotangent g, then ``add_grad(flat, g)`` adds
    the gradient of ``sum_b g[b] * added[b]`` into a flat view of it."""
    if validate:
        lattice.validate_normalized()
    loss, grad, _, _ = forward_backward_arrays(lattice)
    loss = np.asarray(loss, dtype=np.float64)
    dtype = lattice.log_probs.dtype

    def vjp(g):
        g = np.asarray(g, dtype=dtype)
        scaled = grad.astype(dtype, order="C", copy=False)  # the kernel's own array
        scaled *= g.reshape(g.shape + (1, 1, 1))
        if add_grad is not None:
            add_grad(scaled.reshape(-1), g.reshape(-1))
        return (scaled,)

    values = loss if added is None else loss + added
    return ad.op_result(values, (lattice.log_probs,), vjp), loss


def forward_backward_arrays(lattice: PosteriorLattice):
    """Raw (loss, grad, alpha, beta) from :func:`satkit.kernels.forward_backward`;
    for a batch each is stacked over the utterances."""
    lp = np.ascontiguousarray(lattice.log_probs.data, dtype=np.float64)
    if lattice.lengths is None:
        return kernels.forward_backward(lp, lattice.targets)
    return kernels.forward_backward(lp, lattice.targets, lattice.lengths,
                                    lattice.u_lengths)


class JointNetwork:
    """Combines one encoder frame with one prediction state into a log
    distribution over the vocabulary: log_softmax(W_out tanh(W_in [f; g])).

    ``combine="concat"`` stores W_in as two column blocks, so each side is
    projected once and no T*(U+1) concatenations are built;
    ``combine="add"`` shares a single input projection between both sides
    (f and g added in a common basis). Applied to full sequences it returns
    the whole lattice; the grid of tanh rows behind it is built tile by
    tile inside :func:`satkit.autodiff.joint_log_softmax`. The decode row
    step, :meth:`row_step`, projects an encoder row and prediction states
    once each and scores them with that op's own forward; :meth:`f_part`,
    :meth:`g_part` and :meth:`row_log_probs` are its one-row calls.
    """

    def __init__(self, d_enc: int, d_pred: int, d_joint: int, vocab_size: int,
                 rng: np.random.Generator, combine: str = "concat"):
        if combine not in ("concat", "add"):
            raise ValueError(f"combine must be concat or add, got {combine!r}")
        if combine == "add" and d_enc != d_pred:
            raise ad.ShapeError("additive joint needs matching encoder/prediction widths")
        self.d_enc, self.d_pred = d_enc, d_pred
        self.d_joint, self.vocab_size = d_joint, vocab_size
        if combine == "concat":
            self.params = {
                "joint.w_enc": glorot(rng, d_enc + d_pred, d_joint, rows=d_enc),
                "joint.w_pred": glorot(rng, d_enc + d_pred, d_joint, rows=d_pred),
            }
            w_in = (self.params["joint.w_enc"], self.params["joint.w_pred"])
        else:
            self.params = {"joint.w_in": glorot(rng, d_enc, d_joint)}
            w_in = (self.params["joint.w_in"],) * 2
        self.params["joint.w_out"] = glorot(rng, d_joint, vocab_size)
        # (w_f, w_g, w_out) Tensors: the encoder frame's and the prediction
        # state's input projections (one shared matrix under "add"), then the
        # output projection. An optimizer's arena rebinds their ``data``.
        self.weights = (*w_in, self.params["joint.w_out"])

    def log_probs(self, enc: Tensor, pred: Tensor) -> Tensor:
        """(T, d_enc) x (U+1, d_pred) -> (T, U+1, K) normalized log probs; a
        batch (B, T, d_enc) x (B, U+1, d_pred) -> (B, T, U+1, K)."""
        if (enc.ndim not in (2, 3) or enc.ndim != pred.ndim
                or enc.shape[:-2] != pred.shape[:-2]
                or enc.shape[-1] != self.d_enc or pred.shape[-1] != self.d_pred):
            raise ad.ShapeError(
                f"joint network fed {enc.shape} x {pred.shape}, expected widths "
                f"{self.d_enc} and {self.d_pred}")
        w_f, w_g, w_out = self.weights
        return ad.joint_log_softmax(ad.matmul(enc, w_f), ad.matmul(pred, w_g), w_out)

    def row_step(self, rows: int) -> "JointRows":
        """The row step of one search that scores up to ``rows`` states per
        call."""
        return JointRows(self, rows)

    def f_part(self, enc_row: np.ndarray) -> np.ndarray:
        """The (J,) input projection of one (d_enc,) encoder row."""
        return self.row_step(1).f_parts(enc_row[None])[0]

    def g_part(self, pred_row: np.ndarray) -> np.ndarray:
        """The (J,) input projection of one (d_pred,) prediction state row."""
        return self.row_step(1).g_parts(pred_row[None])[0]

    def row_log_probs(self, f_part: np.ndarray, g_part: np.ndarray) -> np.ndarray:
        """The (K,) log distribution of one (frame, state) pair from its two
        projections: one cell of :meth:`log_probs`, by the same forward."""
        return self.row_step(1).log_probs(f_part, g_part[None])[0]

    def lattice(self, enc: Tensor, pred: Tensor, targets, lengths=None) -> PosteriorLattice:
        """The lattice of one utterance, or of a padded batch whose frame
        counts are ``lengths``."""
        return PosteriorLattice(self.log_probs(enc, pred), targets, lengths)


class JointRows:
    """The joint's decode row step for one search, in buffers allocated once.

    :meth:`f_parts` and :meth:`g_parts` project encoder rows and up to
    ``rows`` prediction states, and :meth:`log_probs` scores one frame's
    projection against up to ``rows`` state projections with the forward of
    :func:`satkit.autodiff.joint_log_softmax`. Each is one product over a
    :func:`satkit.nnet.row_tile`, so every row gets the bits it gets alone
    and a search may score its states in one call or one at a time.
    """

    def __init__(self, joint: JointNetwork, rows: int):
        n, J, K = tile_len(max(1, rows)), joint.d_joint, joint.vocab_size
        self.w_f, self.w_g, self.w_out = (w.data for w in joint.weights)
        self._f = np.zeros((4, joint.d_enc))  # grows to the encoder's chunks
        self._g = np.zeros((n, joint.d_pred))
        self._gp = np.zeros((n, J))
        # the joint forward's tanh rows, log probs and exp, per tile size
        h, out, ez = np.empty((n, J)), np.empty((n, K)), np.empty((n, K))
        self._bufs = {m: (h[:m], out[:m], ez[:m]) for m in range(4, n + 1, 4)}

    def f_parts(self, enc_rows: np.ndarray) -> np.ndarray:
        """The (m, J) input projections of (m, d_enc) encoder rows."""
        m = len(enc_rows)
        if len(self._f) < m:
            self._f = np.zeros((tile_len(m), self._f.shape[1]))
        return (row_tile(enc_rows, self._f) @ self.w_f)[:m]

    def g_parts(self, pred_rows: np.ndarray) -> np.ndarray:
        """The (m, J) input projections of (m, d_pred) prediction state rows."""
        return (row_tile(pred_rows, self._g) @ self.w_g)[:len(pred_rows)]

    def log_probs(self, f_part: np.ndarray, g_parts: np.ndarray) -> np.ndarray:
        """The (m, K) log distributions of one frame's (J,) projection with
        each of the (m, J) state projections ``g_parts``: one joint forward.
        The rows live in this row step's buffer until its next call."""
        g = row_tile(g_parts, self._gp)
        return ad.joint_forward(f_part, g, self.w_out, *self._bufs[len(g)])[:len(g_parts)]
