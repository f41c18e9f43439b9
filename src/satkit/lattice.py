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
rows through the joint's row step, :class:`JointRows`, one joint forward
per call: one frame against the states of a beam step, or a tile of frames
against greedy search's one state.
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
        residual = np.abs(_np_logsumexp(self.log_probs.data))
        if residual.max() > 1e-10:
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
    loss = np.asarray(loss)  # one utterance's float as a 0-d array

    def vjp(g):
        np.multiply(grad, g.reshape(g.shape + (1, 1, 1)), out=grad)
        if add_grad is not None:
            add_grad(grad.reshape(-1), g.reshape(-1))
        return (grad,)

    values = loss if added is None else loss + added
    return ad.op_result(values, (lattice.log_probs,), vjp), loss


def forward_backward_arrays(lattice: PosteriorLattice):
    """Raw (loss, grad, alpha, beta) from :func:`satkit.kernels.forward_backward`;
    for a batch each is stacked over the utterances."""
    lp = np.ascontiguousarray(lattice.log_probs.data)
    if lattice.lengths is None:
        return kernels.forward_backward(lp, lattice.targets)
    return kernels.forward_backward(lp, lattice.targets, lattice.lengths,
                                    lattice.u_lengths)


class JointNetwork:
    """Combines one encoder frame with one prediction state into a log
    distribution over the vocabulary: log_softmax(W_out tanh(W_in [f; g])).

    W_in is stored as two column blocks, ``w_enc`` and ``w_pred``, so each
    side is projected once and no T*(U+1) concatenations are built; the
    output projection is ``w_out``. ``params`` maps the checkpoint names
    ``joint.w_enc``, ``joint.w_pred`` and ``joint.w_out`` to these
    attributes, and an optimizer's arena rebinds their ``data``. Applied to
    full sequences it returns the whole lattice; the grid of tanh rows
    behind it is built tile by tile inside
    :func:`satkit.autodiff.joint_log_softmax`. The decode row step,
    :meth:`row_step`, projects encoder rows and prediction states once
    each and scores them with that op's own forward.
    """

    def __init__(self, d_enc: int, d_pred: int, d_joint: int, vocab_size: int,
                 rng: np.random.Generator):
        self.d_enc, self.d_pred = d_enc, d_pred
        self.d_joint, self.vocab_size = d_joint, vocab_size
        self.w_enc = glorot(rng, d_enc + d_pred, d_joint, rows=d_enc)
        self.w_pred = glorot(rng, d_enc + d_pred, d_joint, rows=d_pred)
        self.w_out = glorot(rng, d_joint, vocab_size)
        self.params = {"joint.w_enc": self.w_enc, "joint.w_pred": self.w_pred,
                       "joint.w_out": self.w_out}

    def log_probs(self, enc: Tensor, pred: Tensor) -> Tensor:
        """(T, d_enc) x (U+1, d_pred) -> (T, U+1, K) normalized log probs; a
        batch (B, T, d_enc) x (B, U+1, d_pred) -> (B, T, U+1, K)."""
        if (enc.ndim not in (2, 3) or enc.ndim != pred.ndim
                or enc.shape[:-2] != pred.shape[:-2]
                or enc.shape[-1] != self.d_enc or pred.shape[-1] != self.d_pred):
            raise ad.ShapeError(
                f"joint network fed {enc.shape} x {pred.shape}, expected widths "
                f"{self.d_enc} and {self.d_pred}")
        return ad.joint_log_softmax(ad.matmul(enc, self.w_enc), ad.matmul(pred, self.w_pred),
                                    self.w_out)

    def row_step(self, rows: int) -> "JointRows":
        """The row step of one search that scores up to ``rows`` states, or
        frames, per call."""
        return JointRows(self, rows)

    def lattice(self, enc: Tensor, pred: Tensor, targets, lengths=None) -> PosteriorLattice:
        """The lattice of one utterance, or of a padded batch whose frame
        counts are ``lengths``."""
        return PosteriorLattice(self.log_probs(enc, pred), targets, lengths)


class JointRows:
    """The joint's decode row step for one search, in buffers allocated once.

    :meth:`f_parts` and :meth:`g_parts` project encoder rows and prediction
    states. :meth:`log_probs` scores one projection of either side against
    up to ``rows`` projections of the other: one frame against the beam's
    states, or one state against greedy search's look-ahead frames. Each is
    one product over a :func:`satkit.nnet.row_tile`, so every row gets the
    bits it gets alone, and a search may score its rows in one call or one
    at a time. In a scoring call, the forward of
    :func:`satkit.autodiff.joint_log_softmax`, a row's sum ``f + g`` is the
    same IEEE add whichever side broadcasts, tanh and exp act element by
    element, the (n, J) @ (J, K) product follows the four-row rule, and the
    max and sum reduce each row alone; so a (frame, state) row has the same
    bits on either side and in a call of any size.
    """

    def __init__(self, joint: JointNetwork, rows: int):
        n, J, K = tile_len(max(1, rows)), joint.d_joint, joint.vocab_size
        self.w_f, self.w_g, self.w_out = joint.w_enc.data, joint.w_pred.data, joint.w_out.data
        self._f = np.zeros((4, joint.d_enc))  # grows to the encoder's chunks
        self._g = np.zeros((n, joint.d_pred))
        self._pad = np.zeros((n, J))  # either side's rows in a scoring call
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

    def log_probs(self, one: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The (m, K) log distributions of one side's (J,) projection ``one``
        with each of the other side's (m, J) projections ``rows``: one joint
        forward, whose row i has the bits of the pair scored alone, whichever
        side is which. The rows live in this row step's buffer until its
        next call."""
        tile = row_tile(rows, self._pad)
        return ad.joint_forward(one, tile, self.w_out, *self._bufs[len(tile)])[:len(rows)]
