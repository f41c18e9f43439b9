"""Alignment-path construction and path-weighted regularization.

A frame-level alignment (one token per downsampled frame, blank for silence)
is unrolled into the unique lattice path it induces; the regularizer is a
per-node cross-entropy along that path, each node weighted by
w = 1 - p(blank | t, u) so confidently-blank nodes contribute nothing.

The regularizer reads only the token and blank cells of the T+U aligned
nodes, gathered from the log-prob array, by :func:`_par_terms` alone.
:func:`joint_loss`, which training runs, is the lattice's one kernel-loss
op with beta * PAR added, and PAR has no op of its own: one kernel call
gives the transducer loss and its gradient, and the op's vjp scales that
gradient in place and lets the regularizer add its terms into it, so the
kernel's gradient is the only grid-sized cotangent of a step.
"""

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .lattice import PosteriorLattice, _kernel_loss, transducer_loss
from .vocab import BLANK


class AlignmentMismatch(ValueError):
    pass


@dataclass(frozen=True)
class AlignmentPath:
    """(t, u, token) triples covering T blank steps and U label steps.

    Starts at (0, 0); labels move u, blanks move t; the final triple is the
    terminal blank at (T-1, U).
    """

    triples: tuple

    def __len__(self):
        return len(self.triples)


def build_path(alignment, targets) -> AlignmentPath:
    """Unroll a frame-level alignment into its lattice path.

    ``alignment`` holds one token id per frame with BLANK for silence. Each
    frame contributes its blank step; a non-blank frame first contributes the
    label step (which must match the next target) at that frame.
    """
    targets = [int(v) for v in targets]
    triples = []
    u = 0
    for t, a in enumerate(int(v) for v in alignment):
        if a != BLANK:
            if u >= len(targets) or a != targets[u]:
                expected = targets[u] if u < len(targets) else "end of targets"
                raise AlignmentMismatch(
                    f"frame {t}: aligned token {a} does not match {expected} "
                    f"(target position {u})")
            triples.append((t, u, a))
            u += 1
        triples.append((t, u, BLANK))
    if u != len(targets):
        raise AlignmentMismatch(
            f"alignment emitted {u} labels but targets have {len(targets)}")
    return AlignmentPath(tuple(triples))


@dataclass
class ParConfig:
    beta: float = 10.0
    detach_weight: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise ValueError(f"regularization weight must be finite and non-negative, "
                             f"got {self.beta}")


def _par_terms(lat: PosteriorLattice, path, cfg: ParConfig):
    """PAR per utterance from the cells its path triples read, and a
    function ``add_grad(flat, gb)`` that adds the gradient of
    ``sum_b gb[b] * PAR_b`` into ``flat``, a flat view of a grid shaped like
    ``lat.log_probs``. Values are (B,) for a batch and 0-d for one lattice.
    """
    batched = lat.lengths is not None
    paths = list(path) if batched else [path]
    T_max, U1, K = lat.log_probs.shape[-3:]
    t_lens = lat.lengths if batched else [T_max]
    u_lens = lat.u_lengths if batched else [U1 - 1]
    if len(paths) != len(t_lens):
        raise ValueError(f"{len(paths)} alignment paths for {len(t_lens)} lattices")
    node, tok, owner = [], [], []
    for b, p in enumerate(paths):
        T, U = int(t_lens[b]), int(u_lens[b])
        for (t, u, k) in p.triples:
            if not (0 <= t < T and 0 <= u <= U and 0 <= k < K):
                raise ValueError(f"path triple {(t, u, k)} outside lattice {(T, U, K)}")
            node.append(((b * T_max + t) * U1 + u) * K)
            tok.append(k)
            owner.append(b)
    node = np.asarray(node, dtype=np.int64)
    tok_at = node + np.asarray(tok, dtype=np.int64)
    blank_at = node + BLANK
    owner = np.asarray(owner, dtype=np.int64)
    lp = lat.log_probs.data.reshape(-1)
    tok_lp = lp[tok_at]
    e = np.exp(lp[blank_at])
    w = 1.0 - e
    n = node.shape[0]
    # seg[b, i] = 1 when triple i lies on utterance b's path.
    seg = np.zeros((len(paths), n))
    seg[owner, np.arange(n)] = 1.0
    values = -((seg * w) @ tok_lp[:, None])[:, 0]

    def add_grad(flat, gb):
        gi = gb[owner]
        np.add.at(flat, tok_at, -gi * w)
        if not cfg.detach_weight:  # d/d lp_blank of -(1 - e^lp_blank) lp_tok
            np.add.at(flat, blank_at, gi * tok_lp * e)

    return (values if batched else values.reshape(())), add_grad


def _regularized(lat: PosteriorLattice, path, cfg: ParConfig, validate: bool):
    """(transducer + beta * PAR per utterance as one tape op, the transducer
    values, the PAR values or None at beta = 0).

    The op is the kernel's loss op with beta * PAR added: its vjp adds the
    PAR terms into the kernel's own gradient, so no other grid-sized
    cotangent exists.
    """
    if cfg.beta == 0.0:
        base = transducer_loss(lat, validate=validate)
        return base, base.data, None
    par, add_grad = _par_terms(lat, path, cfg)
    beta = cfg.beta
    op, loss = _kernel_loss(lat, validate, par * beta,
                            lambda flat, g: add_grad(flat, g * beta))
    return op, loss, par


def joint_loss(lat: PosteriorLattice, path: AlignmentPath,
               cfg: ParConfig = None, validate: bool = True) -> Tensor:
    """transducer loss + beta * path regularizer, per utterance, as one op.

    beta = 0 returns the transducer loss tensor itself, so that run is
    bit-identical to an unregularized one.
    """
    return _regularized(lat, path, cfg or ParConfig(), validate)[0]
