"""Alignment-path construction and path-weighted regularization.

A frame-level alignment (one token per downsampled frame, blank for silence)
is unrolled into the unique lattice path it induces; the regularizer is a
per-node cross-entropy along that path, each node weighted by
w = 1 - p(blank | t, u) so confidently-blank nodes contribute nothing.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .lattice import PosteriorLattice, transducer_loss
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

    @property
    def label_triples(self):
        return tuple(tr for tr in self.triples if tr[2] != BLANK)


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
    labels_only: bool = False

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError(f"regularization weight must be non-negative, got {self.beta}")


def par_loss(lat: PosteriorLattice, path, cfg: ParConfig = None) -> Tensor:
    """-sum over path triples of (1 - p(blank|t,u)) * log p(token|t,u).

    One lattice and its path give a scalar; a lattice batch and a list of
    B paths give the (B,) per-utterance sums, from one gather over the
    batch's grid. ``labels_only`` drops the blank-target triples from the
    sum; ``detach_weight`` (default) treats the weights as constants in the
    gradient.
    """
    cfg = cfg or ParConfig()
    batched = lat.lengths is not None
    paths = list(path) if batched else [path]
    shape = lat.log_probs.shape
    T_max, U1, K = shape[-3:]
    t_lens = lat.lengths if batched else [T_max]
    u_lens = lat.u_lengths if batched else [U1 - 1]
    if len(paths) != len(t_lens):
        raise ValueError(f"{len(paths)} alignment paths for {len(t_lens)} lattices")
    node, tok, owner = [], [], []
    for b, p in enumerate(paths):
        T, U = int(t_lens[b]), int(u_lens[b])
        for (t, u, k) in (p.label_triples if cfg.labels_only else p.triples):
            if not (0 <= t < T and 0 <= u <= U and 0 <= k < K):
                raise ValueError(f"path triple {(t, u, k)} outside lattice {(T, U, K)}")
            node.append(((b * T_max + t) * U1 + u) * K)
            tok.append(k)
            owner.append(b)
    node = np.asarray(node, dtype=np.int64)
    n = node.shape[0]
    flat = ad.reshape(lat.log_probs, (int(np.prod(shape)), 1))
    # seg[b, i] = 1 when triple i lies on utterance b's path.
    seg = np.zeros((len(paths), n), dtype=flat.dtype)
    seg[np.asarray(owner, dtype=np.int64), np.arange(n)] = 1.0
    if cfg.detach_weight:
        tok_lp = ad.index_rows(flat, node + np.asarray(tok, dtype=np.int64))
        w = 1.0 - np.exp(flat.data[node + BLANK])
        per_utt = ad.matmul(Tensor(seg * w.T), tok_lp)
    else:
        both = ad.index_rows(flat, np.concatenate([node + np.asarray(tok, dtype=np.int64),
                                                   node + BLANK]))
        tok_lp, blank_lp = ad.slice_axis(both, 0, 0, n), ad.slice_axis(both, 0, n, 2 * n)
        w = ad.add(ad.scale(ad.exp(blank_lp), -1.0), Tensor(np.ones((n, 1), dtype=flat.dtype)))
        per_utt = ad.matmul(Tensor(seg), ad.mul(w, tok_lp))
    return ad.reshape(ad.scale(per_utt, -1.0), (len(paths),) if batched else ())


def joint_loss(lat: PosteriorLattice, path: AlignmentPath,
               cfg: ParConfig = None, validate: bool = True) -> Tensor:
    """transducer loss + beta * path regularizer.

    beta = 0 returns the transducer loss tensor itself, so that run is
    bit-identical to an unregularized one.
    """
    cfg = cfg or ParConfig()
    base = transducer_loss(lat, validate=validate)
    if cfg.beta == 0.0:
        return base
    return ad.add(base, ad.scale(par_loss(lat, path, cfg), cfg.beta))
