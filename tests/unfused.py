"""Tape primitives the library no longer ships, and the references built
from them that its fused ops must reproduce.

``broadcast_add``, ``tanh`` and ``log_softmax_lastdim`` are the ops the
fused joint replaced, with their original arithmetic; ``joint_log_softmax``
composes them the way ``JointNetwork.log_probs`` once did. Likewise ``relu``
and ``layer_norm`` are the ops the fused sublayers replaced: ``ffn`` and
``add_layer_norm`` compose them the way ``SABlock``'s feed-forward and
residual-norm sublayers once did, and ``sgd_step`` and ``noam_step`` are the
per-parameter optimizer updates that the arena's tiled ones reproduce.

``reshape``, ``exp``, ``slice_axis``, ``concat``, ``logsumexp_lastdim`` and
``softmax_lastdim`` are the element and shape ops the library once kept for
references like these. ``tape_loss`` builds the transducer DP cell by cell
from them, and ``par_loss``/``joint_loss`` compose the path-aware
regularizer the way ``pathreg`` once did: a gather through ``index_rows``
from the whole grid and a one-hot matrix product per utterance.

The exhaustive oracles enumerate what the library computes by dynamic
programming or search: ``brute_force_loss`` scores every alignment path of
one lattice, and ``exhaustive_decode`` scores every label sequence up to a
length. ``zero_grads`` zeroes gradients parameter by parameter, for tests
that step a model's tape without an optimizer.

``apply_kv_per_call``, ``encoder_rows_per_call`` and ``advance_per_call``
are the decode row step as it was when each call took one key/value window
for all its rows and the encoder computed one row per call: the bits that
encoder rows keep away from the sequence ends, and prediction states keep
everywhere. Each weight product runs over the call's rows padded with zero
rows to a multiple of 4 (``tile_product``), the four-row rule under which a
row's bits do not depend on its neighbours. ``advance_per_call`` keeps its
states as plain arrays, in its own :class:`PerCallState`.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from satkit import autodiff as ad
from satkit.autodiff import LOG_ZERO, ShapeError, Tensor
from satkit.lattice import PosteriorLattice, forward_backward_arrays, transducer_loss
from satkit.nnet import LN_EPS, encoder_tiles, positional_encoding
from satkit.pathreg import ParConfig
from satkit.vocab import BLANK, SOS


def zero_grads(params) -> None:
    """Zero each parameter's gradient in place (a dict or an iterable)."""
    for p in params.values() if isinstance(params, dict) else params:
        if p.requires_grad:
            if p.grad is None:
                p.grad = np.zeros_like(p.data)
            else:
                p.grad.fill(0.0)


def _single(name, lattice: PosteriorLattice):
    if lattice.lengths is not None:
        raise ValueError(f"{name} scores one utterance's lattice, got a batch of "
                         f"{lattice.log_probs.shape[0]}")


def brute_force_loss(lattice: PosteriorLattice, max_paths: int = 200_000) -> float:
    """Loss by explicit enumeration of every monotone alignment path.

    Exponential in lattice size; errors out rather than grind when the path
    count exceeds ``max_paths``. Reference oracle for the DP kernels; scores
    one utterance, not a batch.
    """
    _single("brute_force_loss", lattice)
    T, U = lattice.T, lattice.U
    n_paths = math.comb(T + U - 1, U) if U else 1
    if n_paths > max_paths:
        raise ValueError(f"{n_paths} paths exceed enumeration budget {max_paths}")
    lp = lattice.log_probs.data.astype(np.float64)
    y = lattice.targets
    scores = np.empty(n_paths)
    # A path is fixed by the frame at which each target token is emitted
    # (non-decreasing); blanks fill every frame advance, including the
    # terminal one.
    for i, emit_at in enumerate(itertools.combinations_with_replacement(range(T), U)):
        u = 0
        s = 0.0
        for t in range(T):
            while u < U and emit_at[u] == t:
                s += lp[t, u, y[u]]
                u += 1
            s += lp[t, u, BLANK]
        scores[i] = s
    return float(-np.logaddexp.reduce(scores))


def exhaustive_decode(model, stacked: np.ndarray, max_len: int, token_ids):
    """Argmax over every label sequence up to max_len by full lattice scoring.

    Exponential reference oracle for beam search on tiny inputs.
    """
    enc = Tensor(np.concatenate(list(encoder_tiles(model.encoder, stacked))))
    best = None
    for n in range(max_len + 1):
        for y in itertools.product(token_ids, repeat=n):
            lp = model.joint.log_probs(enc, model.prednet(list(y)))
            grid = PosteriorLattice(lp, np.array(y, dtype=np.int64))
            score = -forward_backward_arrays(grid)[0]
            if best is None or score > best[1] or (score == best[1] and y < best[0]):
                best = (y, score)
    return list(best[0]), best[1]


def _sum_to(g, shape):
    """Sum ``g`` over the axes that ``shape`` holds at extent 1."""
    axes = tuple(i for i, (n, m) in enumerate(zip(shape, g.shape)) if n == 1 and m != 1)
    return g.sum(axis=axes, keepdims=True) if axes else g


def broadcast_add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of equal-rank tensors where each axis either matches
    or has extent 1 on one side, e.g. (B, T, 1, J) + (B, 1, U, J)."""
    a, b = ad._as_tensor(a), ad._as_tensor(b)
    if a.ndim != b.ndim or any(n != m and 1 not in (n, m) for n, m in zip(a.shape, b.shape)):
        raise ShapeError(f"broadcast_add: {a.shape} and {b.shape} do not broadcast")
    a_shape, b_shape = a.shape, b.shape

    def vjp(g):
        return _sum_to(g, a_shape), _sum_to(g, b_shape)

    return ad.op_result(a.data + b.data, (a, b), vjp)


def tanh(x: Tensor) -> Tensor:
    x = ad._as_tensor(x)
    out = np.tanh(x.data)

    def vjp(g):
        d = out * out
        np.subtract(1.0, d, out=d)
        d *= g
        return (d,)

    return ad.op_result(out, (x,), vjp)


def log_softmax_lastdim(x: Tensor) -> Tensor:
    x = ad._as_tensor(x)
    if not np.all(np.isfinite(x.data)):
        raise ValueError("log_softmax_lastdim: non-finite input")
    out = x.data - x.data.max(axis=-1, keepdims=True)
    out -= np.log(np.exp(out).sum(axis=-1, keepdims=True))

    def vjp(g):
        d = np.exp(out)
        d *= g.sum(axis=-1, keepdims=True)
        np.subtract(g, d, out=d)
        return (d,)

    return ad.op_result(out, (x,), vjp)


def joint_log_softmax(f: Tensor, g: Tensor, w_out: Tensor) -> Tensor:
    """log_softmax(tanh(f[..., :, None, :] + g[..., None, :, :]) @ w_out),
    one tape node per step."""
    j = f.shape[-1]
    grid = broadcast_add(reshape(f, f.shape[:-1] + (1, j)),
                         reshape(g, g.shape[:-2] + (1,) + g.shape[-2:]))
    return log_softmax_lastdim(ad.matmul(tanh(grid), w_out))


def relu(x: Tensor) -> Tensor:
    x = ad._as_tensor(x)
    out = np.maximum(x.data, 0.0)

    def vjp(g):
        return (g * (out > 0.0),)  # out > 0 exactly where x > 0

    return ad.op_result(out, (x,), vjp)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize the final axis to zero mean / unit variance, then apply
    learned gain and bias (both 1-D of the final extent)."""
    x, gain, bias = ad._as_tensor(x), ad._as_tensor(gain), ad._as_tensor(bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm: gain/bias must be ({d},), got {gain.shape} and {bias.shape}"
        )
    xc = x.data - ad.mean_lastdim(x.data)
    inv = 1.0 / np.sqrt(ad.mean_lastdim(xc * xc) + eps)
    out = xc * inv
    out *= gain.data
    out += bias.data
    gain_data = gain.data

    def vjp(g):
        dxhat = g * gain_data
        dvar = (dxhat * xc).sum(axis=-1, keepdims=True) * (-0.5) * inv**3
        dmu = (-dxhat * inv).sum(axis=-1, keepdims=True) + dvar * (-2.0 * xc).mean(
            axis=-1, keepdims=True
        )
        gx = dxhat * inv + dvar * 2.0 * xc / d + dmu / d
        return gx, ad._reduce_to(g * (xc * inv), (d,)), ad._reduce_to(g, (d,))

    return ad.op_result(out, (x, gain, bias), vjp)


def ffn(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """max(0, x @ w1 + b1) @ w2 + b2 as five tape nodes."""
    return ad.add(ad.matmul(relu(ad.add(ad.matmul(x, w1), b1)), w2), b2)


def add_layer_norm(x: Tensor, a: Tensor, gain: Tensor, bias: Tensor,
                   eps: float = 1e-6) -> Tensor:
    """layer_norm(x + a) as two tape nodes."""
    return layer_norm(ad.add(x, a), gain, bias, eps)


def tile_product(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` as one 2-D product over x's rows padded with zero rows to a
    multiple of 4."""
    m = len(x)
    return (np.concatenate([x, np.zeros((-m % 4, x.shape[1]))]) @ w)[:m]


def apply_kv_per_call(block, x_new: np.ndarray, k: np.ndarray, v: np.ndarray,
                      mask=None) -> np.ndarray:
    """The row step of ``block`` with one (n, d_m) key/value window for all
    its query rows, as it was before rows could come in chunks: each product
    is one :func:`tile_product` over the call's rows."""
    w_q, w_o, ln1_g, ln1_b, w1, b1, w2, b2, ln2_g, ln2_b = [p.data for p in (
        block.w_q, block.w_o, block.ln1_g, block.ln1_b, block.w1, block.b1, block.w2,
        block.b2, block.ln2_g, block.ln2_b)]
    heads, d_k = block.n_heads, block.d_k
    q = tile_product(x_new, w_q).reshape(-1, heads, d_k).transpose(1, 0, 2)
    k = k.reshape(-1, heads, d_k).transpose(1, 0, 2)
    v = v.reshape(-1, heads, d_k).transpose(1, 0, 2)
    _, ctx = ad.attend(q, k, v, mask, block.scale)
    a = tile_product(ctx.transpose(1, 0, 2).reshape(x_new.shape), w_o)
    y = ad.add_layer_norm_forward(x_new, a, ln1_g, ln1_b, LN_EPS)[2]
    h = np.maximum(tile_product(y, w1) + b1, 0.0)
    f = tile_product(h, w2) + b2
    return ad.add_layer_norm_forward(y, f, ln2_g, ln2_b, LN_EPS)[2]


def _kv_per_call(block, x: np.ndarray) -> np.ndarray:
    """One (d_m,) row's [key | value] projections."""
    return np.concatenate([tile_product(x[None], w.data)[0] for w in (block.w_k, block.w_v)])


def encoder_rows_per_call(encoder, stacked) -> np.ndarray:
    """Bounded-window encoder rows computed one row per row-step call, each
    over its window clipped to the sequence: the row step before rows could
    come in chunks, whose masked fixed-width windows move only the rows
    whose window a sequence end clips."""
    left, right = int(encoder.chunk.left), int(encoder.chunk.right)
    w_in, b_in = encoder.params["enc.in.w"].data, encoder.params["enc.in.b"].data
    rows = [tile_product(x[None], w_in)[0] + b_in
            + positional_encoding([t], encoder.d_m)[0]
            for t, x in enumerate(stacked)]
    d = encoder.d_m
    for block in encoder.blocks:
        kv = [_kv_per_call(block, x) for x in rows]
        out = []
        for t, x in enumerate(rows):
            window = np.stack(kv[max(0, t - left):t + right + 1])
            out.append(apply_kv_per_call(block, x[None, :], window[:, :d], window[:, d:])[0])
        rows = out
    return np.stack(rows)


@dataclass
class PerCallState:
    """What :func:`advance_per_call` reads of a state and returns: one
    [key | value] row array per block (None for each block of the empty
    root), the prefix length and the top block's newest row."""

    layers: list
    length: int
    g: np.ndarray


def advance_per_call(net, state, token):
    """``PredictionNetwork.advance_np`` through :func:`apply_kv_per_call`,
    from a :class:`PerCallState` or a network's ``PredState``."""
    tok = SOS if token is None else int(token)
    x = net.params["pred.emb"].data[tok] * math.sqrt(net.d_m)
    x = (x + positional_encoding([state.length], net.d_m)[0])[None, :]
    layers, d = [], net.d_m
    for block, cache in zip(net.blocks, state.layers):
        kv = _kv_per_call(block, x[0])[None]
        if cache is not None:
            kv = np.concatenate([cache, kv], axis=0)
        layers.append(kv)
        x = apply_kv_per_call(block, x, kv[:, :d], kv[:, d:])
    return PerCallState(layers, state.length + 1, x[0])


def sgd_step(params: dict, velocity: dict, lr: float, momentum: float) -> None:
    """One momentum-SGD update, parameter by parameter in sorted-name order."""
    for name in sorted(params):
        p, v = params[name], velocity[name]
        v *= momentum
        v += p.grad
        p.data -= lr * v


def noam_step(params: dict, m: dict, v: dict, lr: float, t: int, beta1: float = 0.9,
              beta2: float = 0.98, eps: float = 1e-9) -> None:
    """One Noam update at step t, parameter by parameter in sorted-name order."""
    for name in sorted(params):
        p = params[name]
        g = p.grad
        mn, vn = m[name], v[name]
        mn *= beta1
        mn += (1.0 - beta1) * g
        vn *= beta2
        vn += (1.0 - beta2) * g * g
        mhat = mn / (1.0 - beta1 ** t)
        vhat = vn / (1.0 - beta2 ** t)
        p.data -= lr * mhat / (np.sqrt(vhat) + eps)


def reshape(x: Tensor, shape) -> Tensor:
    x = ad._as_tensor(x)
    out = x.data.reshape(shape)
    x_shape = x.shape

    def vjp(g):
        return (g.reshape(x_shape),)

    return ad.op_result(out, (x,), vjp)


def exp(x: Tensor) -> Tensor:
    x = ad._as_tensor(x)
    out = np.exp(x.data)

    def vjp(g):
        return (g * out,)

    return ad.op_result(out, (x,), vjp)


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice [start:stop) along one axis."""
    x = ad._as_tensor(x)
    n = x.shape[axis]
    if not (0 <= start <= stop <= n):
        raise ShapeError(f"slice_axis: [{start}:{stop}) out of range for axis {axis} of {x.shape}")
    key = [slice(None)] * x.ndim
    key[axis] = slice(start, stop)
    key = tuple(key)
    out = x.data[key]
    x_shape, x_dtype = x.shape, x.dtype

    def vjp(g):
        full = np.zeros(x_shape, dtype=x_dtype)
        full[key] = g
        return (full,)

    return ad.op_result(out, (x,), vjp)


def concat(parts, axis: int = 0) -> Tensor:
    parts = [ad._as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat: no inputs")
    base = list(parts[0].shape)
    for p in parts[1:]:
        other = list(p.shape)
        if len(other) != len(base) or any(
            i != (axis % len(base)) and other[i] != base[i] for i in range(len(base))
        ):
            raise ShapeError(f"concat: {p.shape} incompatible with {parts[0].shape} on axis {axis}")
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]

    def vjp(g):
        return tuple(np.split(g, np.cumsum(sizes)[:-1], axis=axis))

    return ad.op_result(out, tuple(parts), vjp)


def softmax_lastdim(x: Tensor) -> Tensor:
    """Softmax over the final axis. Rows are probability vectors."""
    x = ad._as_tensor(x)
    ad._check_finite("softmax_lastdim", x.data)
    out = ad._softmax_inplace(x.data.copy())

    def vjp(g):
        return (ad._softmax_vjp(g, out),)

    return ad.op_result(out, (x,), vjp)


def logsumexp_lastdim(x: Tensor) -> Tensor:
    """Log of summed exponentials over the final axis; output drops that axis."""
    x = ad._as_tensor(x)
    ad._check_finite("logsumexp_lastdim", x.data)
    m = x.data.max(axis=-1, keepdims=True)
    out = (m + np.log(np.exp(x.data - m).sum(axis=-1, keepdims=True))).squeeze(-1)
    x_data = x.data

    def vjp(g):
        soft = np.exp(x_data - out[..., None])
        return (soft * g[..., None],)

    return ad.op_result(out, (x,), vjp)


def tape_loss(lattice: PosteriorLattice) -> Tensor:
    """Loss built cell-by-cell from autodiff primitives.

    Slow scalar construction used to cross-check the kernel's hand-derived
    gradient against the tape's on tiny lattices. Scores one utterance, not a
    batch.
    """
    _single("tape_loss", lattice)
    lp = lattice.log_probs
    T, U = lattice.T, lattice.U
    y = lattice.targets

    def ent(t, u, k):
        cell = slice_axis(slice_axis(slice_axis(lp, 0, t, t + 1), 1, u, u + 1), 2, k, k + 1)
        return reshape(cell, (1,))

    def logadd(a, b):
        return logsumexp_lastdim(concat([a, b], axis=0))

    dead = Tensor(np.full(1, LOG_ZERO))
    alpha = {(0, 0): Tensor(np.zeros(1))}
    for n in range(1, T + U):
        for t in range(max(0, n - U), min(T - 1, n) + 1):
            u = n - t
            fb = ad.add(alpha[(t - 1, u)], ent(t - 1, u, BLANK)) if t > 0 else dead
            fl = ad.add(alpha[(t, u - 1)], ent(t, u - 1, int(y[u - 1]))) if u > 0 else dead
            alpha[(t, u)] = reshape(logadd(fb, fl), (1,))
    total = ad.add(alpha[(T - 1, U)], ent(T - 1, U, BLANK))
    return reshape(ad.scale(total, -1.0), ())


def par_loss(lat: PosteriorLattice, path, cfg: ParConfig = None) -> Tensor:
    """-sum over path triples of (1 - p(blank|t,u)) * log p(token|t,u), as a
    chain of tape ops over the whole flattened grid."""
    cfg = cfg or ParConfig()
    batched = lat.lengths is not None
    paths = list(path) if batched else [path]
    shape = lat.log_probs.shape
    T_max, U1, K = shape[-3:]
    node, tok, owner = [], [], []
    for b, p in enumerate(paths):
        for (t, u, k) in p.triples:
            node.append(((b * T_max + t) * U1 + u) * K)
            tok.append(k)
            owner.append(b)
    node = np.asarray(node, dtype=np.int64)
    n = node.shape[0]
    flat = reshape(lat.log_probs, (int(np.prod(shape)), 1))
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
        tok_lp, blank_lp = slice_axis(both, 0, 0, n), slice_axis(both, 0, n, 2 * n)
        w = ad.add(ad.scale(exp(blank_lp), -1.0), Tensor(np.ones((n, 1), dtype=flat.dtype)))
        per_utt = ad.matmul(Tensor(seg), ad.mul(w, tok_lp))
    return reshape(ad.scale(per_utt, -1.0), (len(paths),) if batched else ())


def joint_loss(lat: PosteriorLattice, path, cfg: ParConfig = None,
               validate: bool = True) -> Tensor:
    """transducer loss + beta * ``par_loss``, composed on the tape."""
    cfg = cfg or ParConfig()
    base = transducer_loss(lat, validate=validate)
    if cfg.beta == 0.0:
        return base
    return ad.add(base, ad.scale(par_loss(lat, path, cfg), cfg.beta))
