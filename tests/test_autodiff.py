"""Finite-difference and graph-semantics checks for the tape autodiff."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satkit import autodiff as ad
from satkit.autodiff import GraphError, ShapeError, Tensor
import unfused
from unfused import (broadcast_add, concat, exp, layer_norm, log_softmax_lastdim,
                     logsumexp_lastdim, relu, reshape, slice_axis, softmax_lastdim, tanh)
from unfused import joint_log_softmax as unfused_joint


def fd_grad(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central differences of a scalar-valued f at x, elementwise."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    out = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        out[i] = (hi - lo) / (2.0 * eps)
    return g


def tape_grad(build, x: np.ndarray) -> np.ndarray:
    t = Tensor(x.copy(), requires_grad=True)
    loss = build(t)
    loss.backward()
    return t.grad


def check_fd(build, f, x, rel=1e-5):
    got = tape_grad(build, x)
    want = fd_grad(f, x.copy())
    scale = np.maximum(np.abs(want), 1.0)
    np.testing.assert_allclose(got, want, rtol=0, atol=rel * scale.max())


RNG = np.random.default_rng(20240817)


def rand(*shape):
    return RNG.uniform(-2.0, 2.0, size=shape)


def test_matmul_2d_fd():
    b = rand(4, 3)
    check_fd(lambda t: ad.sum_all(ad.matmul(t, Tensor(b))),
             lambda x: (x @ b).sum(), rand(5, 4))


def test_matmul_3d_fd():
    # a (B, T, k) stack against one (k, m) weight; a stack of weights is refused
    b = rand(4, 3)
    check_fd(lambda t: ad.sum_all(ad.matmul(t, Tensor(b))),
             lambda x: (x @ b).sum(), rand(2, 5, 4))
    with pytest.raises(ShapeError):
        ad.matmul(Tensor(rand(2, 5, 4)), Tensor(rand(2, 4, 3)))


def test_matmul_right_operand_fd():
    a = rand(5, 4)
    check_fd(lambda t: ad.sum_all(ad.matmul(Tensor(a), t)),
             lambda x: (a @ x).sum(), rand(4, 3))


def test_matmul_shape_errors():
    with pytest.raises(ShapeError):
        ad.matmul(Tensor(rand(2, 3)), Tensor(rand(4, 2)))
    with pytest.raises(ShapeError):
        ad.matmul(Tensor(rand(2, 3, 4)), Tensor(rand(3, 4, 2)))
    with pytest.raises(ShapeError):
        ad.matmul(Tensor(rand(2, 3)), Tensor(rand(2, 3, 4)))
    # the right operand is one weight matrix, never a stack of them
    with pytest.raises(ShapeError):
        ad.matmul(Tensor(rand(2, 3, 5, 4)), Tensor(rand(2, 3, 4, 2)))


def test_add_same_shape_fd():
    b = rand(3, 4)
    check_fd(lambda t: ad.sum_all(ad.add(t, Tensor(b))),
             lambda x: (x + b).sum(), rand(3, 4))


def test_add_suffix_broadcast_grad():
    a = Tensor(rand(5, 3), requires_grad=True)
    b = Tensor(rand(3), requires_grad=True)
    ad.sum_all(ad.add(a, b)).backward()
    np.testing.assert_array_equal(a.grad, np.ones((5, 3)))
    np.testing.assert_array_equal(b.grad, np.full(3, 5.0))


def test_add_rejects_leading_broadcast():
    with pytest.raises(ShapeError):
        ad.add(Tensor(rand(3, 4)), Tensor(rand(3, 1)))


def test_mul_fd_both_sides():
    b = rand(3, 4)
    check_fd(lambda t: ad.sum_all(ad.mul(t, Tensor(b))),
             lambda x: (x * b).sum(), rand(3, 4))
    a = rand(2, 3, 4)
    check_fd(lambda t: ad.sum_all(ad.mul(Tensor(a), t)),
             lambda x: (a * x).sum(), rand(3, 4))


def test_scale_relu_tanh_exp_log_fd():
    check_fd(lambda t: ad.sum_all(ad.scale(t, -2.5)),
             lambda x: (-2.5 * x).sum(), rand(4, 3))
    x = rand(4, 3)
    x[np.abs(x) < 0.1] += 0.2  # stay away from the relu kink
    check_fd(lambda t: ad.sum_all(relu(t)),
             lambda v: np.maximum(v, 0.0).sum(), x)
    check_fd(lambda t: ad.sum_all(tanh(t)),
             lambda v: np.tanh(v).sum(), rand(4, 3))
    check_fd(lambda t: ad.sum_all(exp(t)),
             lambda v: np.exp(v).sum(), rand(4, 3))


def _weighted(build_op):
    """Scalar loss with distinct per-element weights so FD sees structure."""
    def make(t):
        y = build_op(t)
        w = Tensor(np.arange(1.0, np.prod(y.shape) + 1.0).reshape(y.shape))
        return ad.sum_all(ad.mul(y, w))
    return make


def _weighted_np(op):
    def f(x):
        y = op(x)
        w = np.arange(1.0, y.size + 1.0).reshape(y.shape)
        return (y * w).sum()
    return f


def test_softmax_fd():
    check_fd(_weighted(softmax_lastdim),
             _weighted_np(lambda x: np.exp(x) / np.exp(x).sum(-1, keepdims=True)),
             rand(3, 5))


def test_log_softmax_fd():
    check_fd(_weighted(log_softmax_lastdim),
             _weighted_np(lambda x: x - np.log(np.exp(x).sum(-1, keepdims=True))),
             rand(3, 5))


def test_logsumexp_fd_pinned_values():
    # d/da log(e^a + e^b) = softmax; checked at a=1, b=2 with eps 1e-6
    x = np.array([[1.0, 2.0]])
    got = tape_grad(lambda t: ad.sum_all(logsumexp_lastdim(t)), x)
    want = fd_grad(lambda v: np.log(np.exp(v).sum()), x.copy(), eps=1e-6)
    np.testing.assert_allclose(got, want, rtol=1e-6)
    soft = np.exp(x) / np.exp(x).sum()
    np.testing.assert_allclose(got, soft, rtol=1e-9)


def test_softmax_checks_finite():
    bad = Tensor(np.array([[0.0, np.nan]]))
    for op in (softmax_lastdim, log_softmax_lastdim, logsumexp_lastdim):
        with pytest.raises(ValueError):
            op(bad)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_softmax_rows_are_distributions(rows, cols, seed):
    x = np.random.default_rng(seed).normal(0.0, 3.0, size=(rows, cols))
    out = softmax_lastdim(Tensor(x)).data
    assert np.all(out >= 0.0)
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)
    ls = log_softmax_lastdim(Tensor(x)).data
    np.testing.assert_allclose(np.exp(ls).sum(axis=-1), 1.0, atol=1e-12)
    lse = logsumexp_lastdim(Tensor(x)).data
    np.testing.assert_allclose(lse, np.log(np.exp(x).sum(-1)), rtol=1e-12)


def test_concat_slice_fd():
    b = rand(2, 4)
    check_fd(_weighted(lambda t: concat([t, Tensor(b)], axis=0)),
             _weighted_np(lambda x: np.concatenate([x, b], axis=0)),
             rand(3, 4))
    check_fd(_weighted(lambda t: slice_axis(t, 1, 1, 3)),
             _weighted_np(lambda x: x[:, 1:3]), rand(4, 5))


def test_concat_axis1_and_shape_error():
    a, b = Tensor(rand(3, 2), requires_grad=True), Tensor(rand(3, 4))
    out = concat([a, b], axis=1)
    assert out.shape == (3, 6)
    with pytest.raises(ShapeError):
        concat([Tensor(rand(3, 2)), Tensor(rand(4, 3))], axis=1)


def test_index_rows_accumulates_duplicates():
    table = Tensor(rand(4, 3), requires_grad=True)
    out = ad.index_rows(table, [1, 1, 3])
    ad.sum_all(out).backward()
    np.testing.assert_array_equal(table.grad[1], np.full(3, 2.0))
    np.testing.assert_array_equal(table.grad[3], np.ones(3))
    np.testing.assert_array_equal(table.grad[0], np.zeros(3))
    with pytest.raises(ShapeError):
        ad.index_rows(table, [4])


def test_transpose_reshape_fd():
    check_fd(_weighted(lambda t: reshape(t, (6, 2))),
             _weighted_np(lambda x: x.reshape(6, 2)), rand(3, 4))


def test_broadcast_add_fd():
    # the joint grid: (B, T, 1, J) + (B, 1, U, J), both operands differentiated
    g = rand(2, 1, 4, 3)
    check_fd(_weighted(lambda t: broadcast_add(t, Tensor(g))),
             _weighted_np(lambda x: x + g), rand(2, 5, 1, 3))
    f = rand(2, 5, 1, 3)
    check_fd(_weighted(lambda t: broadcast_add(Tensor(f), t)),
             _weighted_np(lambda x: f + x), rand(2, 1, 4, 3))
    # equal shapes and a per-sequence mask broadcast over heads
    m = rand(2, 1, 4, 4)
    check_fd(_weighted(lambda t: broadcast_add(t, Tensor(m))),
             _weighted_np(lambda x: x + m), rand(2, 3, 4, 4))
    with pytest.raises(ShapeError):
        broadcast_add(Tensor(rand(2, 3)), Tensor(rand(3, 3)))
    with pytest.raises(ShapeError):
        broadcast_add(Tensor(rand(2, 1, 3)), Tensor(rand(1, 3)))


def _joint_inputs(rng, f_shape, g_shape, k):
    f = rng.standard_normal(f_shape)
    g = rng.standard_normal(g_shape)
    w = rng.standard_normal((f_shape[-1], k)) * 0.5
    return f, g, w


def _joint_run(op, f, g, w, weights, frozen_w=False):
    """Values and the (f, g, w_out) gradients of sum(weights * op(f, g, w))."""
    tf, tg = Tensor(f, requires_grad=True), Tensor(g, requires_grad=True)
    tw = Tensor(w, requires_grad=not frozen_w)
    out = op(tf, tg, tw)
    ad.sum_all(ad.mul(out, Tensor(weights))).backward()
    return out.data, tf.grad, tg.grad, tw.grad


def _assert_joint_matches_unfused(f, g, w, frozen_w=False):
    rng = np.random.default_rng(5)
    shape = f.shape[:-1] + g.shape[-2:-1] + (w.shape[1],)
    weights = rng.standard_normal(shape)
    got = _joint_run(ad.joint_log_softmax, f, g, w, weights, frozen_w)
    want = _joint_run(unfused_joint, f, g, w, weights, frozen_w)
    np.testing.assert_allclose(got[0], want[0], rtol=1e-13, atol=1e-13)
    # constant inputs record nothing and reuse one tile buffer: same values
    np.testing.assert_array_equal(
        ad.joint_log_softmax(Tensor(f), Tensor(g), Tensor(w)).data, got[0])
    for name, a, b in zip(("f", "g", "w_out"), got[1:], want[1:]):
        if b is None:
            assert a is None, name
            continue
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max(),
                                   err_msg=name)


def test_joint_log_softmax_matches_unfused_ops():
    rng = np.random.default_rng(61)
    # one sequence, and a batch; T shorter than one tile: a single tile
    f, g, w = _joint_inputs(rng, (6, 8), (4, 8), 5)
    assert len(ad._joint_tiles(1, 6, ad._JOINT_TILE_BYTES // (4 * 8 * 8))) == 1
    _assert_joint_matches_unfused(f, g, w)
    f, g, w = _joint_inputs(rng, (3, 7, 8), (3, 5, 8), 6)
    _assert_joint_matches_unfused(f, g, w)
    # a frozen output projection gets no gradient
    _assert_joint_matches_unfused(f, g, w, frozen_w=True)


def test_joint_log_softmax_tiles(monkeypatch):
    # a budget of 3 frames per tile, which 10 frames do not fill evenly:
    # 4 tiles per utterance of 2 or 3 frames
    U1, J = 4, 8
    monkeypatch.setattr(ad, "_JOINT_TILE_BYTES", 3 * U1 * J * 8)
    tiles = ad._joint_tiles(2, 10, 3)
    sizes = [t1 - t0 for _, _, t0, t1 in tiles]
    assert len(tiles) == 8 and set(sizes) == {2, 3} and sizes[-1] != sizes[-2]
    rng = np.random.default_rng(67)
    _assert_joint_matches_unfused(*_joint_inputs(rng, (10, J), (U1, J), 5))
    _assert_joint_matches_unfused(*_joint_inputs(rng, (2, 10, J), (2, U1, J), 5))
    # short utterances are grouped whole: 5 of 2 frames in tiles of 1 or 2
    monkeypatch.setattr(ad, "_JOINT_TILE_BYTES", 4 * U1 * J * 8)
    tiles = ad._joint_tiles(5, 2, 4)
    assert [(b0, b1) for b0, b1, _, _ in tiles] == [(0, 1), (1, 3), (3, 5)]
    f, g, w = _joint_inputs(rng, (5, 2, J), (5, U1, J), 5)
    _assert_joint_matches_unfused(f, g, w)
    _assert_joint_matches_unfused(f, g, w, frozen_w=True)


def test_joint_log_softmax_fd():
    rng = np.random.default_rng(71)
    f, g, w = _joint_inputs(rng, (2, 3, 4), (2, 2, 4), 3)
    check_fd(_weighted(lambda t: ad.joint_log_softmax(t, Tensor(g), Tensor(w))),
             _weighted_np(lambda x: _joint_np(x, g, w)), f)
    check_fd(_weighted(lambda t: ad.joint_log_softmax(Tensor(f), t, Tensor(w))),
             _weighted_np(lambda x: _joint_np(f, x, w)), g)
    check_fd(_weighted(lambda t: ad.joint_log_softmax(Tensor(f), Tensor(g), t)),
             _weighted_np(lambda x: _joint_np(f, g, x)), w)


def _joint_np(f, g, w):
    z = np.tanh(f[..., :, None, :] + g[..., None, :, :]) @ w
    return z - np.log(np.exp(z).sum(-1, keepdims=True))


def test_joint_log_softmax_checks():
    f, g, w = rand(3, 4), rand(2, 4), rand(4, 5)
    bad = w.copy()
    bad[1, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        ad.joint_log_softmax(Tensor(f), Tensor(g), Tensor(bad))
    bad = f.copy()
    bad[2, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        ad.joint_log_softmax(Tensor(bad), Tensor(g), Tensor(w))
    for f_, g_, w_ in [(f, rand(2, 3), w), (f, g, rand(3, 5)), (rand(2, 3, 4), g, w),
                       (rand(2, 3, 4), rand(3, 2, 4), w), (rand(4), g, w)]:
        with pytest.raises(ShapeError):
            ad.joint_log_softmax(Tensor(f_), Tensor(g_), Tensor(w_))
    with pytest.raises(ShapeError):
        ad.joint_log_softmax(Tensor(f), Tensor(g), Tensor(w.astype(np.float32)))


def test_matmul_stack_times_matrix_fd():
    # a shared weight on every row of a (B, H, T, d) stack, and its gradient
    w = rand(4, 3)
    check_fd(_weighted(lambda t: ad.matmul(t, Tensor(w))),
             _weighted_np(lambda v: v @ w), rand(2, 3, 5, 4))
    x = rand(2, 5, 4)
    check_fd(_weighted(lambda t: ad.matmul(Tensor(x), t)),
             _weighted_np(lambda v: x @ v), rand(4, 3))
    with pytest.raises(ShapeError):
        ad.matmul(Tensor(rand(2, 5, 4)), Tensor(rand(3, 3)))


def _ln_np(x, gain, bias, eps=1e-6):
    mu = x.mean(-1, keepdims=True)
    var = ((x - mu) ** 2).mean(-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def test_layer_norm_fd_all_inputs():
    gain, bias = rand(5), rand(5)
    check_fd(_weighted(lambda t: layer_norm(t, Tensor(gain), Tensor(bias))),
             _weighted_np(lambda x: _ln_np(x, gain, bias)), rand(4, 5))
    x = rand(4, 5)
    check_fd(_weighted(lambda t: layer_norm(Tensor(x), t, Tensor(bias))),
             _weighted_np(lambda g: _ln_np(x, g, bias)), rand(5))
    check_fd(_weighted(lambda t: layer_norm(Tensor(x), Tensor(gain), t)),
             _weighted_np(lambda b: _ln_np(x, gain, b)), rand(5))


def test_layer_norm_output_moments():
    x = Tensor(rand(6, 8))
    out = layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8))).data
    np.testing.assert_allclose(out.mean(-1), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.std(-1), 1.0, atol=1e-3)


def _fused_inputs(seed, lead, sizes):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, size=lead + sizes[0]), [
        rng.uniform(-1.0, 1.0, size=s) for s in sizes[1:]]


def _assert_fused_matches_unfused(fused, composed, x, args, frozen=()):
    """Forward bit for bit, gradients of every tracked input to 1e-12."""
    weights = None
    runs = []
    for op in (fused, composed):
        ts = [Tensor(a.copy(), requires_grad=i not in frozen) for i, a in enumerate([x] + args)]
        out = op(*ts)
        if weights is None:
            weights = np.random.default_rng(3).standard_normal(out.shape)
        ad.sum_all(ad.mul(out, Tensor(weights))).backward()
        runs.append((out.data, [t.grad if t.requires_grad else None for t in ts]))
    (out, grads), (want_out, want_grads) = runs
    np.testing.assert_array_equal(out, want_out)
    for i, (a, b) in enumerate(zip(grads, want_grads)):
        if b is None:
            continue
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * np.abs(b).max(), err_msg=str(i))


FFN_SIZES = [(6,), (6, 10), (10,), (10, 5), (5,)]


@pytest.mark.parametrize("lead", [(7,), (3, 4)])
def test_ffn_matches_unfused_composition(lead):
    x, args = _fused_inputs(11, lead, FFN_SIZES)
    _assert_fused_matches_unfused(ad.ffn, unfused.ffn, x, args)
    # a constant input or weight gets no gradient, the others theirs
    _assert_fused_matches_unfused(ad.ffn, unfused.ffn, x, args, frozen=(0, 3))
    np.testing.assert_array_equal(ad.ffn(Tensor(x), *map(Tensor, args)).data,
                                  unfused.ffn(Tensor(x), *map(Tensor, args)).data)


@pytest.mark.parametrize("lead", [(4,), (2, 3)])
def test_ffn_fd(lead):
    x, args = _fused_inputs(13, lead, [(3,), (3, 4), (4,), (4, 2), (2,)])
    inputs = [x] + args
    pre = x.reshape(-1, 3) @ args[0] + args[1]
    assert np.abs(pre).min() > 1e-4  # finite differences stay off the relu kink

    def np_ffn(x, w1, b1, w2, b2):
        return np.maximum(x @ w1 + b1, 0.0) @ w2 + b2

    for i in range(5):
        def build(t, i=i):
            return ad.ffn(*[t if j == i else Tensor(a) for j, a in enumerate(inputs)])

        def f(v, i=i):
            return np_ffn(*[v if j == i else a for j, a in enumerate(inputs)])

        check_fd(_weighted(build), _weighted_np(f), inputs[i].copy())


LN_SIZES = [(6,), (6,), (6,)]


def _add_ln(x, a, gain, bias):
    return ad.add_layer_norm(x, a, gain, bias, 1e-6)


@pytest.mark.parametrize("lead", [(5,), (2, 4), (1,)])
def test_add_layer_norm_matches_unfused_composition(lead):
    x, (gain, bias) = _fused_inputs(17, lead, LN_SIZES)
    a = np.random.default_rng(19).uniform(-1.0, 1.0, size=x.shape)
    # the tape op's result is its plain-array forward, the row step's
    assert np.array_equal(_add_ln(*map(Tensor, (x, a, gain, bias))).data,
                          ad.add_layer_norm_forward(x, a, gain, bias, 1e-6)[2])
    _assert_fused_matches_unfused(_add_ln, unfused.add_layer_norm, x, [a, gain, bias])
    _assert_fused_matches_unfused(_add_ln, unfused.add_layer_norm, x, [a, gain, bias],
                                  frozen=(1, 2))


@pytest.mark.parametrize("lead", [(4,), (2, 3)])
def test_add_layer_norm_fd(lead):
    x, (gain, bias) = _fused_inputs(23, lead, [(5,), (5,), (5,)])
    a = np.random.default_rng(29).uniform(-1.0, 1.0, size=x.shape)
    inputs = [x, a, gain, bias]
    for i in range(4):
        def build(t, i=i):
            return _add_ln(*[t if j == i else Tensor(v) for j, v in enumerate(inputs)])

        def f(v, i=i):
            xs, av, g, b = [v if j == i else w for j, w in enumerate(inputs)]
            return _ln_np(xs + av, g, b)

        check_fd(_weighted(build), _weighted_np(f), inputs[i].copy())


def test_fused_sublayer_shape_errors():
    x, args = _fused_inputs(31, (4,), FFN_SIZES)
    with pytest.raises(ShapeError):
        ad.ffn(Tensor(x[:, :5]), *map(Tensor, args))
    with pytest.raises(ShapeError):
        ad.ffn(Tensor(x), *map(Tensor, args[:3]), Tensor(np.zeros(4)))
    with pytest.raises(ShapeError):
        ad.add_layer_norm(Tensor(x), Tensor(x[:3]), Tensor(np.ones(6)), Tensor(np.zeros(6)))
    with pytest.raises(ShapeError):
        ad.add_layer_norm(Tensor(x), Tensor(x), Tensor(np.ones(5)), Tensor(np.zeros(6)))


def test_dropout_semantics():
    x = Tensor(np.ones((50, 20)), requires_grad=True)
    out = ad.dropout(x, 0.5, np.random.default_rng(0), training=True)
    vals = np.unique(out.data)
    assert set(vals).issubset({0.0, 2.0})
    ad.sum_all(out).backward()
    np.testing.assert_array_equal(x.grad, (out.data > 0) * 2.0)
    same = ad.dropout(Tensor(np.ones(4)), 0.5, np.random.default_rng(0),
                      training=False)
    np.testing.assert_array_equal(same.data, np.ones(4))


def test_dropout_rejects_a_rate_outside_unit_interval():
    # checked before the not-training early return; rate 1 returned NaN rows
    x = Tensor(np.ones((3, 4)))
    for rate in (1.0, 1.5, -0.1, float("nan")):
        for training in (True, False):
            with pytest.raises(ValueError, match="dropout rate"):
                ad.dropout(x, rate, np.random.default_rng(0), training)


def test_second_backward_errors():
    x = Tensor(rand(3), requires_grad=True)
    loss = ad.sum_all(tanh(x))
    loss.backward()
    with pytest.raises(GraphError):
        loss.backward()


def test_gradients_accumulate_over_paths():
    x = Tensor(np.array([1.5]), requires_grad=True)
    y = ad.add(ad.mul(x, x), x)  # x^2 + x -> 2x + 1
    ad.sum_all(y).backward()
    np.testing.assert_allclose(x.grad, [4.0])


def test_disconnected_tensor_gets_no_gradient():
    x = Tensor(rand(3), requires_grad=True)
    other = Tensor(rand(3), requires_grad=True)
    ad.sum_all(ad.mul(x, Tensor(np.ones(3)))).backward()
    np.testing.assert_array_equal(other.grad, np.zeros(3))


def test_mixed_dtype_rejected():
    a = Tensor(rand(2, 2))
    b = Tensor(rand(2, 2).astype(np.float32))
    with pytest.raises(ShapeError):
        ad.add(a, b)


def test_float32_preserved():
    a = Tensor(rand(2, 3).astype(np.float32))
    b = Tensor(rand(2, 3).astype(np.float32))
    assert ad.add(a, b).dtype == np.float32


def test_op_result_custom_vjp():
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    out = ad.op_result(x.data * 3.0, (x,), lambda g: (g * 3.0,))
    ad.sum_all(out).backward()
    np.testing.assert_array_equal(x.grad, np.full(3, 3.0))


def test_sum_all():
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    loss = ad.sum_all(a)
    loss.backward()
    assert loss.item() == pytest.approx(3.0)
    np.testing.assert_allclose(a.grad, np.ones(2))


def test_only_leaves_keep_gradients():
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    w = Tensor(np.array([0.5, 0.5, 2.0]), requires_grad=True)
    h = ad.mul(x, w)
    y = relu(h)
    loss = ad.sum_all(ad.mul(y, y))
    assert h.requires_grad and y.requires_grad and loss.requires_grad
    loss.backward()
    assert h.grad is None and y.grad is None and loss.grad is None
    # d/dx sum(relu(x w)^2) = 2 relu(x w) w, and symmetrically for w
    relu_xw = np.maximum(x.data * w.data, 0.0)
    np.testing.assert_allclose(x.grad, 2.0 * relu_xw * w.data, rtol=1e-15)
    np.testing.assert_allclose(w.grad, 2.0 * relu_xw * x.data, rtol=1e-15)
    # an op none of whose inputs needs a gradient records no node
    const = ad.sum_all(relu(ad.mul(Tensor(x.data), Tensor(w.data))))
    assert const._ctx is None and not const.requires_grad


@pytest.mark.parametrize("d", [8, 16, 64, 128])
@pytest.mark.parametrize("n", [1, 2, 5, 16, 300])
def test_mean_lastdim_matches_numpy_mean_bitwise(n, d):
    x = np.random.default_rng(n * 1000 + d).standard_normal((n, d)) * 3.0 + 1.0
    assert np.array_equal(ad.mean_lastdim(x), x.mean(-1, keepdims=True))
    assert np.array_equal(ad.mean_lastdim(x[0]), x[0].mean(-1, keepdims=True))
