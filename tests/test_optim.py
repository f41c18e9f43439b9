"""Optimizer arithmetic oracles and schedule behavior."""

import numpy as np
import pytest

import unfused
from satkit import autodiff as ad
from satkit.autodiff import Tensor
from satkit.optim import _TILE, NoamWarmup, SGDMomentum, noam_lr


def test_noam_closed_form():
    # factor * d_m^-0.5 * min(t^-0.5, t * warmup^-1.5)
    want = 0.5 * 512 ** -0.5 * 8000 ** -0.5
    assert noam_lr(8000, 0.5, 8000, 512) == pytest.approx(want, rel=1e-12)
    assert want == pytest.approx(2.4705e-4, rel=1e-4)
    assert noam_lr(1, 0.5, 8000, 512) == pytest.approx(
        0.5 * 512 ** -0.5 * 8000 ** -1.5, rel=1e-12)


def test_noam_is_continuous_and_peaks_at_warmup():
    w = 200
    lrs = [noam_lr(t, 1.0, w, 64) for t in range(1, 4 * w)]
    peak = int(np.argmax(lrs)) + 1
    assert peak == w
    # both branches agree exactly at the warmup step
    assert w * w ** -1.5 == pytest.approx(w ** -0.5, rel=1e-12)
    assert all(a < b for a, b in zip(lrs[: w - 1], lrs[1:w]))
    assert all(a > b for a, b in zip(lrs[w - 1 : -1], lrs[w:]))


def test_noam_rejects_step_zero():
    with pytest.raises(ValueError):
        noam_lr(0, 0.5, 8000, 512)


def test_noam_rejects_warmup_below_one_when_built():
    # not only at the first step, where 0 ** -1.5 raised and a negative
    # warmup gave a complex learning rate
    for steps in (0, -5):
        with pytest.raises(ValueError, match="warmup steps"):
            NoamWarmup({"w": _param([1.0])}, warmup_steps=steps)


def _param(val):
    t = Tensor(np.array(val, dtype=np.float64), requires_grad=True)
    return t


def test_sgd_momentum_hand_arithmetic():
    p = _param([1.0, 2.0])
    opt = SGDMomentum({"w": p}, lr=0.1, momentum=0.9)
    p.grad[...] = np.array([1.0, -2.0])
    opt.step()
    # v = g; p -= lr * v
    np.testing.assert_allclose(p.data, [0.9, 2.2], atol=1e-15)
    p.grad[...] = np.array([0.5, 0.5])
    opt.step()
    # v = 0.9 * [1, -2] + [0.5, 0.5] = [1.4, -1.3]
    np.testing.assert_allclose(p.data, [0.9 - 0.14, 2.2 + 0.13], atol=1e-15)


def test_sgd_halving_schedule():
    opt = SGDMomentum({"w": _param([0.0])}, lr=0.8, halving_patience=1,
                      min_lr=0.2)
    assert opt.report_dev(0.5) is True
    assert opt.lr == 0.8
    # three epochs without improvement at patience 1 -> at least two halvings
    opt.report_dev(0.6)
    assert opt.lr == 0.4
    opt.report_dev(0.6)
    assert opt.lr == 0.2
    assert not opt.should_stop
    opt.report_dev(0.6)
    assert opt.lr == 0.2  # floored
    assert opt.should_stop
    # an improvement resets the bad-epoch counter
    opt2 = SGDMomentum({"w": _param([0.0])}, lr=0.8, halving_patience=2)
    opt2.report_dev(0.5)
    opt2.report_dev(0.6)
    opt2.report_dev(0.4)
    opt2.report_dev(0.6)
    assert opt2.lr == 0.8


def test_sgd_state_round_trip():
    rng = np.random.default_rng(0)
    p1 = _param(rng.standard_normal(4))
    opt1 = SGDMomentum({"w": p1}, lr=0.05)
    for _ in range(3):
        p1.grad[...] = rng.standard_normal(4)
        opt1.step()
    meta, arrays = opt1.state_dict()
    saved = p1.data.copy()
    next_grad = rng.standard_normal(4)
    p1.grad[...] = next_grad.copy()
    opt1.step()

    p2 = _param(saved)
    opt2 = SGDMomentum({"w": p2}, lr=0.05)
    opt2.load_state_dict(meta, arrays)
    p2.grad[...] = next_grad.copy()
    opt2.step()
    np.testing.assert_array_equal(p2.data, p1.data)
    assert opt2.step_count == opt1.step_count


def test_noam_adaptive_hand_step():
    p = _param([2.0])
    opt = NoamWarmup({"w": p}, lr_factor=1.0, warmup_steps=100, d_m=4)
    g = np.array([0.5])
    p.grad[...] = g.copy()
    opt.step()
    lr = noam_lr(1, 1.0, 100, 4)
    m = 0.1 * g
    v = 0.02 * g * g
    mhat = m / (1 - 0.9)
    vhat = v / (1 - 0.98)
    want = 2.0 - lr * mhat / (np.sqrt(vhat) + 1e-9)
    np.testing.assert_allclose(p.data, want, atol=1e-15)


def test_noam_plain_step():
    p = _param([2.0])
    opt = NoamWarmup({"w": p}, lr_factor=1.0, warmup_steps=100, d_m=4,
                     adaptive=False)
    p.grad[...] = np.array([0.5])
    opt.step()
    np.testing.assert_allclose(p.data, 2.0 - noam_lr(1, 1.0, 100, 4) * 0.5,
                               atol=1e-15)


def test_noam_state_round_trip():
    rng = np.random.default_rng(1)
    p1 = _param(rng.standard_normal(3))
    opt1 = NoamWarmup({"w": p1}, lr_factor=0.5, warmup_steps=50, d_m=8)
    for _ in range(4):
        p1.grad[...] = rng.standard_normal(3)
        opt1.step()
    meta, arrays = opt1.state_dict()
    saved = p1.data.copy()
    g = rng.standard_normal(3)
    p1.grad[...] = g.copy()
    opt1.step()

    p2 = _param(saved)
    opt2 = NoamWarmup({"w": p2}, lr_factor=0.5, warmup_steps=50, d_m=8)
    opt2.load_state_dict(meta, arrays)
    p2.grad[...] = g.copy()
    opt2.step()
    np.testing.assert_array_equal(p2.data, p1.data)


def test_sorted_name_iteration_is_deterministic():
    # assembling the dict in different orders must not change the result
    rng = np.random.default_rng(2)
    vals = {n: rng.standard_normal(2) for n in ("a", "b", "c")}
    grads = {n: rng.standard_normal(2) for n in vals}

    def run(names):
        ps = {n: _param(vals[n].copy()) for n in names}
        opt = SGDMomentum(ps, lr=0.1)
        for n in names:
            ps[n].grad[...] = grads[n].copy()
        opt.step()
        return {n: ps[n].data.copy() for n in names}

    fwd = run(["a", "b", "c"])
    rev = run(["c", "b", "a"])
    for n in vals:
        np.testing.assert_array_equal(fwd[n], rev[n])


def _params(seed, shapes):
    rng = np.random.default_rng(seed)
    return {n: _param(rng.standard_normal(s)) for n, s in shapes.items()}


# a scalar-like row, odd sizes that leave slot padding, and one parameter
# larger than an update tile, so the arena spans several tiles
SHAPES = {"b.w": (3, 5), "a.g": (1,), "c.big": (_TILE + 77,), "a.b": (7,)}


def test_arena_layout_and_views():
    params = _params(3, SHAPES)
    before = {n: p.data.copy() for n, p in params.items()}
    arena = ad.ParamArena(params)
    assert list(arena.slots) == sorted(SHAPES)
    starts = [s.start for s in arena.slots.values()]
    assert starts == sorted(starts)
    for name, p in params.items():
        for flat, view in ((arena.data, p.data), (arena.grad, p.grad)):
            assert np.shares_memory(view, flat) and view.shape == SHAPES[name]
            assert view.ctypes.data % 64 == 0
        np.testing.assert_array_equal(p.data, before[name])
    used = np.zeros(arena.size, dtype=bool)
    for s in arena.slots.values():
        used[s] = True
    assert not arena.data[~used].any() and not arena.grad.any()
    with pytest.raises(ValueError):
        ad.ParamArena({"x": Tensor(np.zeros(2))})  # not trainable


@pytest.mark.parametrize("kind", ["sgd", "noam", "noam-plain"])
def test_arena_updates_match_per_parameter_loop_bitwise(kind):
    runs = []
    for oracle in (False, True):
        params = _params(5, SHAPES)
        if kind == "sgd":
            opt = SGDMomentum(params, lr=0.05, momentum=0.9)
            state = [{n: np.zeros_like(p.data) for n, p in params.items()}]
        else:
            opt = NoamWarmup(params, lr_factor=1.0, warmup_steps=3, d_m=8,
                             adaptive=kind == "noam")
            state = [{n: np.zeros_like(p.data) for n, p in params.items()} for _ in range(2)]
        rng = np.random.default_rng(9)
        for _ in range(4):
            opt.zero_grad()
            for name in sorted(params):
                params[name].grad += rng.standard_normal(SHAPES[name])
            if not oracle:
                opt.step()
            elif kind == "sgd":
                unfused.sgd_step(params, state[0], opt.lr, opt.momentum)
            else:
                opt.step_count += 1
                unfused.noam_step(params, *state, opt.lr, opt.step_count,
                                  adaptive=kind == "noam")
        runs.append({n: p.data.copy() for n, p in params.items()})
    for name in SHAPES:
        np.testing.assert_array_equal(runs[0][name], runs[1][name], err_msg=name)


def test_zero_grad_is_one_fill_of_the_arena():
    params = _params(7, SHAPES)
    opt = SGDMomentum(params)
    for p in params.values():
        p.grad += 1.0
    opt.zero_grad()
    assert not opt.arena.grad.any()
    assert all(np.shares_memory(p.grad, opt.arena.grad) for p in params.values())
