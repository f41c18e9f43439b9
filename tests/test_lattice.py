"""Lattice loss oracles: hand cases, path enumeration, finite differences,
probability conservation, batched against single-lattice kernel calls."""

import math
import tracemalloc

import numpy as np
import pytest

from satkit import autodiff as ad
from satkit.autodiff import Tensor
from satkit import kernels
from satkit.lattice import (JointNetwork, PosteriorLattice, forward_backward_arrays,
                            transducer_loss)
from satkit.nnet import glorot
from satkit.pathreg import ParConfig, build_path, joint_loss
from unfused import brute_force_loss, tape_loss, zero_grads
from unfused import joint_log_softmax as unfused_joint


def random_lattice(rng, t_len, u_len, k_size):
    logits = rng.standard_normal((t_len, u_len + 1, k_size)) * 2.0
    lp = logits - np.log(np.exp(logits).sum(-1, keepdims=True))
    targets = rng.integers(2, k_size, size=u_len) if u_len else np.empty(0, np.int64)
    return PosteriorLattice(Tensor(lp), targets)


def uniform_lattice(t_len, u_len, k_size):
    lp = np.full((t_len, u_len + 1, k_size), -math.log(k_size))
    targets = np.full(u_len, k_size - 1, dtype=np.int64)
    return PosteriorLattice(Tensor(lp), targets)


def test_single_blank_frame_hand_case():
    # T=1, U=0, uniform over 2 tokens: the only path is one blank, p = 1/2
    lat = uniform_lattice(1, 0, 2)
    assert transducer_loss(lat).item() == pytest.approx(math.log(2.0), rel=1e-12)


def test_two_frames_one_label_hand_case():
    # T=2, U=1, uniform over 4: two paths of three steps each, p = 2 * (1/4)^3
    lat = uniform_lattice(2, 1, 4)
    want = -math.log(2.0 * 0.25 ** 3)
    assert transducer_loss(lat).item() == pytest.approx(want, rel=1e-12)
    assert brute_force_loss(lat) == pytest.approx(want, rel=1e-12)


def test_uniform_path_count_formula():
    # Uniform K lattice: loss = -log(n_paths * K^-(T+U))
    for t_len, u_len, k in [(3, 2, 4), (4, 3, 3), (2, 0, 5)]:
        lat = uniform_lattice(t_len, u_len, k)
        n_paths = math.comb(t_len + u_len - 1, u_len)
        want = -(math.log(n_paths) - (t_len + u_len) * math.log(k))
        assert transducer_loss(lat).item() == pytest.approx(want, rel=1e-12)


def test_brute_force_equivalence():
    fb = kernels.forward_backward
    rng = np.random.default_rng(11)
    for _ in range(30):
        t_len = int(rng.integers(1, 5))
        u_len = int(rng.integers(0, 4))
        k = int(rng.integers(3, 5))
        lat = random_lattice(rng, t_len, u_len, k)
        loss, _, _, _ = fb(lat.log_probs.data, lat.targets)
        want = brute_force_loss(lat)
        assert abs(loss - want) <= 1e-10 * max(1.0, abs(want))


def test_brute_force_budget_guard():
    lat = uniform_lattice(40, 30, 3)
    with pytest.raises(ValueError):
        brute_force_loss(lat, max_paths=1000)


def test_gradient_matches_finite_differences():
    fb = kernels.forward_backward
    rng = np.random.default_rng(7)
    for _ in range(5):
        lat = random_lattice(rng, int(rng.integers(2, 5)), int(rng.integers(1, 4)), 4)
        lp = lat.log_probs.data
        _, grad, _, _ = fb(lp, lat.targets)
        eps = 1e-6
        for _ in range(12):
            t = int(rng.integers(lp.shape[0]))
            u = int(rng.integers(lp.shape[1]))
            k = int(rng.integers(lp.shape[2]))
            probe = lp.copy()
            probe[t, u, k] += eps
            hi, _, _, _ = fb(probe, lat.targets)
            probe[t, u, k] -= 2 * eps
            lo, _, _, _ = fb(probe, lat.targets)
            fd = (hi - lo) / (2 * eps)
            assert grad[t, u, k] == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_anti_diagonal_conservation():
    # sum over {t+u=n} of alpha+beta equals the total path mass for every n
    fb = kernels.forward_backward
    rng = np.random.default_rng(3)
    for _ in range(10):
        lat = random_lattice(rng, int(rng.integers(2, 6)), int(rng.integers(0, 4)), 5)
        loss, _, alpha, beta = fb(lat.log_probs.data, lat.targets)
        total = alpha + beta  # log alpha(t,u) + log beta(t,u)
        for n in range(lat.T + lat.U):
            cells = [total[t, n - t] for t in range(lat.T)
                     if 0 <= n - t <= lat.U]
            mass = np.logaddexp.reduce(cells)
            assert abs(mass - (-loss)) <= 1e-9


def test_transducer_loss_backward_applies_kernel_gradient():
    rng = np.random.default_rng(5)
    lat = random_lattice(rng, 3, 2, 4)
    lat.log_probs.requires_grad = True
    loss = transducer_loss(lat)
    loss.backward()
    _, grad, _, _ = forward_backward_arrays(lat)
    np.testing.assert_allclose(lat.log_probs.grad, grad, atol=1e-15)
    # chain rule through a scale: gradient doubles
    lat2 = random_lattice(rng, 3, 2, 4)
    lat2.log_probs.requires_grad = True
    ad.scale(transducer_loss(lat2), 2.0).backward()
    _, grad2, _, _ = forward_backward_arrays(lat2)
    np.testing.assert_allclose(lat2.log_probs.grad, 2.0 * grad2, atol=1e-15)


def test_tape_loss_cross_checks_kernel():
    # the same DP built from tape primitives: independent loss + gradient oracle
    rng = np.random.default_rng(9)
    for _ in range(5):
        lat = random_lattice(rng, int(rng.integers(2, 5)), int(rng.integers(1, 3)), 4)
        lat.log_probs.requires_grad = True
        ref = tape_loss(lat)
        ref.backward()
        tape_grad = lat.log_probs.grad.copy()
        loss, grad, _, _ = forward_backward_arrays(lat)
        assert ref.item() == pytest.approx(loss, rel=1e-12)
        np.testing.assert_allclose(tape_grad, grad, atol=1e-12)


def test_gradient_is_negative_posterior_mass():
    # rows of the gradient sum to -(posterior node mass); total over any
    # anti-diagonal is -1
    rng = np.random.default_rng(21)
    lat = random_lattice(rng, 4, 2, 5)
    _, grad, _, _ = forward_backward_arrays(lat)
    assert np.all(grad <= 1e-15)
    diag = [grad[t, n - t].sum() for n in [1] for t in range(min(4, n + 1)) if n - t <= 2]
    assert sum(diag) == pytest.approx(-1.0, abs=1e-9)


def test_empty_targets_lattice():
    rng = np.random.default_rng(2)
    lat = random_lattice(rng, 4, 0, 3)
    want = lat.log_probs.data[:, 0, 0].sum()
    assert transducer_loss(lat).item() == pytest.approx(-want, rel=1e-12)


def test_lattice_validation_errors():
    good = np.log(np.full((2, 2, 3), 1 / 3))
    with pytest.raises(ValueError):
        PosteriorLattice(Tensor(np.zeros((2, 3))), [1])
    with pytest.raises(ValueError):
        PosteriorLattice(Tensor(good), [1, 2])          # U mismatch
    with pytest.raises(ValueError):
        PosteriorLattice(Tensor(good), [0])             # blank as target
    with pytest.raises(ValueError):
        PosteriorLattice(Tensor(good), [1])             # SOS as target
    with pytest.raises(ValueError):
        PosteriorLattice(Tensor(good), [7])             # out of range
    bad = PosteriorLattice(Tensor(np.zeros((2, 2, 3))), [2])
    with pytest.raises(ValueError):
        bad.validate_normalized()
    with pytest.raises(ValueError):
        transducer_loss(bad)


def test_joint_network_grid():
    rng = np.random.default_rng(17)
    joint = JointNetwork(6, 6, 8, 5, rng)
    enc = Tensor(rng.standard_normal((4, 6)))
    pred = Tensor(rng.standard_normal((3, 6)))
    out = joint.log_probs(enc, pred)
    assert out.shape == (4, 3, 5)
    np.testing.assert_allclose(np.exp(out.data).sum(-1), 1.0, atol=1e-12)
    # grid equals the per-cell computation
    w_f = joint.params["joint.w_enc"].data
    w_g = joint.params["joint.w_pred"].data
    w_o = joint.params["joint.w_out"].data
    for t in range(4):
        for u in range(3):
            logits = np.tanh(enc.data[t] @ w_f + pred.data[u] @ w_g) @ w_o
            want = logits - np.log(np.exp(logits).sum())
            np.testing.assert_allclose(out.data[t, u], want, atol=1e-12)


def test_joint_concat_equals_explicit_concatenation():
    # the two column blocks act exactly like one matrix on [f; g]
    rng = np.random.default_rng(19)
    joint = JointNetwork(4, 3, 6, 5, rng)
    f = rng.standard_normal(4)
    g = rng.standard_normal(3)
    w_in = np.vstack([joint.params["joint.w_enc"].data,
                      joint.params["joint.w_pred"].data])
    lhs = f @ joint.params["joint.w_enc"].data + g @ joint.params["joint.w_pred"].data
    np.testing.assert_allclose(lhs, np.concatenate([f, g]) @ w_in, atol=1e-15)


def test_joint_draws_its_weights_in_the_checkpoint_order():
    # the rng draw order and the params order are the checkpoint's, and
    # params maps each name to the attribute every path reads
    joint = JointNetwork(4, 3, 6, 5, np.random.default_rng(29))
    assert list(joint.params) == ["joint.w_enc", "joint.w_pred", "joint.w_out"]
    assert all(a is p for a, p in zip((joint.w_enc, joint.w_pred, joint.w_out),
                                      joint.params.values()))
    rng = np.random.default_rng(29)
    for w, want in ((joint.w_enc, glorot(rng, 7, 6, rows=4)),
                    (joint.w_pred, glorot(rng, 7, 6, rows=3)), (joint.w_out, glorot(rng, 6, 5))):
        assert w.requires_grad and np.array_equal(w.data, want.data)


def test_joint_row_step_is_the_shared_forward():
    # (frame, state) pairs scored alone: the shared forward on a 4-row tile,
    # and the tape op's cells of a 4 x 4 grid, bit for bit (a 4-row product
    # gives each row the bits it has in any product of a multiple of 4 rows)
    rng = np.random.default_rng(31)
    joint = JointNetwork(6, 6, 8, 5, rng)
    step = joint.row_step(1)
    w_f, w_g, w_o = joint.w_enc.data, joint.w_pred.data, joint.w_out.data
    for _ in range(5):
        enc, pred = rng.standard_normal((4, 6)), rng.standard_normal((4, 6))
        cells = joint.log_probs(Tensor(enc), Tensor(pred)).data
        for t, u in np.ndindex(4, 4):
            f, g = step.f_parts(enc[t][None])[0], step.g_parts(pred[u][None])[0]
            np.testing.assert_array_equal(f, (enc @ w_f)[t])
            np.testing.assert_array_equal(g, (pred @ w_g)[u])
            got = step.log_probs(f, g[None])[0]
            assert got.shape == (5,)
            tile = np.zeros((4, 8))
            tile[0] = g
            np.testing.assert_array_equal(got, ad.joint_forward(f, tile, w_o)[0])
            np.testing.assert_array_equal(got, cells[t, u])


def test_joint_row_steps_of_many_rows_keep_each_rows_bits():
    # m frames or states projected in one call, and one frame scored against
    # m states in one call, give each row its bits alone
    rng = np.random.default_rng(32)
    joint = JointNetwork(6, 6, 8, 5, rng)
    step, one = joint.row_step(9), joint.row_step(1)
    for m in (*range(1, 10), 70):
        enc, pred = rng.standard_normal((m, 6)), rng.standard_normal((m, 6))
        f = step.f_parts(enc)
        assert all(np.array_equal(f[i], one.f_parts(enc[i][None])[0]) for i in range(m))
        if m > 9:
            continue
        g = step.g_parts(pred)
        assert all(np.array_equal(g[i], one.g_parts(pred[i][None])[0]) for i in range(m))
        got = step.log_probs(f[0], g)
        assert got.shape == (m, 5)
        assert all(np.array_equal(got[i], one.log_probs(f[0], g[i][None])[0])
                   for i in range(m))


@pytest.mark.parametrize("widths", [(6, 8, 5), (64, 64, 19)])
def test_joint_frame_rows_follow_the_four_row_rule(widths):
    # m frames scored against one state in one call give each frame the bits
    # of its own one-frame call, whatever m; (64, 64, 19) are the decode
    # fixture's encoder width, joint width and vocabulary
    d, J, K = widths
    rng = np.random.default_rng(33)
    joint = JointNetwork(d, d, J, K, rng)
    step, one = joint.row_step(64), joint.row_step(1)
    for m in (*range(1, 10), 64):
        f = step.f_parts(rng.standard_normal((m, d)))
        g = one.g_parts(rng.standard_normal((1, d)))[0]
        got = step.frame_log_probs(f, g)
        assert got.shape == (m, K)
        for i in range(m):
            np.testing.assert_array_equal(got[i], one.log_probs(f[i], g[None])[0])


def test_joint_rejects_wrong_widths():
    rng = np.random.default_rng(29)
    joint = JointNetwork(6, 6, 8, 5, rng)
    with pytest.raises(ad.ShapeError):
        joint.log_probs(Tensor(rng.standard_normal((4, 7))),
                        Tensor(rng.standard_normal((3, 6))))


def random_batch(rng, lengths, k_size, pad=None):
    """Padded (B, T_max, U_max+1, K) batch of random lattices, plus each
    utterance's own lattice. The padding holds ``pad``, or normalized junk."""
    t_max = max(t for t, _ in lengths)
    u_max = max(u for _, u in lengths)
    logits = rng.standard_normal((len(lengths), t_max, u_max + 1, k_size)) * 2.0
    grid = logits - np.log(np.exp(logits).sum(-1, keepdims=True))
    if pad is not None:
        grid[:] = pad
    singles = []
    for b, (t, u) in enumerate(lengths):
        singles.append(random_lattice(rng, t, u, k_size))
        grid[b, :t, :u + 1] = singles[-1].log_probs.data
    return grid, singles


def test_batched_kernel_matches_per_utterance_calls():
    fb = kernels.forward_backward
    rng = np.random.default_rng(31)
    shapes = [[(1, 0)], [(1, 0), (3, 2)], [(1, 3), (4, 0), (2, 2)], [(5, 4)]]
    for _ in range(12):
        b = int(rng.integers(1, 5))
        shapes.append([(int(rng.integers(1, 8)), int(rng.integers(0, 6))) for _ in range(b)])
    for i, lengths in enumerate(shapes):
        # a kernel never reads the padding: not even a NaN there leaks out
        grid, singles = random_batch(rng, lengths, 5, pad=np.nan if i % 2 else None)
        targets = [lat.targets for lat in singles]
        t_len = np.array([t for t, _ in lengths])
        u_len = np.array([u for _, u in lengths])
        loss, grad, alpha, beta = fb(grid, targets, t_len, u_len)
        assert loss.shape == (len(lengths),)
        for b, ((t, u), lat) in enumerate(zip(lengths, singles)):
            want = fb(lat.log_probs.data, lat.targets)
            assert loss[b] == pytest.approx(want[0], rel=1e-12)
            np.testing.assert_allclose(grad[b, :t, :u + 1], want[1], atol=1e-12)
            np.testing.assert_allclose(alpha[b, :t, :u + 1], want[2], atol=1e-10)
            np.testing.assert_allclose(beta[b, :t, :u + 1], want[3], atol=1e-10)
            # padding: no gradient, impossible in both tables
            pad = np.ones(grid.shape[1:3], dtype=bool)
            pad[:t, :u + 1] = False
            assert not grad[b][pad].any()
            assert np.all(alpha[b][pad] == ad.LOG_ZERO)
            assert np.all(beta[b][pad] == ad.LOG_ZERO)


def test_batched_lattice_loss_is_per_utterance():
    rng = np.random.default_rng(37)
    lengths = [(3, 2), (1, 0), (4, 1)]
    grid, singles = random_batch(rng, lengths, 4)
    lat = PosteriorLattice(Tensor(grid, requires_grad=True),
                           [s.targets for s in singles], [t for t, _ in lengths])
    loss = transducer_loss(lat)
    assert loss.shape == (3,)
    ad.sum_all(ad.scale(loss, 2.0)).backward()
    for b, ((t, u), single) in enumerate(zip(lengths, singles)):
        single.log_probs.requires_grad = True
        one = transducer_loss(single)
        assert loss.data[b] == pytest.approx(one.item(), rel=1e-12)
        ad.scale(one, 2.0).backward()
        np.testing.assert_allclose(lat.log_probs.grad[b, :t, :u + 1],
                                   single.log_probs.grad, atol=1e-12)
    with pytest.raises(ValueError):
        PosteriorLattice(Tensor(grid), [s.targets for s in singles], [3, 1])
    with pytest.raises(ValueError):
        PosteriorLattice(Tensor(grid), [s.targets for s in singles], [3, 0, 4])
    with pytest.raises(ValueError):
        PosteriorLattice(Tensor(grid), [[2, 3, 2], [], [2]], [3, 1, 4])


def test_kernel_entry_rejects_bad_inputs():
    rng = np.random.default_rng(41)
    grid, singles = random_batch(rng, [(3, 2), (2, 1)], 5)
    targets = [s.targets for s in singles]
    t_len, u_len = np.array([3, 2]), np.array([2, 1])
    one = singles[0].log_probs.data
    fb = kernels.forward_backward
    loss, _, _, _ = fb(grid, targets, t_len, u_len)
    assert loss.shape == (2,)
    cases = [
        ("C-contiguous float64", lambda: fb(grid.astype(np.float32), targets, t_len, u_len)),
        ("C-contiguous float64", lambda: fb(np.asfortranarray(one), singles[0].targets)),
        ("C-contiguous float64", lambda: fb(one.tolist(), singles[0].targets)),
        ("expects", lambda: fb(one[0], singles[0].targets)),
        ("lengths belong", lambda: fb(one, singles[0].targets, [3], [2])),
        ("needs t_lengths", lambda: fb(grid, targets)),
        ("t_lengths must be", lambda: fb(grid, targets, np.array([3]), u_len)),
        ("u_lengths must be", lambda: fb(grid, targets, t_len, np.array([2.0, 1.0]))),
        ("frame counts", lambda: fb(grid, targets, np.array([0, 2]), u_len)),
        ("frame counts", lambda: fb(grid, targets, np.array([3, 4]), u_len)),
        ("target counts", lambda: fb(grid, targets, t_len, np.array([3, 1]))),
        ("target counts", lambda: fb(grid, targets, t_len, np.array([2, -1]))),
        ("target sequences", lambda: fb(grid, targets[:1], t_len, u_len)),
        ("targets for a lattice", lambda: fb(grid, [targets[0], targets[0]], t_len, u_len)),
        ("1-D integer", lambda: fb(grid, [targets[0].astype(float), targets[1]], t_len, u_len)),
        ("lie in", lambda: fb(grid, [np.array([2, 0]), targets[1]], t_len, u_len)),
        ("lie in", lambda: fb(grid, [targets[0], np.array([5])], t_len, u_len)),
        ("targets for a lattice", lambda: fb(one, singles[0].targets[:1])),
        ("lie in", lambda: fb(one, np.array([2, 9]))),
        ("at least one time frame", lambda: fb(np.zeros((0, 3, 5)), np.array([2, 3]))),
    ]
    for message, call in cases:
        with pytest.raises(ValueError, match=message):
            call()


def test_batch_lattice_dimensions_and_single_utterance_oracles():
    rng = np.random.default_rng(43)
    grid, singles = random_batch(rng, [(3, 2), (2, 1)], 5)
    lat = PosteriorLattice(Tensor(grid), [s.targets for s in singles], [3, 2])
    assert (lat.T, lat.U, lat.K) == (3, 2, 5)
    one = singles[0]
    assert (one.T, one.U, one.K) == (3, 2, 5)
    for oracle in (brute_force_loss, tape_loss):
        with pytest.raises(ValueError, match="batch"):
            oracle(lat)


def _joint_grads(joint, enc, pred, log_probs_fn, weights):
    for p in joint.params.values():
        p.requires_grad = True
    zero_grads(joint.params)
    te, tp = Tensor(enc, requires_grad=True), Tensor(pred, requires_grad=True)
    out = log_probs_fn(te, tp)
    ad.sum_all(ad.mul(out, Tensor(weights))).backward()
    grads = {k: p.grad.copy() for k, p in joint.params.items()}
    return out.data, dict(grads, enc=te.grad, pred=tp.grad)


def test_joint_network_matches_unfused_composition():
    rng = np.random.default_rng(47)
    joint = JointNetwork(6, 6, 8, 5, rng)
    enc, pred = rng.standard_normal((2, 7, 6)), rng.standard_normal((2, 4, 6))
    weights = rng.standard_normal((2, 7, 4, 5))

    def oracle(e, p):
        return unfused_joint(ad.matmul(e, joint.w_enc), ad.matmul(p, joint.w_pred), joint.w_out)

    got, got_grads = _joint_grads(joint, enc, pred, joint.log_probs, weights)
    want, want_grads = _joint_grads(joint, enc, pred, oracle, weights)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)
    assert got_grads.keys() == want_grads.keys()
    for name, w in want_grads.items():
        np.testing.assert_allclose(got_grads[name], w, rtol=1e-12,
                                   atol=1e-12 * np.abs(w).max(), err_msg=name)


def _joint_and_loss_peak(beta):
    """tracemalloc peak of joint plus loss, forward and backward, at a long
    training shape, in float64 (B, T, U+1, J) grids; beta > 0 adds the path
    regularizer with detached weights."""
    B, T, U, K, J = 2, 230, 50, 19, 64
    rng = np.random.default_rng(53)
    joint = JointNetwork(J, J, J, K, rng)
    for p in joint.params.values():
        p.requires_grad = True
    enc = Tensor(rng.standard_normal((B, T, J)), requires_grad=True)
    pred = Tensor(rng.standard_normal((B, U + 1, J)), requires_grad=True)
    targets = [rng.integers(2, K, size=U), rng.integers(2, K, size=U - 7)]
    lengths = [T, T - 20]
    paths = []
    for y, t_len in zip(targets, lengths):
        ali = np.zeros(t_len, dtype=np.int64)
        ali[np.sort(rng.choice(t_len, size=len(y), replace=False))] = y
        paths.append(build_path(ali, y))
    tracemalloc.start()
    try:
        lat = joint.lattice(enc, pred, targets, lengths)
        ad.sum_all(joint_loss(lat, paths, ParConfig(beta=beta))).backward()
        del lat
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, B * T * (U + 1) * J * 8


def test_joint_and_loss_peak_memory():
    # joint plus transducer loss, forward and backward, at a long training
    # shape: at most 2.25 float64 (B, T, U+1, J) grids live at once
    peak, grid = _joint_and_loss_peak(0.0)
    assert peak <= 2.25 * grid, (peak / 2**20, peak / grid)


def test_regularized_joint_and_loss_peak_memory():
    # the path regularizer adds into the kernel's own gradient: no further
    # grid-sized array lives, so the peak stays under 2 grids
    peak, grid = _joint_and_loss_peak(10.0)
    assert peak <= 2.0 * grid, (peak / 2**20, peak / grid)


# The anti-diagonal kernel as it was before its transitions were masked:
# each step combines the two moves with an absorbing log-add and keeps
# LOG_ZERO outside the utterance by an explicit select. Reference for the
# masked kernel.
LOG_ZERO_GUARD = -1.0e29


def _reference_logadd(a, b):
    m = np.maximum(a, b)
    out = m + np.log1p(np.exp(np.minimum(a, b) - m))
    return np.where(m <= LOG_ZERO_GUARD, ad.LOG_ZERO, out)


def reference_batch(lp, targets, t_len, u_len):
    LOG_ZERO = ad.LOG_ZERO
    B, T, U1, _ = lp.shape
    U = U1 - 1
    bs = np.arange(B)
    y = np.zeros((B, U), dtype=np.int64)
    for b in range(B):
        y[b, :u_len[b]] = targets[b]
    t_idx, u_idx = np.arange(T), np.arange(U1)
    valid = (t_idx[None, :, None] < t_len[:, None, None]) & (u_idx[None, None, :] <= u_len[:, None, None])

    lp_blank = lp[:, :, :, 0]
    lpl_pad = np.full((B, T, U1), LOG_ZERO)
    lp_label = lp[bs[:, None, None], t_idx[None, :, None], u_idx[None, None, :U], y[:, None, :]]
    has_label = u_idx[None, None, :U] < u_len[:, None, None]
    lpl_pad[:, :, :U] = np.where(has_label, lp_label, LOG_ZERO)

    n_diag = T + U
    skew_t = np.arange(n_diag)[:, None] - u_idx[None, :]
    on_grid = (skew_t >= 0) & (skew_t < T)
    at_t = np.clip(skew_t, 0, T - 1)

    def skew(table, fill):
        return np.where(on_grid, table[:, at_t, u_idx[None, :]], fill)

    ok = skew(valid, False)
    lpb_s, lpl_s = skew(lp_blank, LOG_ZERO), skew(lpl_pad, LOG_ZERO)

    alpha_s = np.full((B, n_diag, U1), LOG_ZERO)
    alpha_s[:, 0, 0] = 0.0
    from_label = np.full((B, U1), LOG_ZERO)
    for n in range(1, n_diag):
        prev = alpha_s[:, n - 1]
        from_blank = prev + lpb_s[:, n - 1]
        from_label[:, 1:] = (prev + lpl_s[:, n - 1])[:, :U]
        alpha_s[:, n] = np.where(ok[:, n], _reference_logadd(from_blank, from_label), LOG_ZERO)

    beta_s = np.full((B, n_diag + 1, U1 + 1), LOG_ZERO)
    beta_s[bs, t_len + u_len, u_len] = 0.0
    for n in range(n_diag - 1, -1, -1):
        below = beta_s[:, n + 1]
        beta_s[:, n, :U1] = np.where(ok[:, n], _reference_logadd(
            below[:, :U1] + lpb_s[:, n],
            below[:, 1:] + lpl_s[:, n],
        ), beta_s[:, n, :U1])

    diag = t_idx[:, None] + u_idx[None, :]
    alpha = alpha_s[:, diag, u_idx]
    beta = np.where(valid, beta_s[:, diag, u_idx], LOG_ZERO)
    beta_down = beta_s[:, diag + 1, u_idx]

    last_t = t_len - 1
    loss = -(alpha[bs, last_t, u_len] + lp_blank[bs, last_t, u_len])
    log_like = beta[:, 0, 0][:, None, None]

    grad = np.zeros_like(lp)
    occ_blank = np.exp(alpha + lp_blank + beta_down - log_like)
    grad[:, :, :, 0] = np.where(valid, -occ_blank, 0.0)
    if U:
        occ_label = np.exp(alpha[:, :, :U] + lp_label + beta[:, :, 1:] - log_like)
        b, t, u = np.nonzero(valid[:, :, :U] & has_label)
        grad[b, t, u, y[b, u]] = -occ_label[b, t, u]
    return loss, grad, alpha, beta


def test_masked_kernel_matches_reference_recurrence():
    rng = np.random.default_rng(59)
    shapes = [[(1, 0)], [(6, 0), (1, 4)], [(9, 3), (2, 7), (9, 7), (5, 0)]]
    for _ in range(10):
        b = int(rng.integers(1, 6))
        shapes.append([(int(rng.integers(1, 12)), int(rng.integers(0, 9))) for _ in range(b)])
    for lengths in shapes:
        grid, singles = random_batch(rng, lengths, 6, pad=np.nan)
        targets = [lat.targets for lat in singles]
        t_len = np.array([t for t, _ in lengths])
        u_len = np.array([u for _, u in lengths])
        got = kernels.forward_backward(grid, targets, t_len, u_len)
        want = reference_batch(grid, targets, t_len, u_len)
        for name, a, b in zip(("loss", "grad", "alpha", "beta"), got, want):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12, err_msg=name)
        loss, grad, alpha, beta = got
        assert np.all(np.isfinite(loss))
        for b, (t, u) in enumerate(lengths):
            pad = np.ones(grid.shape[1:3], dtype=bool)
            pad[:t, :u + 1] = False
            assert not grad[b][pad].any()
            assert np.all(alpha[b][pad] == ad.LOG_ZERO)
            assert np.all(beta[b][pad] == ad.LOG_ZERO)
