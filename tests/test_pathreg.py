"""Alignment path construction and the path-weighted regularizer."""

import numpy as np
import pytest

from satkit import autodiff as ad
from satkit.autodiff import Tensor
from satkit.lattice import PosteriorLattice, transducer_loss
from satkit.pathreg import (AlignmentMismatch, ParConfig, build_path,
                            joint_loss, par_loss)
import unfused

PHI = 0  # blank id
A, B = 2, 3


def test_build_path_hand_case():
    # alignment [blank, a, blank, b, blank] against targets [a, b]
    path = build_path([PHI, A, PHI, B, PHI], [A, B])
    assert path.triples == (
        (0, 0, PHI), (1, 0, A), (1, 1, PHI), (2, 1, PHI),
        (3, 1, B), (3, 2, PHI), (4, 2, PHI))
    assert len(path) == 5 + 2
    assert tuple(tr for tr in path.triples if tr[2] != PHI) == ((1, 0, A), (3, 1, B))


def test_build_path_all_blank():
    path = build_path([PHI] * 4, [])
    assert path.triples == tuple((t, 0, PHI) for t in range(4))


def test_build_path_single_frame_emission():
    path = build_path([A], [A])
    assert path.triples == ((0, 0, A), (0, 1, PHI))


def test_build_path_length_is_frames_plus_labels():
    rng = np.random.default_rng(0)
    for _ in range(20):
        targets = list(rng.integers(2, 6, size=rng.integers(0, 5)))
        ali = []
        for tok in targets:
            ali += [PHI] * int(rng.integers(0, 3)) + [tok]
        ali += [PHI] * int(rng.integers(1, 3))
        path = build_path(ali, targets)
        assert len(path) == len(ali) + len(targets)
        assert path.triples[-1] == (len(ali) - 1, len(targets), PHI)
        assert [k for (_, _, k) in path.triples if k != PHI] == targets


def test_build_path_mismatch_errors():
    with pytest.raises(AlignmentMismatch, match="frame 1"):
        build_path([PHI, B, PHI], [A])          # wrong token
    with pytest.raises(AlignmentMismatch, match="end of targets"):
        build_path([A, B], [A])                 # extra label
    with pytest.raises(AlignmentMismatch, match="emitted 1 labels"):
        build_path([A, PHI], [A, B])            # missing label


def _lattice(rng, t_len, u_len, k=5):
    logits = rng.standard_normal((t_len, u_len + 1, k))
    lp = logits - np.log(np.exp(logits).sum(-1, keepdims=True))
    targets = rng.integers(2, k, size=u_len)
    return PosteriorLattice(Tensor(lp), targets)


def _path_for(lat, rng):
    y = list(lat.targets)
    t_len = lat.T
    # spread the labels over distinct frames, blanks elsewhere
    frames = sorted(rng.choice(t_len, size=len(y), replace=False))
    ali = [PHI] * t_len
    for f, tok in zip(frames, y):
        ali[f] = int(tok)
    return build_path(ali, y)


def test_par_loss_scripted_oracle():
    rng = np.random.default_rng(1)
    for _ in range(10):
        u_len = int(rng.integers(1, 4))
        lat = _lattice(rng, int(rng.integers(u_len, 7)), u_len)
        path = _path_for(lat, rng)
        lp = lat.log_probs.data
        want = -sum((1.0 - np.exp(lp[t, u, PHI])) * lp[t, u, k]
                    for (t, u, k) in path.triples)
        got = par_loss(lat, path).item()
        assert got == pytest.approx(want, rel=1e-12)


def test_par_loss_perfect_path_is_zero():
    # probability one on every path target -> every log term is zero
    y = [A, B]
    ali = [A, PHI, B]
    path = build_path(ali, y)
    eps_row = np.full(5, -745.0)  # exp() underflows to 0
    lp = np.tile(eps_row, (3, 3, 1))
    for (t, u, k) in path.triples:
        lp[t, u] = eps_row
        lp[t, u, k] = 0.0
    lat = PosteriorLattice(Tensor(lp), y)
    assert par_loss(lat, path).item() == pytest.approx(0.0, abs=1e-12)


def test_par_loss_certain_blank_contributes_nothing():
    # p(blank) = 1 at one path node -> w = 0 there, regardless of target
    rng = np.random.default_rng(2)
    lat = _lattice(rng, 3, 1)
    path = _path_for(lat, rng)
    lp = lat.log_probs.data.copy()
    t, u, k = [tr for tr in path.triples if tr[2] != PHI][0]
    row = np.full(lat.K, -745.0)
    row[PHI] = 0.0
    lp[t, u] = row
    lat2 = PosteriorLattice(Tensor(lp), lat.targets)
    base_terms = [
        -(1.0 - np.exp(lp[tt, uu, PHI])) * lp[tt, uu, kk]
        for (tt, uu, kk) in path.triples if (tt, uu) != (t, u)]
    assert par_loss(lat2, path).item() == pytest.approx(sum(base_terms), rel=1e-12)


def test_detached_weight_gradient():
    # with the weight detached, d/d lp is -w on target entries (plus nothing
    # through w); with it attached, the blank entries pick up an extra term
    rng = np.random.default_rng(4)
    lat = _lattice(rng, 3, 2)
    path = _path_for(lat, rng)
    lat.log_probs.requires_grad = True
    par_loss(lat, path, ParConfig(detach_weight=True)).backward()
    grad = lat.log_probs.grad.copy()
    lp = lat.log_probs.data
    want = np.zeros_like(grad)
    for (t, u, k) in path.triples:
        want[t, u, k] -= 1.0 - np.exp(lp[t, u, PHI])
    np.testing.assert_allclose(grad, want, atol=1e-12)


def test_attached_weight_matches_finite_differences():
    rng = np.random.default_rng(5)
    lat = _lattice(rng, 3, 1, k=4)
    path = _path_for(lat, rng)
    cfg = ParConfig(detach_weight=False)
    lat.log_probs.requires_grad = True
    par_loss(lat, path, cfg).backward()
    grad = lat.log_probs.grad
    lp0 = lat.log_probs.data

    def loss_at(lp):
        return par_loss(PosteriorLattice(Tensor(lp), lat.targets), path, cfg).item()

    eps = 1e-7
    for (t, u, k) in path.triples:
        for kk in (k, PHI):
            probe = lp0.copy()
            probe[t, u, kk] += eps
            hi = loss_at(probe)
            probe[t, u, kk] -= 2 * eps
            lo = loss_at(probe)
            assert grad[t, u, kk] == pytest.approx((hi - lo) / (2 * eps),
                                                   rel=1e-5, abs=1e-8)


def test_par_loss_bounds_check():
    rng = np.random.default_rng(6)
    lat = _lattice(rng, 2, 1)
    bad = build_path([PHI, PHI, int(lat.targets[0])], list(lat.targets))
    with pytest.raises(ValueError, match="outside lattice"):
        par_loss(lat, bad)  # triple at t=2 in a T=2 lattice


def test_joint_loss_beta_zero_is_the_transducer_tensor():
    rng = np.random.default_rng(7)
    lat = _lattice(rng, 3, 2)
    path = _path_for(lat, rng)
    base = transducer_loss(lat)
    joint = joint_loss(lat, path, ParConfig(beta=0.0))
    assert joint.item() == pytest.approx(base.item(), rel=1e-15)
    # degenerate case adds no tape nodes at all
    lat2 = _lattice(rng, 3, 2)
    lat2.log_probs.requires_grad = True
    j2 = joint_loss(lat2, path if lat2.U == 2 else path, ParConfig(beta=0.0))
    j2.backward()
    from satkit.lattice import forward_backward_arrays
    _, g, _, _ = forward_backward_arrays(lat2)
    np.testing.assert_allclose(lat2.log_probs.grad, g, atol=1e-15)


def test_joint_loss_combines_terms():
    rng = np.random.default_rng(8)
    lat = _lattice(rng, 4, 2)
    path = _path_for(lat, rng)
    cfg = ParConfig(beta=2.5)
    want = transducer_loss(lat).item() + 2.5 * par_loss(lat, path).item()
    assert joint_loss(lat, path, cfg).item() == pytest.approx(want, rel=1e-12)


def test_par_config_validation():
    for beta in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and non-negative"):
            ParConfig(beta=beta)
    assert ParConfig(beta=0.0).beta == 0.0


def _batch(rng, shapes, k=6):
    """A padded lattice batch with one alignment path per (frames, labels)
    shape; returns (log probs, targets, frame counts, paths)."""
    T, U = max(t for t, _ in shapes), max(u for _, u in shapes)
    logits = rng.standard_normal((len(shapes), T, U + 1, k))
    lp = logits - np.log(np.exp(logits).sum(-1, keepdims=True))
    targets, paths = [], []
    for t_len, u_len in shapes:
        y = [int(v) for v in rng.integers(2, k, size=u_len)]
        ali = [PHI] * t_len
        for f, tok in zip(sorted(rng.choice(t_len, size=u_len, replace=False)), y):
            ali[f] = tok
        targets.append(y)
        paths.append(build_path(ali, y))
    return lp, targets, [t for t, _ in shapes], paths


def _run(fn, lp, targets, lengths, paths, cfg):
    """Values and log-prob gradient of fn's mean over the batch, as
    ``Trainer.train_batch`` differentiates it; ``lengths`` None scores
    the first utterance alone."""
    t = Tensor(lp.copy(), requires_grad=True)
    if lengths is None:
        out = fn(PosteriorLattice(t, targets), paths, cfg)
    else:
        out = fn(PosteriorLattice(t, targets, lengths), paths, cfg)
    ad.scale(ad.sum_all(out), 1.0 / max(1, out.data.size)).backward()
    return out.data, t.grad


@pytest.mark.parametrize("detach", [True, False])
@pytest.mark.parametrize("case", ["one", "ragged", "no-labels"])
def test_par_and_joint_loss_match_unfused_composition(case, detach):
    # The tape composition of the regularizer is the oracle. With detached
    # weights every value and gradient bit agrees; with attached ones a blank
    # triple's token and blank terms land on one cell in another order.
    rng = np.random.default_rng(11)
    shapes = {"one": [(9, 4)], "ragged": [(12, 5), (7, 2), (10, 0)],
              "no-labels": [(6, 0), (4, 1)]}[case]
    lp, targets, lengths, paths = _batch(rng, shapes)
    inputs = [(lp, targets, lengths, paths)]
    if case == "one":  # the single-lattice form: no batch axis
        inputs.append((lp[0], targets[0], None, paths[0]))
    if case == "no-labels":  # a U = 0 path alone
        inputs.append((lp[0, :, :1], targets[0], None, paths[0]))
    for beta in (0.0, 2.5, 10.0):
        cfg = ParConfig(beta=beta, detach_weight=detach)
        for grid, ys, lens, ps in inputs:
            pairs = [(joint_loss, unfused.joint_loss)]
            if beta == 10.0:
                pairs.append((par_loss, unfused.par_loss))
            for new, old in pairs:
                got = _run(new, grid, ys, lens, ps, cfg)
                want = _run(old, grid, ys, lens, ps, cfg)
                assert got[0].shape == want[0].shape
                if detach or beta == 0.0:
                    np.testing.assert_array_equal(got[0], want[0])
                    np.testing.assert_array_equal(got[1], want[1])
                else:
                    np.testing.assert_allclose(got[0], want[0], rtol=1e-12, atol=0)
                    np.testing.assert_allclose(got[1], want[1], rtol=1e-12,
                                               atol=1e-12 * np.abs(want[1]).max())
