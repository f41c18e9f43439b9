"""Attention building blocks: the banded attention op against a dense
oracle, positional encodings, parity between the tape modules and the cached
key/value row step, windowed locality."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satkit import autodiff as ad
from satkit.autodiff import LOG_ZERO, ShapeError, Tensor
from satkit.nnet import (CAUSAL, ChunkSpec, Encoder, FeedForward, IncrementalEncoder,
                         MultiHeadAttention, PredictionNetwork, SABlock, glorot,
                         positional_encoding)


def window_mask(n_q: int, n_kv: int, chunk: ChunkSpec, q_offset: int = 0) -> np.ndarray:
    """(n_q, n_kv) additive mask: 0 inside the window, LOG_ZERO outside.

    Query i sits at key coordinate i + q_offset; key j is visible iff
    -left <= j - (i + q_offset) <= right.
    """
    rel = np.arange(n_kv)[None, :] - (np.arange(n_q)[:, None] + q_offset)
    ok = (rel >= -chunk.left) & (rel <= chunk.right)
    return np.where(ok, 0.0, LOG_ZERO)


def causal_mask(n: int) -> np.ndarray:
    return window_mask(n, n, CAUSAL)


def self_attention(q: Tensor, k: Tensor, v: Tensor, mask=None) -> Tensor:
    """Dense oracle: softmax(q k^T / sqrt(d_k) + mask) v over already-projected
    2-D inputs, every key scored for every query."""
    if k.shape[0] != v.shape[0]:
        raise ShapeError(f"key/value lengths differ: {k.shape} vs {v.shape}")
    d_k = q.shape[-1]
    scores = ad.scale(ad.matmul(q, Tensor(k.data.T)), 1.0 / math.sqrt(d_k))
    if mask is not None:
        mask = np.asarray(mask, dtype=scores.dtype)
        if mask.max(axis=-1).min() < 0.0:
            raise ValueError("attention mask blocks every key for some query row")
        scores = ad.add(scores, Tensor(mask))
    return ad.matmul(ad.softmax_lastdim(scores), v)


def test_glorot_bounds_and_row_blocks():
    rng = np.random.default_rng(0)
    w = glorot(rng, 30, 20)
    limit = math.sqrt(6.0 / 50.0)
    assert w.shape == (30, 20) and w.requires_grad
    assert np.all(np.abs(w.data) <= limit)
    block = glorot(rng, 30, 20, rows=12)
    assert block.shape == (12, 20)
    assert np.all(np.abs(block.data) <= limit)


def test_chunk_spec_validation_and_parse():
    with pytest.raises(ValueError):
        ChunkSpec(-1, 2)
    with pytest.raises(ValueError):
        ChunkSpec(1.5, 2)
    spec = ChunkSpec.parse("5", "inf")
    assert spec.left == 5 and spec.right == math.inf and not spec.bounded
    assert ChunkSpec(5, 2).bounded
    assert ChunkSpec.unbounded() == ChunkSpec(math.inf, math.inf)


def test_receptive_field_arithmetic():
    spec = ChunkSpec(5, 2)
    assert spec.receptive_field(t=20, n_blocks=2, length=100) == (10, 24)
    assert spec.receptive_field(t=3, n_blocks=2, length=100) == (0, 7)
    assert spec.receptive_field(t=98, n_blocks=2, length=100) == (88, 99)
    assert ChunkSpec.unbounded().receptive_field(5, 3, 50) == (0, 49)
    assert ChunkSpec(math.inf, 0).receptive_field(5, 3, 50) == (0, 5)


def test_window_mask_hand_case():
    m = window_mask(4, 4, ChunkSpec(1, 1))
    want = np.full((4, 4), LOG_ZERO)
    for i in range(4):
        for j in range(4):
            if abs(i - j) <= 1:
                want[i, j] = 0.0
    np.testing.assert_array_equal(m, want)


def test_window_mask_offset():
    m = window_mask(2, 6, ChunkSpec(1, 0), q_offset=3)
    # query rows sit at key positions 3 and 4
    np.testing.assert_array_equal(m[0], [LOG_ZERO, LOG_ZERO, 0.0, 0.0,
                                         LOG_ZERO, LOG_ZERO])
    np.testing.assert_array_equal(m[1], [LOG_ZERO, LOG_ZERO, LOG_ZERO, 0.0,
                                         0.0, LOG_ZERO])


def test_wide_window_saturates_to_unbounded():
    wide = window_mask(6, 6, ChunkSpec(10, 10))
    unbounded = window_mask(6, 6, ChunkSpec.unbounded())
    np.testing.assert_array_equal(wide, np.zeros((6, 6)))
    np.testing.assert_array_equal(wide, unbounded)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8), st.integers(0, 5), st.integers(0, 5))
def test_window_mask_membership_property(n, left, right):
    m = window_mask(n, n, ChunkSpec(left, right))
    for i in range(n):
        for j in range(n):
            inside = -left <= j - i <= right
            assert (m[i, j] == 0.0) == inside


def test_causal_mask():
    m = causal_mask(4)
    for i in range(4):
        for j in range(4):
            assert (m[i, j] == 0.0) == (j <= i)


def test_positional_encoding_closed_form():
    d_m = 8
    pe = positional_encoding(5, d_m)
    for pos in (0, 3):
        for i in range(d_m // 2):
            angle = pos / 10000.0 ** (2 * i / d_m)
            assert pe[pos, 2 * i] == pytest.approx(math.sin(angle), abs=1e-15)
            assert pe[pos, 2 * i + 1] == pytest.approx(math.cos(angle), abs=1e-15)


def test_positional_encoding_start_offset_is_exact():
    full = positional_encoding(20, 6)
    part = positional_encoding(5, 6, start=11)
    np.testing.assert_array_equal(part, full[11:16])


def test_positional_encoding_rows_keep_their_bits():
    # rows built from a network's precomputed frequencies equal the formula
    # that recomputes them per call, at the first rows and deep into a stream
    def per_call(length, d_m, start):
        pos = np.arange(start, start + length, dtype=np.float64)[:, None]
        inv = np.power(10000.0, -np.arange(0, d_m, 2, dtype=np.float64) / d_m)
        pe = np.empty((length, d_m))
        pe[:, 0::2] = np.sin(pos * inv)
        pe[:, 1::2] = np.cos(pos * inv)
        return pe

    rng = np.random.default_rng(18)
    enc = Encoder(6, 16, 2, 16, 1, ChunkSpec(2, 1), rng)
    net = PredictionNetwork(9, 16, 2, 16, 1, rng)
    for freqs in (enc.pe_freqs, net.pe_freqs, None):
        for start in (0, 1, 12_000):
            for length in (1, 5):
                np.testing.assert_array_equal(positional_encoding(length, 16, start, freqs),
                                              per_call(length, 16, start))


def test_positional_encoding_errors():
    with pytest.raises(ValueError):
        positional_encoding(4, 7)
    with pytest.raises(ValueError):
        positional_encoding(0, 8)


def test_self_attention_uniform_and_masked():
    v = np.arange(12.0).reshape(4, 3)
    # zero queries/keys -> uniform weights -> each output row is mean(v)
    out = self_attention(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 3))),
                         Tensor(v))
    np.testing.assert_allclose(out.data, np.tile(v.mean(0), (2, 1)), atol=1e-12)
    # mask admitting only key 2 -> output row is exactly v[2]
    mask = np.full((2, 4), LOG_ZERO)
    mask[:, 2] = 0.0
    out = self_attention(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 3))),
                         Tensor(v), mask)
    np.testing.assert_allclose(out.data, np.tile(v[2], (2, 1)), atol=1e-12)


def test_self_attention_rejects_fully_masked_row():
    mask = np.zeros((2, 3))
    mask[1, :] = LOG_ZERO
    with pytest.raises(ValueError):
        self_attention(Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 4))),
                       Tensor(np.zeros((3, 4))), mask)
    with pytest.raises(ShapeError):
        self_attention(Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 4))),
                       Tensor(np.zeros((4, 4))))


WINDOWS = [(0, 0), (3, 0), (0, 4), (10, 5), (math.inf, 0), (math.inf, math.inf)]
# T_max 37 is no multiple of the 16-row blocks and makes every bounded window
# above banded; 1 and 5 are shorter than most windows
RAGGED = (37, 5, 1, 20)


def _op_inputs(rng, lengths, heads=2, d=3):
    shape = (len(lengths), max(lengths), heads * d)
    return [rng.standard_normal(shape) for _ in range(3)]


@pytest.mark.parametrize("left,right", WINDOWS)
def test_attention_op_matches_dense_oracle(left, right):
    # each real row equals the dense oracle run on its sequence alone
    rng = np.random.default_rng(30)
    chunk = ChunkSpec(left, right)
    for lengths in (RAGGED, (1,)):
        q, k, v = _op_inputs(rng, lengths)
        out = ad.attention(q, k, v, left, right, lengths, 1.0 / math.sqrt(3), heads=2).data
        for b, n in enumerate(lengths):
            for h in (slice(0, 3), slice(3, 6)):
                want = self_attention(Tensor(q[b, :n, h]), Tensor(k[b, :n, h]),
                                      Tensor(v[b, :n, h]), window_mask(n, n, chunk)).data
                np.testing.assert_allclose(out[b, :n, h], want, atol=1e-12, rtol=0)
    # one sequence as (T, heads * d): every row real
    one = ad.attention(q[0], k[0], v[0], left, right, None, 0.5, heads=2).data
    np.testing.assert_array_equal(
        one, ad.attention(q[:1], k[:1], v[:1], left, right, None, 0.5, heads=2).data[0])


@pytest.mark.parametrize("left,right", WINDOWS)
def test_attention_op_finite_differences(left, right):
    rng = np.random.default_rng(31)
    inputs = _op_inputs(rng, RAGGED, d=2)
    w = rng.standard_normal(inputs[0].shape)

    def loss(q, k, v):
        out = ad.attention(q, k, v, left, right, RAGGED, 0.7, heads=2)
        return ad.sum_all(ad.mul(out, Tensor(w)))

    tensors = [Tensor(x, requires_grad=True) for x in inputs]
    loss(*tensors).backward()
    eps = 1e-6
    with ad.no_grad():
        for i, t in enumerate(tensors):
            fd = np.zeros_like(t.data)
            for idx in np.ndindex(t.shape):
                probe = [x.copy() for x in inputs]
                probe[i][idx] += eps
                hi = loss(*probe).item()
                probe[i][idx] -= 2 * eps
                fd[idx] = (hi - loss(*probe).item()) / (2 * eps)
            np.testing.assert_allclose(t.grad, fd, rtol=0, atol=1e-6 * max(1.0, np.abs(fd).max()))


def test_attention_op_rejects_blocked_rows_and_bad_lengths():
    rng = np.random.default_rng(32)
    q, k, v = _op_inputs(rng, RAGGED)
    # no key left of row 0: the dense path (inf, -1) and the banded (3, -1)
    for left, right in ((math.inf, -1), (3, -1)):
        with pytest.raises(ValueError, match="blocks every key"):
            ad.attention(q, k, v, left, right, RAGGED)
    with pytest.raises(ValueError, match="blocks every key"):
        MultiHeadAttention(6, 2, rng, "t").attend_np(
            np.zeros((2, 6)), np.zeros((3, 6)), np.zeros((3, 6)),
            np.array([[0.0, 0.0, 0.0], [LOG_ZERO] * 3]))
    with pytest.raises(ValueError):
        ad.attention(q, k, v, 2, 1, (37, 0, 1, 20))
    with pytest.raises(ShapeError):
        ad.attention(q, k, v, 2, 1, (37, 5))
    with pytest.raises(ShapeError):
        ad.attention(q, k[:, :-1], v, 2, 1)
    with pytest.raises(ShapeError):
        ad.attention(q, k, v, 2, 1, heads=4)


def test_attention_op_softmax_checks_finite():
    rng = np.random.default_rng(33)
    q, k, v = _op_inputs(rng, (37,))
    q[0, 30, 4] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        ad.attention(q, k, v, 10, 5)


def _encoder_peak_bytes(enc, batch, frames):
    feats = np.random.default_rng(34).standard_normal((batch, frames, enc.d_in))
    tracemalloc.start()
    try:
        out = enc(Tensor(feats), lengths=np.full(batch, frames))
        ad.sum_all(out).backward()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bounded_window_training_memory_is_linear_in_length():
    # the same 460 frames as 8 x 58 and as 1 x 460: a bounded window must
    # not make the long shape's tape grow with T^2
    enc = Encoder(24, 64, 4, 128, 2, ChunkSpec(10, 5), np.random.default_rng(35))
    short = _encoder_peak_bytes(enc, 8, 58)
    long = _encoder_peak_bytes(enc, 1, 460)
    assert long <= 1.25 * short, (long, short)


def test_multi_head_tape_np_parity():
    rng = np.random.default_rng(1)
    mha = MultiHeadAttention(8, 2, rng, "t")
    x = rng.standard_normal((5, 8))
    got = mha(Tensor(x), ChunkSpec(1, 1)).data
    want = mha.attend_np(x, *mha.kv_np(x), window_mask(5, 5, ChunkSpec(1, 1)))
    np.testing.assert_allclose(got, want, atol=1e-12)
    with pytest.raises(ValueError):
        MultiHeadAttention(8, 3, rng, "bad")


def test_multi_head_single_head_equals_plain_attention():
    rng = np.random.default_rng(2)
    mha = MultiHeadAttention(6, 1, rng, "t")
    x = rng.standard_normal((4, 6))
    p = {k.split(".")[-1]: v.data for k, v in mha.params.items()}
    plain = self_attention(Tensor(x @ p["w_q"]), Tensor(x @ p["w_k"]),
                           Tensor(x @ p["w_v"])).data @ p["w_o"]
    np.testing.assert_allclose(mha(Tensor(x)).data, plain, atol=1e-12)


def test_feed_forward_parity_and_form():
    rng = np.random.default_rng(3)
    ffn = FeedForward(6, 12, rng, "f")
    x = rng.standard_normal((4, 6))
    np.testing.assert_allclose(ffn(Tensor(x)).data, ffn.apply_np(x), atol=1e-13)
    w1, b1 = ffn.params["f.w1"].data, ffn.params["f.b1"].data
    w2, b2 = ffn.params["f.w2"].data, ffn.params["f.b2"].data
    want = np.maximum(x @ w1 + b1, 0.0) @ w2 + b2
    np.testing.assert_allclose(ffn.apply_np(x), want, atol=1e-13)


def test_sa_block_parity_and_dropout():
    rng = np.random.default_rng(4)
    block = SABlock(8, 2, 16, rng, "b")
    x = rng.standard_normal((5, 8))
    rows = block.apply_kv_np(x, *block.attn.kv_np(x), causal_mask(5))
    np.testing.assert_allclose(block(Tensor(x), CAUSAL).data, rows, atol=1e-12)
    # training dropout perturbs, evaluation never does
    drop = block(Tensor(x), CAUSAL, dropout_rate=0.5,
                 rng=np.random.default_rng(0), training=True).data
    assert not np.allclose(drop, rows)
    same = block(Tensor(x), CAUSAL, dropout_rate=0.5,
                 rng=np.random.default_rng(0), training=False).data
    np.testing.assert_allclose(same, rows, atol=1e-12)


def test_sa_block_finite_differences():
    rng = np.random.default_rng(5)
    block = SABlock(4, 2, 6, rng, "b")
    x0 = rng.standard_normal((3, 4))
    w = np.arange(1.0, 13.0).reshape(3, 4)

    def loss_np(x):
        with ad.no_grad():
            return float((block(Tensor(x)).data * w).sum())

    xt = Tensor(x0.copy(), requires_grad=True)
    ad.sum_all(ad.mul(block(xt), Tensor(w))).backward()
    eps = 1e-6
    for i in range(3):
        for j in range(4):
            probe = x0.copy()
            probe[i, j] += eps
            hi = loss_np(probe)
            probe[i, j] -= 2 * eps
            lo = loss_np(probe)
            fd = (hi - lo) / (2 * eps)
            assert xt.grad[i, j] == pytest.approx(fd, rel=2e-5, abs=1e-8)


def test_sa_block_weight_gradients_flow():
    rng = np.random.default_rng(6)
    block = SABlock(4, 2, 6, rng, "b")
    x = Tensor(rng.standard_normal((3, 4)))
    ad.sum_all(block(x)).backward()
    for name, p in block.params.items():
        assert p.grad is not None, name
        assert np.any(p.grad != 0.0), name


def test_encoder_input_validation():
    rng = np.random.default_rng(7)
    enc = Encoder(6, 8, 2, 16, 2, ChunkSpec.unbounded(), rng)
    with pytest.raises(ShapeError):
        enc(Tensor(np.zeros((0, 6))))
    with pytest.raises(ShapeError):
        enc(Tensor(np.zeros((4, 5))))
    with pytest.raises(ShapeError):
        enc(Tensor(np.zeros(6)))


def test_encoder_tape_np_parity():
    # apply_np is the tape encoder run without recording: the same bits
    rng = np.random.default_rng(8)
    enc = Encoder(6, 8, 2, 16, 2, ChunkSpec(2, 1), rng)
    feats = rng.standard_normal((7, 6))
    assert np.array_equal(enc.apply_np(feats), enc(Tensor(feats)).data)
    wide = ChunkSpec(3, 0)
    assert np.array_equal(enc.apply_np(feats, wide, start=4),
                          enc(Tensor(feats), wide, start=4).data)


def test_encoder_windowed_locality_is_exact():
    # outside the stacked receptive field, a feature perturbation changes
    # nothing at all: the masked weights underflow to exactly zero
    rng = np.random.default_rng(9)
    chunk = ChunkSpec(2, 1)
    n_blocks = 2
    enc = Encoder(6, 8, 2, 16, n_blocks, chunk, rng)
    feats = rng.standard_normal((16, 6))
    base = enc.apply_np(feats)
    t = 8
    lo, hi = chunk.receptive_field(t, n_blocks, 16)
    bumped = feats.copy()
    bumped[lo - 1] += 10.0
    bumped[hi + 1] += 10.0
    out = enc.apply_np(bumped)
    assert np.array_equal(out[t], base[t])
    inside = feats.copy()
    inside[hi] += 1.0
    assert not np.array_equal(enc.apply_np(inside)[t], base[t])


def encode_incrementally(enc, feats, chunk=None):
    """Every output row of ``feats`` through an IncrementalEncoder."""
    inc = IncrementalEncoder(enc, chunk)
    rows = []
    for x in feats:
        rows += inc.push(x)
    rows += inc.finish()
    assert len(rows) == feats.shape[0]
    return np.stack(rows)


def test_incremental_encoder_matches_matrix_path():
    rng = np.random.default_rng(10)
    chunk = ChunkSpec(2, 1)
    enc = Encoder(6, 8, 2, 16, 2, chunk, rng)
    feats = rng.standard_normal((12, 6))
    full = enc.apply_np(feats)
    rows = encode_incrementally(enc, feats)
    for t in (0, 5, 11):
        np.testing.assert_allclose(rows[t], full[t], atol=1e-9)
    with pytest.raises(ValueError):
        IncrementalEncoder(enc, ChunkSpec.unbounded())


def test_incremental_encoder_ignores_frames_outside_field():
    # feeding only the receptive field must reproduce the same bits
    rng = np.random.default_rng(11)
    chunk = ChunkSpec(2, 1)
    enc = Encoder(6, 8, 2, 16, 2, chunk, rng)
    feats = rng.standard_normal((12, 6))
    t = 7
    lo, hi = chunk.receptive_field(t, 2, 12)
    row_full = encode_incrementally(enc, feats)[t]
    row_clip = encode_incrementally(enc, feats[: hi + 1])[t]
    assert np.array_equal(row_full, row_clip)


@pytest.mark.parametrize("left,right", [(0, 0), (3, 0), (0, 4), (2, 1), (10, 5)])
def test_incremental_encoder_matches_matrix_path_over_windows(left, right):
    # lengths 1 and 2 are shorter than every window but (0, 0); 5 is shorter
    # than (10, 5)
    rng = np.random.default_rng(20 + left + 7 * right)
    for n_blocks in (1, 2, 3):
        enc = Encoder(6, 8, 2, 16, n_blocks, ChunkSpec(left, right), rng)
        for length in (1, 2, 5, 40):
            feats = rng.standard_normal((length, 6))
            np.testing.assert_allclose(encode_incrementally(enc, feats),
                                       enc.apply_np(feats), atol=1e-9, rtol=0)


def test_incremental_encoder_output_lags_by_receptive_field():
    # top row t is final once stacked row t + B*right is pushed, not later
    rng = np.random.default_rng(21)
    enc = Encoder(6, 8, 2, 16, 3, ChunkSpec(2, 1), rng)
    inc = IncrementalEncoder(enc)
    feats = rng.standard_normal((10, 6))
    counts = [len(inc.push(x)) for x in feats]
    assert counts == [0, 0, 0] + [1] * 7
    assert len(inc.finish()) == 3 and inc.finish() == []


def test_prediction_network_causal_prefix_extension():
    rng = np.random.default_rng(12)
    net = PredictionNetwork(9, 8, 2, 16, 2, rng)
    short = net([3, 4]).data
    long = net([3, 4, 5, 6]).data
    np.testing.assert_allclose(long[: short.shape[0]], short, atol=1e-12)
    assert net([]).shape == (1, 8)


def test_prediction_network_tape_np_parity():
    rng = np.random.default_rng(13)
    net = PredictionNetwork(9, 8, 2, 16, 2, rng)
    labels = [3, 7, 2]
    states = [net.init_state()]
    for tok in labels:
        states.append(net.advance_np(states[-1], tok))
    np.testing.assert_allclose(net(labels).data, np.stack([s.g for s in states]),
                               atol=1e-12)


def test_prediction_state_advance_matches_full_pass():
    rng = np.random.default_rng(14)
    net = PredictionNetwork(9, 8, 2, 16, 2, rng)
    state = net.init_state()
    emitted = []
    for tok in (4, 2, 8, 3):
        full = net(emitted).data
        assert state.length == len(emitted) + 1
        np.testing.assert_allclose(state.g, full[-1], atol=1e-12)
        state = net.advance_np(state, tok)
        emitted.append(tok)
    np.testing.assert_allclose(state.g, net(emitted).data[-1], atol=1e-12)


def test_prediction_state_caches_one_kv_row_per_block():
    # each label projects one new key/value row per block; the prefix's
    # rows come from the cache, never projected again
    rng = np.random.default_rng(17)
    net = PredictionNetwork(9, 8, 2, 16, 3, rng)
    projected = []
    for block in net.blocks:
        def kv_np(x, kv=block.attn.kv_np):
            projected.append(x.shape[0])
            return kv(x)
        block.attn.kv_np = kv_np
    state = net.init_state()
    for tok in (4, 2, 8, 3, 5):
        assert projected == [1] * net.n_blocks
        assert len(state.layers) == net.n_blocks
        assert all(layer.shape == (state.length, 16) for layer in state.layers)
        projected.clear()
        state = net.advance_np(state, tok)


def test_prediction_states_are_shareable():
    # two children advanced from one parent must not disturb each other
    rng = np.random.default_rng(15)
    net = PredictionNetwork(9, 8, 2, 16, 1, rng)
    parent = net.advance_np(net.init_state(), 3)
    a = net.advance_np(parent, 4)
    b = net.advance_np(parent, 5)
    np.testing.assert_allclose(a.g, net([3, 4]).data[-1], atol=1e-12)
    np.testing.assert_allclose(b.g, net([3, 5]).data[-1], atol=1e-12)
    np.testing.assert_allclose(parent.g, net([3]).data[-1], atol=1e-12)


def test_prediction_embeddings_are_scaled():
    rng = np.random.default_rng(16)
    net = PredictionNetwork(9, 16, 2, 16, 0, rng)
    out = net([]).data
    want = net.params["pred.emb"].data[1] * 4.0 + positional_encoding(1, 16)[0]
    np.testing.assert_allclose(out[0], want, atol=1e-15)
    np.testing.assert_allclose(net.init_state().g, want, atol=1e-15)
