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
from satkit import nnet
from satkit.autodiff import LOG_ZERO, ShapeError, Tensor
from satkit.model import ModelConfig
from satkit.nnet import (CAUSAL, LN_EPS, ChunkSpec, Encoder, encoder_tiles,
                         PredictionNetwork, PredState, SABlock, glorot,
                         positional_encoding, row_tile, tile_len)
from unfused import advance_per_call, encoder_rows_per_call, softmax_lastdim


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
    return ad.matmul(softmax_lastdim(scores), v)


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
    pe = positional_encoding(np.arange(5), d_m)
    for pos in (0, 3):
        for i in range(d_m // 2):
            angle = pos / 10000.0 ** (2 * i / d_m)
            assert pe[pos, 2 * i] == pytest.approx(math.sin(angle), abs=1e-15)
            assert pe[pos, 2 * i + 1] == pytest.approx(math.cos(angle), abs=1e-15)


def test_positional_encoding_start_offset_is_exact():
    full = positional_encoding(np.arange(20), 6)
    part = positional_encoding(np.arange(11, 16), 6)
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
                positions = np.arange(start, start + length)
                np.testing.assert_array_equal(positional_encoding(positions, 16, freqs),
                                              per_call(length, 16, start))


def test_positional_encoding_errors():
    with pytest.raises(ValueError):
        positional_encoding(np.arange(4), 7)
    with pytest.raises(ValueError):
        positional_encoding(np.arange(0), 8)
    with pytest.raises(ValueError):
        positional_encoding(3, 8)  # a count, not positions


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
    # the row step runs the same forward, and so the same check
    with pytest.raises(ValueError, match="blocks every key"):
        SABlock(6, 2, 8, rng, "t").context_np(
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
    # the tape block's heads go through the plain forward the row step
    # calls, and so does the rest of the block, bit for bit, for a batch and
    # for one row
    rng = np.random.default_rng(1)
    block = SABlock(8, 2, 16, rng, "t")
    w = {k.split(".", 1)[1]: v.data for k, v in block.params.items()}
    for shape in ((3, 5, 8), (1, 8)):
        x = rng.standard_normal(shape)

        def heads(m):  # (..., n, 8) -> (..., 2, n, 4)
            return np.swapaxes(m.reshape(m.shape[:-1] + (2, 4)), -2, -3)

        _, ctx = ad.attend(heads(x @ w["attn.w_q"]), heads(x @ w["attn.w_k"]),
                           heads(x @ w["attn.w_v"]), None, block.scale)
        a = np.swapaxes(ctx, -2, -3).reshape(shape) @ w["attn.w_o"]
        y = ad.add_layer_norm_forward(x, a, w["ln1.g"], w["ln1.b"], LN_EPS)[2]
        f = ad.ffn_forward(y.reshape(-1, 8), w["ffn.w1"], w["ffn.b1"],
                           w["ffn.w2"], w["ffn.b2"])[1].reshape(shape)
        want = ad.add_layer_norm_forward(y, f, w["ln2.g"], w["ln2.b"], LN_EPS)[2]
        assert np.array_equal(block(Tensor(x)).data, want)
    for n_heads in (3, 0, -2):
        with pytest.raises(ValueError, match="n_heads"):
            SABlock(8, n_heads, 16, rng, "bad")


def test_multi_head_single_head_equals_plain_attention():
    rng = np.random.default_rng(2)
    block = SABlock(6, 1, 12, rng, "t")
    x = rng.standard_normal((4, 6))
    q, k, v = (x @ w.data for w in (block.w_q, block.w_k, block.w_v))
    plain = self_attention(Tensor(q), Tensor(k), Tensor(v)).data @ block.w_o.data
    np.testing.assert_allclose(block.context_np(q, k, v) @ block.w_o.data, plain, atol=1e-12)


def test_feed_forward_parity_and_form():
    # the tape op over a block's feed-forward weights is the plain forward
    # the row step calls, bit for bit, for a batch and for one row
    rng = np.random.default_rng(3)
    block = SABlock(6, 2, 12, rng, "f")
    w1, b1, w2, b2 = block.w1, block.b1, block.w2, block.b2
    for shape in ((2, 4, 6), (1, 6)):
        x = rng.standard_normal(shape)
        got = ad.ffn(Tensor(x), w1, b1, w2, b2).data
        want = ad.ffn_forward(x.reshape(-1, 6), w1.data, b1.data, w2.data, b2.data)[1]
        assert np.array_equal(got, want.reshape(got.shape))
        np.testing.assert_allclose(got, np.maximum(x @ w1.data + b1.data, 0.0) @ w2.data
                                   + b2.data, atol=1e-13)


def test_sa_block_parity_and_dropout():
    rng = np.random.default_rng(4)
    block = SABlock(8, 2, 16, rng, "b")
    x = rng.standard_normal((5, 8))
    q, k, v = (x @ w.data for w in (block.w_q, block.w_k, block.w_v))
    rows = block.output_np(x, block.context_np(q, k, v, causal_mask(5)), np.zeros((8, 8)))
    np.testing.assert_allclose(block(Tensor(x), CAUSAL).data, rows, atol=1e-12)
    # training dropout perturbs, evaluation never does
    drop = block(Tensor(x), CAUSAL, dropout_rate=0.5,
                 rng=np.random.default_rng(0), training=True).data
    assert not np.allclose(drop, rows)
    same = block(Tensor(x), CAUSAL, dropout_rate=0.5,
                 rng=np.random.default_rng(0), training=False).data
    np.testing.assert_allclose(same, rows, atol=1e-12)


def test_sa_block_draws_its_weights_in_the_checkpoint_order():
    # the rng draw order and the params order are the checkpoint's: a
    # change to either moves every bit of a seeded model
    names = ["attn.w_q", "attn.w_k", "attn.w_v", "attn.w_o", "ffn.w1", "ffn.b1",
             "ffn.w2", "ffn.b2", "ln1.g", "ln1.b", "ln2.g", "ln2.b"]
    block = SABlock(8, 2, 16, np.random.default_rng(9), "enc.3")
    assert list(block.params) == [f"enc.3.{name}" for name in names]
    rng = np.random.default_rng(9)
    draws = {name: glorot(rng, *shape).data for name, shape in (
        ("attn.w_q", (8, 8)), ("attn.w_k", (8, 8)), ("attn.w_v", (8, 8)),
        ("attn.w_o", (8, 8)), ("ffn.w1", (8, 16)), ("ffn.w2", (16, 8)))}
    for name in names:
        got = block.params[f"enc.3.{name}"]
        want = draws.get(name, np.ones(8) if name.endswith(".g") else np.zeros(got.shape))
        assert got.requires_grad and np.array_equal(got.data, want), name
    assert block.params["enc.3.ffn.b1"].shape == (16,)
    attrs = (block.w_q, block.w_k, block.w_v, block.w_o, block.w1, block.b1, block.w2,
             block.b2, block.ln1_g, block.ln1_b, block.ln2_g, block.ln2_b)
    assert all(a is p for a, p in zip(attrs, block.params.values()))


def test_sa_block_finite_differences():
    rng = np.random.default_rng(5)
    block = SABlock(4, 2, 6, rng, "b")
    x0 = rng.standard_normal((3, 4))
    w = np.arange(1.0, 13.0).reshape(3, 4)

    def loss_np(x):
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


def test_encoder_windowed_locality_is_exact():
    # outside the stacked receptive field, a feature perturbation changes
    # nothing at all: the masked weights underflow to exactly zero
    rng = np.random.default_rng(9)
    chunk = ChunkSpec(2, 1)
    n_blocks = 2
    enc = Encoder(6, 8, 2, 16, n_blocks, chunk, rng)
    feats = rng.standard_normal((16, 6))
    base = enc(Tensor(feats)).data
    t = 8
    lo, hi = t - n_blocks * chunk.left, t + n_blocks * chunk.right
    bumped = feats.copy()
    bumped[lo - 1] += 10.0
    bumped[hi + 1] += 10.0
    out = enc(Tensor(bumped)).data
    assert np.array_equal(out[t], base[t])
    inside = feats.copy()
    inside[hi] += 1.0
    assert not np.array_equal(enc(Tensor(inside)).data[t], base[t])


def encode_incrementally(enc, feats):
    """Every output row of ``feats`` through the row-by-row encoder."""
    rows = np.concatenate(list(encoder_tiles(enc, feats)))
    assert rows.shape[0] == feats.shape[0]
    return rows


def test_incremental_encoder_matches_matrix_path():
    rng = np.random.default_rng(10)
    chunk = ChunkSpec(2, 1)
    enc = Encoder(6, 8, 2, 16, 2, chunk, rng)
    feats = rng.standard_normal((12, 6))
    full = enc(Tensor(feats)).data
    rows = encode_incrementally(enc, feats)
    for t in (0, 5, 11):
        np.testing.assert_allclose(rows[t], full[t], atol=1e-9)
    # an unbounded window encodes a matrix, and cannot stream
    enc.chunk = ChunkSpec.unbounded()
    np.testing.assert_allclose(np.concatenate(list(encoder_tiles(enc, feats))),
                               enc(Tensor(feats)).data, rtol=0, atol=1e-12)
    with pytest.raises(ValueError, match="needs a bounded chunk window"):
        encoder_tiles(enc, iter(feats))


def test_incremental_encoder_ignores_frames_outside_field():
    # feeding only the receptive field must reproduce the same bits
    rng = np.random.default_rng(11)
    chunk = ChunkSpec(2, 1)
    enc = Encoder(6, 8, 2, 16, 2, chunk, rng)
    feats = rng.standard_normal((12, 6))
    t = 7
    lo, hi = t - 2 * chunk.left, t + 2 * chunk.right
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
                                       enc(Tensor(feats)).data, atol=1e-9, rtol=0)


@pytest.mark.parametrize("n_blocks", [1, 2, 3])
def test_unbounded_rows_match_the_tape_encoder(n_blocks):
    # lengths on both sides of the 64-row query tile and of two tiles; an
    # empty matrix gives no rows
    rng = np.random.default_rng(40 + n_blocks)
    enc = Encoder(6, 8, 2, 16, n_blocks, ChunkSpec.unbounded(), rng)
    assert list(encoder_tiles(enc, np.zeros((0, 6)))) == []
    for length in (1, 2, 63, 64, 65, 150):
        feats = rng.standard_normal((length, 6))
        np.testing.assert_allclose(encode_incrementally(enc, feats),
                                   enc(Tensor(feats)).data, atol=1e-12, rtol=0)


@pytest.mark.parametrize("chunk", [ChunkSpec(2, 1), ChunkSpec.unbounded()])
def test_encoder_rows_reject_a_wrong_width(chunk):
    enc = Encoder(6, 8, 2, 16, 2, chunk, np.random.default_rng(12))
    with pytest.raises(ShapeError, match="encoder expects width 6"):
        list(encoder_tiles(enc, np.zeros((5, 5))))
    if chunk.bounded:  # a stream's rows, one at a time
        with pytest.raises(ShapeError, match="encoder expects width 6"):
            list(encoder_tiles(enc, iter(np.zeros((5, 7)))))


def _decode_row_weight_shapes():
    """Every weight shape a decode row step multiplies by, for the default
    model: input, [w_q | w_k | w_v], w_q/w_k/w_v/w_o, both FFN matrices, a
    joint input projection and the joint output."""
    cfg = ModelConfig()
    d_in, d_m, d_ff, J, K = cfg.stacked_dim, cfg.d_m, cfg.d_ff, cfg.d_joint, cfg.vocab_size
    return [(d_in, d_m), (d_m, 3 * d_m), (d_m, d_m), (d_m, d_ff), (d_ff, d_m), (d_m, J), (J, K)]


@pytest.mark.parametrize("shape", _decode_row_weight_shapes())
def test_row_products_follow_the_four_row_rule(shape):
    # The BLAS fact the decode row steps rest on: in a 2-D product whose row
    # count is a multiple of 4, a row's bits depend neither on the row count,
    # nor on its position, nor on its neighbours' contents. If a BLAS breaks
    # this, streaming and offline decoding stop agreeing bit for bit.
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    w = glorot(rng, *shape).data
    for _ in range(3):
        row = rng.standard_normal(shape[0])
        want = (np.stack([row] + [rng.standard_normal(shape[0]) for _ in range(3)]) @ w)[0]
        violations = []
        for m in (4, 8, 12, 16):
            for pos in range(m):
                x = rng.standard_normal((m, shape[0]))
                x[pos] = row
                if not np.array_equal((x @ w)[pos], want):
                    violations.append((m, pos))
        assert not violations, f"rows of {shape} products change bits: {violations}"


def test_row_tile_pads_to_a_multiple_of_four():
    pad = np.full((8, 3), 7.0)
    x = np.arange(15.0).reshape(5, 3)
    tile = row_tile(x, pad)
    assert tile.shape == (8, 3) and np.shares_memory(tile, pad)
    assert np.array_equal(tile[:5], x) and np.all(tile[5:] == 7.0)
    assert row_tile(x[:4], pad) is not pad and np.shares_memory(row_tile(x[:4], pad), x)
    assert [tile_len(m) for m in range(9)] == [0, 4, 4, 4, 4, 8, 8, 8, 8]


def test_incremental_encoder_output_lags_by_receptive_field():
    # top row t is yielded right after stacked row t + B*right is pulled, not
    # later; the last B*right rows when the source ends
    rng = np.random.default_rng(21)
    enc = Encoder(6, 8, 2, 16, 3, ChunkSpec(2, 1), rng)
    feats = rng.standard_normal((10, 6))
    pulled = 0

    def source():
        nonlocal pulled
        for x in feats:
            pulled += 1
            yield x

    at_yield = [pulled for rows in encoder_tiles(enc, source()) for _ in rows]
    assert at_yield == [4, 5, 6, 7, 8, 9, 10] + [10] * 3


WINDOWS = [(0, 0), (3, 0), (0, 4), (2, 1), (10, 5)]


def encode_in_chunks(enc, feats, cuts, total):
    """Encoder rows with the block stages' input split at ``cuts``."""
    chunk = enc.chunk
    chunks = np.split(np.concatenate(list(nnet._input_rows(enc, feats, len(feats)))), cuts)
    for block in enc.blocks:
        chunks = nnet._block_rows(block, chunks, int(chunk.left), int(chunk.right), total)
    return np.concatenate(list(chunks))


@pytest.mark.parametrize("left,right", WINDOWS)
def test_encoder_rows_do_not_depend_on_grouping(left, right, monkeypatch):
    # a matrix in tiles of any size, a stream one row at a time and a random
    # split into chunks give the same bits: so streaming and offline decoding
    # agree bit for bit whatever the tile size. The longest input refills
    # each block's buffer of _ROW_TILE + left + 2*right rows many times.
    rng = np.random.default_rng(40 + left + 7 * right)
    for n_blocks in (1, 2, 3):
        enc = Encoder(6, 8, 2, 16, n_blocks, ChunkSpec(left, right), rng)
        for length in (1, 2, 5, 40, 3 * nnet._ROW_TILE + 37):
            feats = rng.standard_normal((length, 6))
            want = encode_incrementally(enc, feats)
            assert np.array_equal(np.concatenate(list(encoder_tiles(enc, iter(feats)))), want)
            cuts = np.sort(rng.choice(np.arange(1, length), size=min(length - 1, 6),
                                      replace=False)) if length > 1 else []
            for total in (None, length):
                assert np.array_equal(encode_in_chunks(enc, feats, cuts, total), want)
            for tile in (1, 2, 7):
                monkeypatch.setattr(nnet, "_ROW_TILE", tile)
                assert np.array_equal(encode_incrementally(enc, feats), want), tile
                monkeypatch.undo()


@pytest.mark.parametrize("left,right", WINDOWS)
def test_encoder_rows_keep_per_call_bits_away_from_the_ends(left, right):
    # rows whose windows no sequence end clips keep the bits of one row per
    # call over a clipped window; the rest differ by rounding only, because
    # their masked slots join the sums
    rng = np.random.default_rng(60 + left + 7 * right)
    for n_blocks in (1, 2, 3):
        enc = Encoder(6, 8, 2, 16, n_blocks, ChunkSpec(left, right), rng)
        for length in (1, 2, 5, 40):
            feats = rng.standard_normal((length, 6))
            got, want = encode_incrementally(enc, feats), encoder_rows_per_call(enc, feats)
            lo, hi = n_blocks * left, max(0, length - n_blocks * right)
            assert np.array_equal(got[lo:hi], want[lo:hi])
            np.testing.assert_allclose(got, want, atol=1e-13, rtol=0)


def test_row_step_calls_per_block():
    # a matrix enters each block a tile at a time; a stream one row per call,
    # each as soon as it is final
    rng = np.random.default_rng(22)
    enc = Encoder(6, 8, 2, 16, 3, ChunkSpec(2, 1), rng)
    feats = rng.standard_normal((40, 6))
    calls = [[] for _ in enc.blocks]
    for block, sizes in zip(enc.blocks, calls):
        def output_np(x, *args, step=block.output_np, sizes=sizes):
            sizes.append(len(x))
            return step(x, *args)
        block.output_np = output_np
    list(encoder_tiles(enc, feats))
    for sizes in calls:
        assert sum(sizes) == 40
        assert len(sizes) <= -(-40 // nnet._ROW_TILE) + 1, sizes
    for sizes in calls:
        sizes.clear()
    list(encoder_tiles(enc, iter(feats)))
    assert calls == [[1] * 40] * 3


def test_prediction_state_keeps_per_call_bits():
    rng = np.random.default_rng(19)
    net = PredictionNetwork(9, 8, 2, 16, 2, rng)
    state = want = net.init_state()
    assert np.array_equal(state.g, advance_per_call(
        net, PredState([None] * net.n_blocks, 0, None), None).g)
    for tok in (4, 2, 8, 3, 5, 1):
        state, want = net.advance_np(state, tok), advance_per_call(net, want, tok)
        assert np.array_equal(state.g, want.g)
        assert all(np.array_equal(a, b) for a, b in zip(state.layers, want.layers))


@pytest.mark.parametrize("d_m,heads,d_ff,n_blocks", [(8, 2, 16, 2), (64, 4, 128, 2)])
def test_advance_many_matches_one_at_a_time(d_m, heads, d_ff, n_blocks):
    # children of different parents, siblings among them, prefix lengths
    # 0-40 and batches of 1-9: each gets the bits of advance_np alone
    rng = np.random.default_rng(24 + d_m)
    net = PredictionNetwork(9, d_m, heads, d_ff, n_blocks, rng)
    empty = PredState([None] * n_blocks, 0, None)
    chain = [empty, net.init_state()]
    while len(chain) < 41:
        chain.append(net.advance_np(chain[-1], int(rng.integers(2, 9))))
    # a second parent for most lengths, so a batch can mix cousins
    pool = chain + [net.advance_np(state, 3) for state in chain[1:40]]

    def child(parent):
        return parent, None if parent.length == 0 else int(rng.integers(2, 9))

    for size in range(1, 10):
        for _ in range(6):
            picks = [child(pool[i]) for i in rng.integers(0, len(pool), size)]
            if size > 2:  # siblings: one parent, two tokens
                picks[1] = child(picks[0][0])
            got = net.advance_many(*zip(*picks))
            assert len(got) == size
            for (parent, token), state in zip(picks, got):
                want = net.advance_np(parent, token)
                assert state.length == want.length == parent.length + 1
                assert np.array_equal(state.g, want.g)
                assert len(state.layers) == n_blocks
                assert all(np.array_equal(a, b) for a, b in zip(state.layers, want.layers))


@pytest.mark.parametrize("d_m,heads,d_ff,n_blocks", [(8, 2, 16, 2), (64, 4, 128, 2)])
def test_one_row_step_keeps_per_call_bits_over_many_calls(d_m, heads, d_ff, n_blocks):
    # one PredRows, sized for two rows, serves lone rows, siblings, cousins
    # and calls of up to nine rows in turn: every state gets the bits of the
    # per-call oracle
    rng = np.random.default_rng(34 + d_m)
    net = PredictionNetwork(9, d_m, heads, d_ff, n_blocks, rng)
    step = net.row_step(2)
    pool = [net.init_state(step)]
    for _ in range(30):
        size = int(rng.choice([1, 1, 2, 3, 9]))
        parents = [pool[i] for i in rng.integers(0, len(pool), size)]
        if size > 2:  # siblings: one parent, two tokens
            parents[1] = parents[0]
        tokens = [int(t) for t in rng.integers(2, 9, size)]
        if size == 1:
            got = [net.advance_np(parents[0], tokens[0], step)]
        else:
            got = net.advance_many(parents, tokens, step)
        for parent, token, state in zip(parents, tokens, got):
            want = advance_per_call(net, parent, token)
            assert state.length == want.length
            assert np.array_equal(state.g, want.g)
            assert all(np.array_equal(a, b) for a, b in zip(state.layers, want.layers))
        pool += got
    assert max(state.length for state in pool) > 5 and len(step.pad) >= 9


def test_advance_many_leaves_its_states_unchanged():
    rng = np.random.default_rng(25)
    net = PredictionNetwork(9, 8, 2, 16, 2, rng)
    parent = net.advance_np(net.init_state(), 4)
    before = [layer.copy() for layer in parent.layers], parent.g.copy()
    a, b, c = net.advance_many([parent, parent, net.init_state()], [5, 6, 7])
    assert all(np.array_equal(x, y) for x, y in zip(parent.layers, before[0]))
    assert np.array_equal(parent.g, before[1])
    np.testing.assert_allclose(a.g, net([4, 5]).data[-1], atol=1e-12)
    np.testing.assert_allclose(b.g, net([4, 6]).data[-1], atol=1e-12)
    np.testing.assert_allclose(c.g, net([7]).data[-1], atol=1e-12)
    assert net.advance_many([], []) == []


def test_advance_many_rejects_bad_tokens():
    net = PredictionNetwork(9, 8, 2, 16, 1, np.random.default_rng(26))
    state = net.init_state()
    for token in (-1, 9):
        with pytest.raises(ValueError, match=f"token {token} "):
            net.advance_np(state, token)
    with pytest.raises(ValueError, match="2 states but 3 tokens"):
        net.advance_many([state, state], [3, 4, 5])
    with pytest.raises(ValueError, match="1 states but 0 tokens"):
        net.advance_many([state], [])
    assert net.advance_np(state, 8).length == 2


def test_prediction_states_grow_in_place():
    # along a greedy chain each child writes its new row into its parent's
    # buffer, and a full buffer is replaced by one twice as long
    net = PredictionNetwork(9, 8, 2, 16, 2, np.random.default_rng(27))
    chain = [net.init_state()]
    for tok in np.random.default_rng(28).integers(2, 9, 300):
        chain.append(net.advance_np(chain[-1], tok))
    for b in range(net.n_blocks):
        moves = sum(not np.shares_memory(p.layers[b], c.layers[b])
                    for p, c in zip(chain, chain[1:]))
        assert 1 <= moves <= math.ceil(math.log2(301 / nnet._MIN_CACHE_ROWS)), moves
    assert chain[-1].layers[0].shape == (301, 16)


def test_prediction_state_siblings_keep_their_rows():
    # the first child of a parent appends in place; a later child, alone or
    # among siblings, copies, and no child's rows change
    rng = np.random.default_rng(29)
    net = PredictionNetwork(9, 8, 2, 16, 2, rng)
    parent = net.init_state()
    for tok in (4, 2, 8):
        parent = net.advance_np(parent, tok)
    first = net.advance_np(parent, 5)
    assert np.shares_memory(first.layers[0], parent.layers[0])
    before = [layer.copy() for layer in first.layers]
    grandchild = net.advance_np(first, 3)
    second, third = net.advance_many([parent, parent], [6, 7])
    fourth = net.advance_np(parent, 2)
    assert all(np.array_equal(a, b) for a, b in zip(first.layers, before))
    for state, want in ((first, advance_per_call(net, parent, 5)),
                        (second, advance_per_call(net, parent, 6)),
                        (third, advance_per_call(net, parent, 7)),
                        (fourth, advance_per_call(net, parent, 2)),
                        (grandchild, advance_per_call(net, first, 3))):
        assert np.array_equal(state.g, want.g)
        assert all(np.array_equal(a, b) for a, b in zip(state.layers, want.layers))


def test_sibling_rows_in_one_call_share_the_parent_tail_once():
    # the first of two siblings in one call claims its parent's tail and
    # writes in place; the second copies the parent's rows
    net = PredictionNetwork(9, 8, 2, 16, 2, np.random.default_rng(35))
    parent = net.init_state()
    for tok in (4, 2, 8):
        parent = net.advance_np(parent, tok)
    first, second = net.advance_many([parent, parent], [5, 6])
    for b in range(net.n_blocks):
        assert np.shares_memory(first.layers[b], parent.layers[b])
        assert not np.shares_memory(second.layers[b], parent.layers[b])
    for state, tok in ((first, 5), (second, 6)):
        want = advance_per_call(net, parent, tok)
        assert np.array_equal(state.g, want.g)
        assert all(np.array_equal(a, b) for a, b in zip(state.layers, want.layers))


def test_prediction_state_without_cache_advances():
    # a state built from plain arrays, as the per-call oracle builds one,
    # advances by copying its rows
    rng = np.random.default_rng(30)
    net = PredictionNetwork(9, 8, 2, 16, 2, rng)
    oracle = advance_per_call(net, PredState([None] * net.n_blocks, 0, None), None)
    want = net.init_state()
    for tok in (4, 2, 8):
        oracle, want = advance_per_call(net, oracle, tok), net.advance_np(want, tok)
        assert oracle.cache is None
        got = net.advance_np(oracle, 5)
        assert np.array_equal(got.g, net.advance_np(want, 5).g)


def test_prediction_advance_copies_no_prefix():
    # one advance at prefix length 1000, between two buffer doublings,
    # allocates less than one block's cached rows: no copy of the prefix
    net = PredictionNetwork(9, 8, 2, 16, 2, np.random.default_rng(31))
    state = net.init_state()
    for tok in np.random.default_rng(32).integers(2, 9, 999):
        state = net.advance_np(state, tok)
    assert state.length == 1000
    prefix_bytes = state.layers[0].nbytes
    tracemalloc.start()
    try:
        child = net.advance_np(state, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.shares_memory(child.layers[0], state.layers[0])
    assert peak < prefix_bytes, (peak, prefix_bytes)


def test_cousin_rows_at_one_length_copy_no_prefix():
    # two rows of prefix length 1000 whose parents each own their tail
    # advance in one call: both write in place, and the call allocates less
    # than one block's cached rows
    net = PredictionNetwork(9, 8, 2, 16, 2, np.random.default_rng(36))
    state = net.init_state()
    for tok in np.random.default_rng(37).integers(2, 9, 998):
        state = net.advance_np(state, tok)
    parents = [net.advance_np(state, 4), net.advance_np(state, 5)]
    assert [p.length for p in parents] == [1000, 1000]
    prefix_bytes = parents[0].layers[0].nbytes
    tracemalloc.start()
    try:
        children = net.advance_many(parents, [6, 7])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for parent, child, tok in zip(parents, children, (6, 7)):
        assert all(np.shares_memory(c, p) for c, p in zip(child.layers, parent.layers))
        assert np.array_equal(child.g, advance_per_call(net, parent, tok).g)
    assert peak < prefix_bytes, (peak, prefix_bytes)


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
    # each label runs one new row through each block, which projects its
    # key and value; the prefix's rows come from the cache, never projected
    # again
    rng = np.random.default_rng(17)
    net = PredictionNetwork(9, 8, 2, 16, 3, rng)
    projected = []
    for block in net.blocks:
        def output_np(x, *args, step=block.output_np):
            projected.append(x.shape[0])
            return step(x, *args)
        block.output_np = output_np
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
    want = net.params["pred.emb"].data[1] * 4.0 + positional_encoding([0], 16)[0]
    np.testing.assert_allclose(out[0], want, atol=1e-15)
    np.testing.assert_allclose(net.init_state().g, want, atol=1e-15)
