"""Feature pipeline, synthetic tasks, file formats, batching."""

import hashlib
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satkit.data import (SIL, SPLIT_INDEX, TaskSpec, Utterance, _templates,
                         alignment_ids, apply_norm, generate_split, load_dataset,
                         make_batches, norm_stats, normalize_dataset,
                         read_feats, read_token_file, save_dataset,
                         stack_downsample, stream_stack, write_feats,
                         write_token_file)
from satkit.model import ModelConfig
from satkit.ngram import NgramModel
from satkit.ngram import train as lm_train
from satkit.vocab import BLANK, Vocab


# ------------------------------------------------------------------- stacking

def naive_stack(feats, left, right, factor):
    n = feats.shape[0]
    rows = []
    for s in range(0, n, factor):
        parts = [feats[min(max(s + o, 0), n - 1)] for o in range(-left, right + 1)]
        rows.append(np.concatenate(parts))
    return np.asarray(rows, dtype=np.float64)


def test_stack_downsample_hand_case():
    feats = np.arange(10, dtype=np.float64).reshape(5, 2)
    out = stack_downsample(feats, left=2, right=1, factor=2)
    assert out.shape == (3, 8)
    # frame 0 clips left context to raw frame 0
    np.testing.assert_array_equal(out[0], [0, 1, 0, 1, 0, 1, 2, 3])
    # frame 2 clips right context to raw frame 4
    np.testing.assert_array_equal(out[2], [4, 5, 6, 7, 8, 9, 8, 9])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 20), st.integers(1, 4), st.integers(0, 4),
       st.integers(0, 4), st.integers(1, 5))
def test_stack_downsample_matches_naive(n, dim, left, right, factor):
    rng = np.random.default_rng(n * 100 + dim)
    feats = rng.normal(size=(n, dim))
    out = stack_downsample(feats, left, right, factor)
    assert out.shape[0] == -(-n // factor)
    assert out.dtype == np.float64
    np.testing.assert_array_equal(out, naive_stack(feats, left, right, factor))
    # the same rows, bit for bit, from frames pulled one at a time: row s
    # right after raw frame factor*s + right is pulled, the rest at the end
    pulled = 0

    def source():
        nonlocal pulled
        for frame in feats:
            pulled += 1
            yield frame

    rows = []
    for s, row in enumerate(stream_stack(source(), left, right, factor)):
        assert pulled == min(n, factor * s + right + 1), s
        rows.append(row)
    assert np.array_equal(np.asarray(rows), out)


def test_stack_downsample_validation():
    with pytest.raises(ValueError):
        stack_downsample(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        stack_downsample(np.zeros(5))
    # a stacking no stacker can run is refused, not divided by zero or looped
    for left, right, factor in ((3, 1, 0), (-1, 1, 3), (3, -1, 3)):
        with pytest.raises(ValueError, match="frame stacking"):
            stack_downsample(np.zeros((6, 2)), left, right, factor)
        with pytest.raises(ValueError, match="frame stacking"):
            next(stream_stack(iter(np.zeros((6, 2))), left, right, factor))


# -------------------------------------------------------------- normalization

def test_norm_stats_and_apply():
    a = np.array([[1.0, 5.0], [3.0, 5.0]])
    mean, std = norm_stats([a])
    np.testing.assert_array_equal(mean, [2.0, 5.0])
    np.testing.assert_array_equal(std, [1.0, 0.0])
    out = apply_norm(a, mean, std)
    np.testing.assert_array_equal(out[:, 0], [-1.0, 1.0])
    # zero-variance dimension maps to exactly 0
    np.testing.assert_array_equal(out[:, 1], [0.0, 0.0])


def _utt(utt_id, feats, speaker):
    from satkit.data import Utterance
    return Utterance(utt_id=utt_id, feats=np.asarray(feats, dtype=np.float32),
                     targets=["t0"], speaker=speaker)


def test_normalize_per_utterance():
    rng = np.random.default_rng(0)
    utts = [_utt(f"u{i}", rng.normal(loc=i, size=(20, 3)), "s") for i in range(3)]
    normalize_dataset(utts, scope="per-utterance")
    for u in utts:
        np.testing.assert_allclose(u.feats.mean(axis=0), 0.0, atol=1e-5)
        np.testing.assert_allclose(u.feats.std(axis=0), 1.0, atol=1e-5)


def test_normalize_per_speaker_pools_within_speaker():
    rng = np.random.default_rng(1)
    utts = [_utt("a1", rng.normal(loc=3, size=(30, 2)), "spkA"),
            _utt("a2", rng.normal(loc=-3, size=(30, 2)), "spkA"),
            _utt("b1", rng.normal(loc=10, size=(30, 2)), "spkB")]
    normalize_dataset(utts, scope="per-speaker")
    pooled = np.concatenate([utts[0].feats, utts[1].feats])
    np.testing.assert_allclose(pooled.mean(axis=0), 0.0, atol=1e-5)
    # each speaker-A utterance keeps its offset from the speaker mean
    assert abs(utts[0].feats.mean()) > 0.5
    np.testing.assert_allclose(utts[2].feats.mean(axis=0), 0.0, atol=1e-5)


def test_normalize_shared_speaker_and_bad_scope():
    # load_dataset folds utt2spk into Utterance.speaker: utterances that
    # share a speaker pool their statistics
    rng = np.random.default_rng(2)
    utts = [_utt("u1", rng.normal(loc=4, size=(25, 2)), "z"),
            _utt("u2", rng.normal(loc=-4, size=(25, 2)), "z")]
    normalize_dataset(utts, scope="per-speaker")
    pooled = np.concatenate([u.feats for u in utts])
    np.testing.assert_allclose(pooled.mean(axis=0), 0.0, atol=1e-5)
    with pytest.raises(ValueError):
        normalize_dataset(utts, scope="global")


# ------------------------------------------------------------ synthetic tasks

def test_generate_is_deterministic_per_spec():
    spec = TaskSpec(vocab_size=6, feature_dim=4, noise=0.5, seed=3)
    a = generate_split(spec, 5, "train")
    b = generate_split(spec, 5, "train")
    for ua, ub in zip(a, b):
        assert ua.utt_id == ub.utt_id
        assert ua.feats.tobytes() == ub.feats.tobytes()
        assert ua.targets == ub.targets and ua.alignment == ub.alignment
    c = generate_split(spec, 5, "dev")
    assert a[0].feats.tobytes() != c[0].feats.tobytes()


def test_generate_alignment_matches_targets_and_frames():
    spec = TaskSpec(vocab_size=8, feature_dim=4, noise=0.2, seed=1, factor=3)
    for u in generate_split(spec, 10, "train"):
        assert u.feats.shape == (len(u.alignment) * 3, 4)
        assert [t for t in u.alignment if t != SIL] == u.targets
        assert u.alignment[-1] != ""  # well-formed strings throughout


def test_noiseless_frames_replicate_templates():
    spec = TaskSpec(vocab_size=4, feature_dim=5, noise=0.0, seed=2, factor=2)
    u = generate_split(spec, 1, "train")[0]
    frames = u.feats.reshape(len(u.alignment), 2, 5)
    # factor raw frames per model frame are identical copies
    np.testing.assert_array_equal(frames[:, 0], frames[:, 1])
    # leading silence is the zero template
    assert u.alignment[0] == SIL
    np.testing.assert_array_equal(frames[0], 0.0)


def test_segment_classify_layout():
    spec = TaskSpec(kind="segment-classify", vocab_size=4, feature_dim=3,
                    min_tokens=2, max_tokens=2, seed=5)
    u = generate_split(spec, 1, "train")[0]
    # 1 leading sil + per token (3 frames + 1 sil)
    assert len(u.alignment) == 1 + 2 * 4
    # the last frame of each 3-frame segment carries the token
    assert u.alignment[3] == u.targets[0]
    assert u.alignment[1] == SIL and u.alignment[2] == SIL


def test_task_spec_validation():
    with pytest.raises(ValueError):
        TaskSpec(kind="copy")
    with pytest.raises(ValueError):
        TaskSpec(vocab_size=1)
    with pytest.raises(ValueError):
        generate_split(TaskSpec(), 1, "eval")


@pytest.mark.parametrize("field,value", [
    ("factor", 0), ("factor", -1), ("feature_dim", 0), ("noise", -1.0),
    ("noise", float("nan")), ("noise", float("inf")), ("min_tokens", 0),
    ("max_tokens", 2)])
def test_task_spec_rejects_values_no_split_can_use(field, value):
    # each would give empty features or targets, or fail deep inside numpy;
    # max_tokens 2 is below the default min_tokens 3
    with pytest.raises(ValueError, match=field):
        TaskSpec(**{field: value})
    TaskSpec(min_tokens=4, max_tokens=4)


def _reference_split(spec, n_utts, split="train"):
    """The generator before it built utterances from arrays, kept verbatim as
    an oracle: one noise draw and one row write per raw frame."""
    templates = _templates(spec)
    rng = np.random.default_rng([spec.seed, SPLIT_INDEX[split]])
    names = spec.token_names()
    fixed = spec.kind == "segment-classify"
    utts = []
    for i in range(n_utts):
        n_tok = int(rng.integers(spec.min_tokens, spec.max_tokens + 1))
        tokens = rng.integers(0, spec.vocab_size, size=n_tok)
        frames = []                 # per model frame: token index or None
        alignment = []
        frames += [None] * (1 if fixed else int(rng.integers(1, 3)))
        for tok in tokens:
            seg = 3 if fixed else int(rng.integers(2, 5))
            frames += [tok] * seg
            sil = 1 if fixed else int(rng.integers(1, 3))
            frames += [None] * sil
        for j, f in enumerate(frames):
            alignment.append(names[f] if _is_segment_end(frames, j) else SIL)
        raw = np.empty((len(frames) * spec.factor, spec.feature_dim))
        for j, f in enumerate(frames):
            tpl = templates[f] if f is not None else np.zeros(spec.feature_dim)
            for r in range(spec.factor):
                noise = rng.standard_normal(spec.feature_dim) if spec.noise > 0 else 0.0
                raw[j * spec.factor + r] = tpl + spec.noise * noise
        utts.append(Utterance(
            utt_id=f"{spec.kind}-{split}-{i:05d}",
            feats=raw.astype(np.float32),
            targets=[names[t] for t in tokens],
            alignment=alignment,
            speaker=f"spk{i % 4}",
        ))
    return utts


def _is_segment_end(frames, j):
    return frames[j] is not None and (j + 1 == len(frames) or frames[j + 1] != frames[j])


def _fields(u):
    return (u.utt_id, u.targets, u.alignment, u.speaker, u.feats.shape,
            u.feats.dtype.str, u.feats.tobytes())


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["delayed-copy", "segment-classify"]),
       st.sampled_from([0.0, 0.05, 0.7, 1.5]), st.integers(1, 4), st.integers(1, 8),
       st.integers(2, 16), st.integers(1, 5), st.integers(0, 4),
       st.sampled_from(["train", "dev", "test"]), st.integers(0, 2**32 - 1))
def test_generate_split_matches_reference_oracle(kind, noise, factor, feature_dim,
                                                 vocab_size, min_tokens, extra,
                                                 split, seed):
    spec = TaskSpec(kind=kind, vocab_size=vocab_size, feature_dim=feature_dim,
                    min_tokens=min_tokens, max_tokens=min_tokens + extra,
                    noise=noise, seed=seed, factor=factor)
    got = generate_split(spec, 4, split)
    want = _reference_split(spec, 4, split)
    assert [_fields(u) for u in got] == [_fields(u) for u in want]


def _digest(utts):
    h = hashlib.sha256()
    for u in utts:
        *head, payload = _fields(u)
        h.update(repr(tuple(head)).encode())
        h.update(payload)
    return h.hexdigest()


# Digests of the per-raw-frame generator's output, so that an edit to the
# oracle above cannot hide a drift in the generated bits.
@pytest.mark.parametrize("spec,n_utts,split,digest", [
    # satbench's FIXTURE_TASK, the decode workloads' test split
    (TaskSpec(kind="delayed-copy", vocab_size=16, feature_dim=8, min_tokens=8,
              max_tokens=16, noise=0.3, seed=7), 300, "test",
     "2449fce0b27e631d99500e68cc58151df4b6aac71f666a53b70e8ed709718de1"),
    # satbench train-short's noiseless task
    (TaskSpec(kind="delayed-copy", vocab_size=16, feature_dim=8, min_tokens=3,
              max_tokens=8, noise=0.0, seed=7), 1200, "train",
     "29da06406efb83e66dc734cd3f757998a8ca12707d14eb71fdf1aefc9d05bddb"),
    (TaskSpec(kind="segment-classify", vocab_size=5, feature_dim=3, min_tokens=2,
              max_tokens=6, noise=1.5, seed=2, factor=4), 50, "dev",
     "7fe6cc983d83cfc73695bc3684b102afb193642af657642030202d0cdedddc2b"),
    (TaskSpec(kind="delayed-copy", vocab_size=2, feature_dim=1, min_tokens=1,
              max_tokens=4, noise=0.7, seed=9, factor=1), 50, "train",
     "1638a85317e17270a23782815c4f8afed6749ebab1f5eb4b45d824ac719d770b")],
    ids=["fixture-test", "train-short", "segment-classify", "factor-1"])
def test_generated_bits_match_pinned_digests(spec, n_utts, split, digest):
    assert _digest(generate_split(spec, n_utts, split)) == digest


class _CountingRng:
    """A Generator that records the name of every method called on it."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = []

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls.append(name)
            return method(*args, **kwargs)
        return counted


@pytest.mark.parametrize("noise", [0.0, 0.4])
def test_one_noise_draw_per_utterance(monkeypatch, noise):
    # guards the speed of generation without a timing bound: a noise draw
    # per raw frame would show up here as thousands of calls
    spec = TaskSpec(vocab_size=6, feature_dim=4, min_tokens=5, max_tokens=9,
                    noise=noise, seed=4)
    want = generate_split(spec, 12, "dev")
    made = []
    real = np.random.default_rng

    def default_rng(*args, **kwargs):
        made.append(_CountingRng(real(*args, **kwargs)))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", default_rng)
    got = generate_split(spec, 12, "dev")
    assert [_fields(u) for u in got] == [_fields(u) for u in want]
    templates, stream = made
    assert templates.calls == ["standard_normal"]
    normals = stream.calls.count("standard_normal")
    assert normals == (12 if noise > 0 else 0)
    assert set(stream.calls) <= {"integers", "standard_normal"}


def test_generate_split_refuses_a_negative_count():
    with pytest.raises(ValueError, match="n_utts"):
        generate_split(TaskSpec(), -3)
    assert generate_split(TaskSpec(), 0) == []


@pytest.mark.parametrize("noise", [1e39, 1e308])
def test_noise_outside_float32_range_is_refused(noise):
    # 1e39 overflows the float32 cast, 1e308 the float64 sum before it
    with pytest.raises(ValueError, match="float32"):
        generate_split(TaskSpec(vocab_size=4, feature_dim=3, noise=noise), 2)


def test_alignment_feeds_lattice_path():
    from satkit.pathreg import build_path

    spec = TaskSpec(vocab_size=6, feature_dim=4, seed=7, factor=3)
    vocab = spec.vocab()
    for u in generate_split(spec, 5, "train"):
        align = alignment_ids(u.alignment, vocab)
        targets = vocab.ids(u.targets)
        # stacking at the task factor gives one stacked frame per align entry
        stacked = stack_downsample(u.feats, 3, 1, 3)
        assert stacked.shape[0] == len(align)
        path = build_path(align, targets)
        assert len(path) == len(align) + len(targets)


def test_alignment_ids_maps_silence_to_blank():
    vocab = Vocab.build(["a", "b"])
    assert alignment_ids([SIL, "a", SIL, "b"], vocab) == [BLANK, 3, BLANK, 4]


# --------------------------------------------------------------- file formats

def test_feats_round_trip_and_errors(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.normal(size=(7, 3)).astype(np.float32)
    p = tmp_path / "x.sf"
    write_feats(p, arr)
    np.testing.assert_array_equal(read_feats(p), arr)
    (tmp_path / "bad.sf").write_bytes(b"NOTMAGIC" + b"\x00" * 8)
    with pytest.raises(ValueError):
        read_feats(tmp_path / "bad.sf")
    # a file cut short in the header or the payload names itself
    blob = p.read_bytes()
    for end in (12, len(blob) - 5, len(blob) - 4):
        (tmp_path / f"cut{end}.sf").write_bytes(blob[:end])
        with pytest.raises(ValueError, match=f"cut{end}.sf: truncated"):
            read_feats(tmp_path / f"cut{end}.sf")


def test_feats_header_is_checked_against_the_file_size(tmp_path):
    # a header claiming 2^20 x 2^20 values over a few bytes is refused
    # before any read, not met with a 4 TiB allocation
    p = tmp_path / "huge.sf"
    p.write_bytes(b"SATFEAT1" + struct.pack("<II", 1 << 20, 1 << 20) + b"\x00" * 12)
    with pytest.raises(ValueError, match=r"huge\.sf: truncated feature payload \(the header "
                                         r"claims 1048576 x 1048576 values, 12 bytes follow\)"):
        read_feats(p)


def test_feats_with_no_frames_are_rejected(tmp_path):
    p = tmp_path / "empty.sf"
    write_feats(p, np.zeros((0, 3), dtype=np.float32))
    with pytest.raises(ValueError, match="empty.sf: no frames"):
        read_feats(p)


def test_token_file_round_trip(tmp_path):
    entries = [("u1", ["a", "b"]), ("u2", []), ("u3", ["c"])]
    p = tmp_path / "text"
    write_token_file(p, entries)
    assert read_token_file(p) == {"u1": ["a", "b"], "u2": [], "u3": ["c"]}


def test_dataset_round_trip(tmp_path):
    spec = TaskSpec(vocab_size=5, feature_dim=3, noise=0.1, seed=11)
    utts = generate_split(spec, 4, "dev")
    save_dataset(tmp_path / "dev", utts)
    back = load_dataset(tmp_path / "dev")
    assert [u.utt_id for u in back] == [u.utt_id for u in utts]
    for a, b in zip(utts, back):
        np.testing.assert_array_equal(a.feats, b.feats)
        assert a.targets == b.targets
        assert a.alignment == b.alignment
        assert a.speaker == b.speaker
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path / "missing")


def test_load_dataset_closes_utt2spk(tmp_path):
    import gc
    import warnings

    spec = TaskSpec(vocab_size=5, feature_dim=3, noise=0.1, seed=11)
    save_dataset(tmp_path / "dev", generate_split(spec, 2, "dev"))
    assert (tmp_path / "dev" / "utt2spk").exists()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        load_dataset(tmp_path / "dev")
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def _dev_set(tmp_path):
    spec = TaskSpec(vocab_size=5, feature_dim=3, noise=0.1, seed=11)
    save_dataset(tmp_path / "dev", generate_split(spec, 2, "dev"))
    return tmp_path / "dev"


def test_utt2spk_line_without_a_speaker_names_the_file_and_the_line(tmp_path):
    d = _dev_set(tmp_path)
    first = load_dataset(d)[0].utt_id
    (d / "utt2spk").write_text(f"{first}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(
            f"{d / 'utt2spk'}: line '{first}' needs one speaker")):
        load_dataset(d)


@pytest.mark.parametrize("name", ["text", "align", "utt2spk"])
def test_a_repeated_utterance_id_is_refused(tmp_path, name):
    d = _dev_set(tmp_path)
    lines = (d / name).read_text(encoding="utf-8").splitlines()
    (d / name).write_text("\n".join(lines + [lines[0]]) + "\n", encoding="utf-8")
    utt = lines[0].split()[0]
    with pytest.raises(ValueError, match=re.escape(
            f"{d / name}: utterance '{utt}' appears twice")):
        load_dataset(d)
    (tmp_path / "ref").write_text("u1 a b\nu1 c\n", encoding="utf-8")
    with pytest.raises(ValueError, match="ref: utterance 'u1' appears twice"):
        read_token_file(tmp_path / "ref")


def _not_utf8(path):
    """Put a byte that no UTF-8 text holds in the middle of ``path``."""
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2] + b"\xff" + data[len(data) // 2:])


@pytest.mark.parametrize("case", ["model-config", "vocab", "vocab-duplicate",
                                  "vocab-reserved", "lm", "text", "utt2spk"])
def test_a_bad_text_file_fails_naming_the_file(tmp_path, case):
    d = _dev_set(tmp_path)
    ModelConfig(d_m=8).save(tmp_path / "model.config")
    Vocab.build(["a", "b"]).save(tmp_path / "vocab.txt")
    # Big enough that the middle byte lies past the reader's first buffer,
    # inside the body NgramModel.load parses.
    corpus = [[f"t{(i * j + j * j) % 40}" for j in range(30)] for i in range(40)]
    lm_train(corpus, order=3).save(tmp_path / "lm.txt")
    path, load = {
        "model-config": (tmp_path / "model.config", ModelConfig.load),
        "vocab": (tmp_path / "vocab.txt", Vocab.load),
        "vocab-duplicate": (tmp_path / "vocab.txt", Vocab.load),
        "vocab-reserved": (tmp_path / "vocab.txt", Vocab.load),
        "lm": (tmp_path / "lm.txt", NgramModel.load),
        "text": (d / "text", read_token_file),
        "utt2spk": (d / "utt2spk", lambda _: load_dataset(d)),
    }[case]
    if case == "vocab-duplicate":
        path.write_text("<blank>\n<sos>\n<unk>\na\na\n", encoding="utf-8")
    elif case == "vocab-reserved":
        path.write_text("a\n<blank>\n<sos>\n<unk>\n", encoding="utf-8")
    else:
        _not_utf8(path)
    reason = "" if case.startswith("vocab-") else "not UTF-8 text ("
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {reason}")) as err:
        load(path)
    assert not isinstance(err.value, UnicodeError)


# ------------------------------------------------------------------- batching

def test_make_batches_padding_and_mask():
    spec = TaskSpec(vocab_size=5, feature_dim=4, seed=13, min_tokens=2,
                    max_tokens=6)
    vocab = spec.vocab()
    utts = generate_split(spec, 7, "train")
    batches = make_batches(utts, vocab, batch_size=3)
    assert sum(len(b.utt_ids) for b in batches) == 7
    lengths = []
    for b in batches:
        assert b.feats.shape[0] == len(b.utt_ids) <= 3
        assert b.feats.shape[2] == 4 * 5  # stacked dim for left 3 right 1
        assert b.feat_lengths.max() == b.feats.shape[1]
        for i, n in enumerate(b.feat_lengths):
            lengths.append(int(n))
            assert 1 <= n <= b.feats.shape[1]
            # padding stays zero
            np.testing.assert_array_equal(b.feats[i, n:], 0.0)
            assert b.targets[i] == vocab.ids(next(u.targets for u in utts
                                                  if u.utt_id == b.utt_ids[i]))
            assert b.alignments[i] is not None
    # sorted by stacked length across the batch stream
    assert lengths == sorted(lengths)
