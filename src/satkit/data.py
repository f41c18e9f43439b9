"""Feature pipeline, synthetic transduction tasks, and dataset plumbing.

Synthetic tasks are generated at the model frame rate: every model frame
spans ``factor`` raw feature frames built from one template plus noise, so the
oracle alignment (one token per model frame) lines up with the downsampled
sequence by construction. An utterance draws its integers, then one block of
noise; that order keeps a dataset's bits the same from one version to the next.

Frame stacking comes in two forms with the same bits: :func:`stack_downsample`
over a whole matrix, and the generator :func:`stream_stack` over raw frames
pulled one at a time, the first stage of streaming decoding.

File formats:
  features   binary, magic "SATFEAT1", uint32 rows/cols, little-endian
             float32 row-major payload
  text       one utterance per line: "utt_id tok tok ..."
  alignments same shape as text with "sil" for silence frames
  utt2spk    one "utt_id speaker" pair per line
"""

import os
import struct
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .vocab import BLANK, RESERVED, Vocab, open_text

FEAT_MAGIC = b"SATFEAT1"
SIL = "sil"


def check_stacking(left: int, right: int, factor: int) -> None:
    """Refuse a stacking no stacker can run: negative context or factor < 1."""
    if left < 0 or right < 0 or factor < 1:
        raise ValueError(f"frame stacking needs stack_left >= 0, stack_right >= 0 and "
                         f"factor >= 1, got {left}, {right} and {factor}")


def stack_downsample(features: np.ndarray, left: int = 3, right: int = 1,
                     factor: int = 3) -> np.ndarray:
    """Frame stacking with edge replication, then keep every factor-th frame.

    Output frame s concatenates raw frames [factor*s - left, factor*s + right]
    clipped into range; output length is ceil(frames / factor). Always
    returns float64 (the model-facing dtype).
    """
    check_stacking(left, right, factor)
    feats = np.asarray(features)
    if feats.ndim != 2 or feats.shape[0] < 1:
        raise ValueError(f"features must be (frames, dim) with frames >= 1, got {feats.shape}")
    n = feats.shape[0]
    base = np.arange(0, n, factor)[:, None]
    idx = np.clip(base + np.arange(-left, right + 1)[None, :], 0, n - 1)
    return feats[idx].reshape(len(base), -1).astype(np.float64)


def stream_stack(frames, left: int = 3, right: int = 1, factor: int = 3):
    """:func:`stack_downsample` over raw frames pulled one at a time.

    Stacked row s is yielded once raw frame factor*s + right has been
    pulled; the rest are yielded, with end-of-stream edge replication, when
    ``frames`` ends. The rows are those of the matrix, bit for bit. Only the
    newest left + right + 1 raw frames are kept, which covers every window
    still to be built.
    """
    check_stacking(left, right, factor)
    ring = deque(maxlen=left + right + 1)
    n = centre = 0  # raw frames pulled; raw index of the next row's centre

    def row():
        first = n - len(ring)  # raw index of ring[0]
        return np.concatenate([ring[min(max(centre + o, 0), n - 1) - first]
                               for o in range(-left, right + 1)]).astype(np.float64)

    for frame in frames:
        ring.append(np.asarray(frame))
        n += 1
        if centre + right < n:
            yield row()
            centre += factor
    while centre < n:
        yield row()
        centre += factor


def norm_stats(feature_matrices):
    """Per-dimension mean and standard deviation over a list of matrices."""
    stacked = np.concatenate([np.asarray(f, dtype=np.float64) for f in feature_matrices])
    return stacked.mean(axis=0), stacked.std(axis=0)


def apply_norm(features: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    """(x - mean) / std per dimension; zero-variance dimensions map to 0."""
    out = np.asarray(features, dtype=np.float64) - mean
    nz = std > 0.0
    out[:, nz] /= std[nz]
    out[:, ~nz] = 0.0
    return out


def normalize_dataset(utterances, scope: str = "per-speaker"):
    """Normalize features in place over the requested statistics scope;
    per-speaker pools the utterances that share ``Utterance.speaker``."""
    if scope == "per-utterance":
        groups = {u.utt_id: [u] for u in utterances}
    elif scope == "per-speaker":
        groups = {}
        for u in utterances:
            groups.setdefault(u.speaker, []).append(u)
    else:
        raise ValueError(f"unknown scope {scope!r}")
    for members in groups.values():
        mean, std = norm_stats([u.feats for u in members])
        for u in members:
            u.feats = apply_norm(u.feats, mean, std).astype(np.float32)
    return utterances


@dataclass
class Utterance:
    utt_id: str
    feats: np.ndarray              # raw (frames, feature_dim) float32
    targets: list                  # token strings
    alignment: list = None         # per model-frame token strings, SIL for silence
    speaker: str = "global"


@dataclass(frozen=True)
class TaskSpec:
    """Synthetic task description; identical spec -> identical dataset."""

    kind: str = "delayed-copy"     # or "segment-classify"
    vocab_size: int = 16           # user tokens
    feature_dim: int = 8
    min_tokens: int = 3
    max_tokens: int = 10
    noise: float = 0.0
    seed: int = 0
    factor: int = 3                # raw frames per model frame

    def __post_init__(self):
        if self.kind not in ("delayed-copy", "segment-classify"):
            raise ValueError(f"unknown task kind {self.kind!r}")
        if self.vocab_size < 2:
            raise ValueError(f"need at least 2 tokens, got {self.vocab_size}")
        if self.feature_dim < 1:
            raise ValueError(f"feature_dim must be >= 1, got {self.feature_dim}")
        if not 1 <= self.min_tokens <= self.max_tokens:
            raise ValueError(f"need 1 <= min_tokens <= max_tokens, got {self.min_tokens}, "
                             f"{self.max_tokens}")
        if not 0.0 <= self.noise < float("inf"):
            raise ValueError(f"noise must be finite and >= 0, got {self.noise}")
        check_stacking(0, 0, self.factor)

    def token_names(self):
        return [f"t{i}" for i in range(self.vocab_size)]

    def vocab(self) -> Vocab:
        return Vocab(list(RESERVED) + self.token_names())


def _templates(spec: TaskSpec) -> np.ndarray:
    """One feature template per token, shared across splits."""
    rng = np.random.default_rng(spec.seed)
    return rng.standard_normal((spec.vocab_size, spec.feature_dim))


SPLIT_INDEX = {"train": 0, "dev": 1, "test": 2}


def generate_split(spec: TaskSpec, n_utts: int, split: str = "train"):
    """Generate one split of the task; templates are shared, streams are not.

    delayed-copy: token segments of 2-4 model frames separated by 1-2 silence
    frames (plus a leading silence); segment-classify: fixed 3-frame segments
    with single silence separators. The alignment marks the last frame of
    each token segment; everything else is silence. Raw features replicate
    the frame's template (zeros for silence) ``factor`` times, plus ``noise``
    times a standard normal per value.

    One utterance draws, one call per value, its token count, its tokens and
    (delayed-copy only) its leading silence length and each token's segment
    and silence lengths; then, if ``noise > 0``, one block of normals shaped
    (raw frames, feature_dim). That order keeps every dataset's bits the
    same from one version to the next.
    """
    if split not in SPLIT_INDEX:
        raise ValueError(f"split must be one of {sorted(SPLIT_INDEX)}, got {split!r}")
    if n_utts < 0:
        raise ValueError(f"n_utts must be >= 0, got {n_utts}")
    # row vocab_size is the silence template
    table = np.concatenate([_templates(spec), np.zeros((1, spec.feature_dim))])
    silence = spec.vocab_size
    rng = np.random.default_rng([spec.seed, SPLIT_INDEX[split]])
    names = spec.token_names()
    fixed = spec.kind == "segment-classify"
    utts = []
    for i in range(n_utts):
        n_tok = int(rng.integers(spec.min_tokens, spec.max_tokens + 1))
        tokens = rng.integers(0, spec.vocab_size, size=n_tok).tolist()
        lead = 1 if fixed else int(rng.integers(1, 3))
        rows, lengths = [silence], [lead]      # template row and model frames per segment
        alignment = [SIL] * lead
        for tok in tokens:
            seg = 3 if fixed else int(rng.integers(2, 5))
            sil = 1 if fixed else int(rng.integers(1, 3))
            rows += [tok, silence]
            lengths += [seg, sil]
            alignment += [SIL] * (seg - 1) + [names[tok]] + [SIL] * sil
        raw = table[np.repeat(rows, np.multiply(lengths, spec.factor))]
        with np.errstate(over="ignore"):    # refused below, not cast to inf
            if spec.noise > 0:
                raw += spec.noise * rng.standard_normal(raw.shape)
            feats = raw.astype(np.float32)
        if not np.isfinite(feats).all():
            raise ValueError(f"noise {spec.noise} gives features outside float32's range")
        utts.append(Utterance(
            utt_id=f"{spec.kind}-{split}-{i:05d}",
            feats=feats,
            targets=[names[t] for t in tokens],
            alignment=alignment,
            speaker=f"spk{i % 4}",
        ))
    return utts


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def write_feats(path, features: np.ndarray) -> None:
    arr = np.ascontiguousarray(features, dtype=np.float32)
    with open(path, "wb") as f:
        f.write(FEAT_MAGIC)
        f.write(struct.pack("<II", arr.shape[0], arr.shape[1]))
        f.write(arr.astype("<f4").tobytes())


def read_feats(path) -> np.ndarray:
    with open(path, "rb") as f:
        if f.read(8) != FEAT_MAGIC:
            raise ValueError(f"{path}: not a feature file")
        head = f.read(8)
        if len(head) < 8:
            raise ValueError(f"{path}: truncated feature header")
        rows, cols = struct.unpack("<II", head)
        if rows == 0:
            raise ValueError(f"{path}: no frames")
        size = os.fstat(f.fileno()).st_size - f.tell()
        if size < rows * cols * 4:  # before reading: a bad header allocates nothing
            raise ValueError(f"{path}: truncated feature payload (the header claims "
                             f"{rows} x {cols} values, {size} bytes follow)")
        payload = f.read(rows * cols * 4)
    return np.frombuffer(payload, dtype="<f4").reshape(rows, cols).astype(np.float32)


def write_token_file(path, entries) -> None:
    """entries: iterable of (utt_id, token list)."""
    with open(path, "w", encoding="utf-8") as f:
        for utt_id, tokens in entries:
            f.write(utt_id + (" " + " ".join(tokens) if tokens else "") + "\n")


def read_token_file(path) -> dict:
    """utt_id -> tokens; an id on two lines raises ``ValueError`` naming it."""
    out = {}
    with open_text(path) as f:
        for line in f:
            parts = line.split()
            if parts:
                if parts[0] in out:
                    raise ValueError(f"{path}: utterance {parts[0]!r} appears twice")
                out[parts[0]] = parts[1:]
    return out


def save_dataset(dirpath, utterances) -> None:
    """Write one split: feats/<utt>.sf + text + align + utt2spk."""
    d = Path(dirpath)
    (d / "feats").mkdir(parents=True, exist_ok=True)
    for u in utterances:
        write_feats(d / "feats" / f"{u.utt_id}.sf", u.feats)
    write_token_file(d / "text", [(u.utt_id, u.targets) for u in utterances])
    if all(u.alignment is not None for u in utterances):
        write_token_file(d / "align", [(u.utt_id, u.alignment) for u in utterances])
    with open(d / "utt2spk", "w", encoding="utf-8") as f:
        for u in utterances:
            f.write(f"{u.utt_id} {u.speaker}\n")


def load_dataset(dirpath):
    d = Path(dirpath)
    if not (d / "text").exists():
        raise FileNotFoundError(f"no text file under {d}")
    text = read_token_file(d / "text")
    aligns = read_token_file(d / "align") if (d / "align").exists() else {}
    utt2spk = read_token_file(d / "utt2spk") if (d / "utt2spk").exists() else {}
    for utt_id, rest in utt2spk.items():
        if len(rest) != 1:
            raise ValueError(f"{d / 'utt2spk'}: line {' '.join([utt_id] + rest)!r} "
                             f"needs one speaker after the utterance id")
    utts = []
    for utt_id in text:
        utts.append(Utterance(
            utt_id=utt_id,
            feats=read_feats(d / "feats" / f"{utt_id}.sf"),
            targets=text[utt_id],
            alignment=aligns.get(utt_id),
            speaker=utt2spk[utt_id][0] if utt_id in utt2spk else "global",
        ))
    return utts


def alignment_ids(alignment_tokens, vocab: Vocab):
    """Token-string alignment -> id sequence with silence mapped to blank."""
    return [BLANK if tok == SIL else vocab.id(tok) for tok in alignment_tokens]


# ---------------------------------------------------------------------------
# Batching
# ---------------------------------------------------------------------------

@dataclass
class Batch:
    utt_ids: list
    feats: np.ndarray          # (B, T_max, stacked_dim) zero-padded float64
    feat_lengths: np.ndarray   # (B,) stacked frames per utterance
    targets: list              # list of id lists (unpadded)
    alignments: list           # list of id lists or None


def make_batches(utterances, vocab: Vocab, batch_size: int, left: int = 3,
                 right: int = 1, factor: int = 3):
    """Stack/downsample each utterance and group into padded batches.

    Sorting by stacked length keeps padding waste down. Frames past each
    utterance's ``feat_lengths`` entry are zero; the encoder's key-padding
    mask and the lattice's lengths keep them out of every loss.
    """
    # Stacked length is ceil(frames / factor); each utterance is stacked
    # straight into its batch, so only one stacked copy exists at a time.
    lengths = [-(-u.feats.shape[0] // factor) for u in utterances]
    order = sorted(range(len(utterances)),
                   key=lambda i: (lengths[i], utterances[i].utt_id))
    batches = []
    for i in range(0, len(order), batch_size):
        part = [utterances[j] for j in order[i:i + batch_size]]
        n = np.array([lengths[j] for j in order[i:i + batch_size]], dtype=np.int64)
        dim = part[0].feats.shape[1] * (left + 1 + right)
        feats = np.zeros((len(part), n.max(), dim))
        for b, u in enumerate(part):
            feats[b, :n[b]] = stack_downsample(u.feats, left, right, factor)
        batches.append(Batch(
            utt_ids=[u.utt_id for u in part],
            feats=feats,
            feat_lengths=n,
            targets=[vocab.ids(u.targets) for u in part],
            alignments=[alignment_ids(u.alignment, vocab) if u.alignment else None
                        for u in part],
        ))
    return batches
