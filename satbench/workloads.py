"""The four satkit workloads, driven through satkit's public API only.

Each workload is a single-process closed loop with one client: the next
operation starts when the previous one has returned. An operation is one
training step, one utterance decoded greedily and then by beam search, or
one raw frame pulled through the streaming decoder. Operation cost is its
latency, except on decode-offline, where it is the utterance's latency per
stacked frame, so that it does not depend on which lengths a seed picks.

Work comes in whole *units* whose content the workload seed fixes: a
training run of a fixed step count, a pass over a fixed utterance set, one
stream of a fixed length. Losses, CERs, labels and counts therefore repeat
exactly for a seed and only times vary. :func:`measure` runs units while the
next one is expected to fit in the time budget, and always at least one.

Inputs come from ``satkit.data.generate_split``: each workload generates a
pool from a fixed task and the seed picks and orders utterances from it, so
satkit sees only generated utterances. The decode workloads load the
committed fixture checkpoint instead of training one (``make_fixture.py``).
"""

import gc
import hashlib
import logging
import math
import statistics
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import satkit.autodiff
import satkit.kernels
import satkit.train
from satkit import ngram
from satkit.data import TaskSpec, generate_split, stack_downsample
from satkit.decode import (DecodeConfig, beam_decode, corpus_cer, greedy_decode,
                           greedy_trace, stream_decode)
from satkit.lattice import transducer_loss
from satkit.model import ModelConfig, SATModel
from satkit.train import TrainConfig, Trainer

from pace import Pace
from tracer import Proxy

HERE = Path(__file__).resolve().parent
FIXTURE_PATH = HERE / "fixture" / "decode.ckpt"
FIXTURE_SHA256 = "58735c0319ed6d5753112c2f165bdbb7852d4b543570fcc148ebb59bac35c5d0"
FIXTURE_TASK = TaskSpec(kind="delayed-copy", vocab_size=16, feature_dim=8,
                        min_tokens=8, max_tokens=16, noise=0.3, seed=7)
RAW_FRAME_S = 0.010        # audio time of one raw frame
SETUP_REPEATS = 5          # set-ups per measurement; setup_s is their median
LM_ORDER, BEAM_WIDTH, LM_WEIGHT = 3, 4, 0.2
CER_BOUND = 0.25           # a decode unit whose greedy or beam CER exceeds this fails


def fixture_model_config(vocab_size: int) -> ModelConfig:
    return ModelConfig(feature_dim=8, d_m=64, n_heads=4, d_ff=128, n_enc_blocks=2,
                       n_pred_blocks=2, d_joint=64, vocab_size=vocab_size,
                       chunk_left="10", chunk_right="5", dropout=0.0)


@dataclass
class Unit:
    """One whole piece of work and what it produced."""

    seconds: float      # paced time inside the timed satkit calls
    audio_s: float      # audio time those calls covered
    op_ms: list         # cost of each operation (decode-offline: per stacked frame)
    outputs: list       # must repeat exactly across units of one run
    extra: dict = field(default_factory=dict)


class Checks:
    """Counts operations and failed ones; keeps the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)
        return ok

    def attempt(self, label, fn, *args, **kwargs):
        """Run one operation; an exception counts as a failure, not a crash."""
        try:
            return fn(*args, **kwargs)
        except Exception:  # one failed operation must not end the run
            self.check(False, f"{label}: {traceback.format_exc(limit=3)}")
            return None


class GuardCounter(logging.Handler):
    """Counts the per-frame symbol-guard warnings that ``satkit.decode`` logs
    while it is attached (``with counter:``), so checks do not add to it."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.hits = 0

    def emit(self, record):
        if "symbol guard" in record.getMessage():
            self.hits += 1

    def __enter__(self):
        logging.getLogger("satkit.decode").addHandler(self)
        return self

    def __exit__(self, *exc):
        logging.getLogger("satkit.decode").removeHandler(self)


def _stacked_s(model) -> float:
    return model.config.factor * RAW_FRAME_S


def _paced(pace, ops):
    """Paced seconds of ``(start, seconds)`` operations."""
    pace.tick(force=True)  # a probe after the last operation
    return [pace.seconds(start, took) for start, took in ops]


def _mean_loss(model, inputs) -> float:
    """Mean transducer loss per utterance of ``(target ids, stacked)`` pairs."""
    return float(np.mean([transducer_loss(model.forward_lattice(x, ids)).item()
                          for ids, x in inputs]))


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainWorkload:
    name: str
    task: dict            # TaskSpec fields
    model: dict           # ModelConfig fields besides vocab_size
    train: dict           # TrainConfig fields
    pool: int             # utterances generated; the seed picks n_utts of them
    n_utts: int
    steps: int            # optimizer steps per unit; `loss` averages their second half

    def prepare(self, seed, tracer=None):
        """Data generation, model build and trainer build: a fresh run."""
        spec = TaskSpec(**self.task)
        pool = _generate(tracer, spec, self.pool, "train")
        rng = np.random.default_rng(seed)
        utts = [pool[i] for i in rng.choice(self.pool, size=self.n_utts, replace=False)]
        vocab = spec.vocab()
        model = SATModel(ModelConfig(vocab_size=vocab.size, **self.model), seed=0)
        if tracer is not None:
            _trace_model(tracer, model)
        trainer = Trainer(model, vocab, utts, [], TrainConfig(**self.train))
        if tracer is not None:
            trainer.optimizer = Proxy(tracer, trainer.optimizer, {"step": "optim.step"})
        return trainer, rng.permutation(len(trainer.batches))

    def unit(self, state, checks, pace, tracer=None):
        trainer, order = state
        step = trainer.train_batch
        if tracer is not None:
            step = tracer.wrap("train.train_batch", step)
        stacked_s = _stacked_s(trainer.model)
        losses, ops = [], []
        audio = 0.0
        utts = 0
        for i in range(self.steps):
            bi = int(order[i % len(order)])
            batch = trainer.batches[bi]
            paths = trainer.paths[bi] if trainer.paths is not None else None
            pace.tick()
            start = time.perf_counter()
            stats = checks.attempt(f"step {i}", step, batch, paths)
            ops.append((start, time.perf_counter() - start))
            audio += float(batch.feat_lengths.sum()) * stacked_s
            utts += len(batch.targets)
            ok = stats is not None and all(math.isfinite(stats[k])
                                           for k in ("transducer", "joint"))
            if stats is not None:
                checks.check(ok, f"step {i}: non-finite loss {stats}")
            losses.append(stats["transducer"] if ok else math.nan)
        secs = _paced(pace, ops)
        return Unit(seconds=sum(secs), audio_s=audio, op_ms=[1e3 * x for x in secs],
                    outputs=losses,
                    extra={"steps": self.steps, "utts": utts})

    def loss(self, state, units) -> float:
        """Mean transducer loss over the second half of the fixed step count.

        The last tenth alone swings with the loss spikes training goes
        through near the end of the warmup, which differ between seeds."""
        losses = units[0].outputs
        return float(np.mean(losses[len(losses) // 2:]))

    def details(self, units):
        rates = [u.extra["utts"] / u.seconds for u in units]
        return {"train_utt_per_s": (statistics.median(rates), "utt/s", len(rates))}

    def per_layer(self, units, tracer):
        steps = sum(u.extra["steps"] for u in units)
        per_step = {
            "nnet.encoder_ms": "nnet.encoder",
            "nnet.prednet_ms": "nnet.prednet",
            "lattice.joint_ms": "lattice.joint",
            "kernels.forward_backward_ms": "kernels.forward_backward",
            "pathreg.par_loss_ms": "pathreg.par_loss",
            "autodiff.backward_ms": "autodiff.backward",
            "optim.step_ms": "optim.step",
            "train.self_ms": "train.train_batch",
        }
        out = {k: tracer.ms(span) / steps for k, span in per_step.items()}
        out["lattice.cells_per_step"] = tracer.counts["lattice.cells"] / steps
        out["data.make_batches_s"] = tracer.mean_s("data.make_batches")
        return out


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

def verify_fixture() -> None:
    """Refuse a fixture whose bytes are not the recorded ones."""
    digest = hashlib.sha256(FIXTURE_PATH.read_bytes()).hexdigest()
    if digest != FIXTURE_SHA256:
        raise ValueError(f"{FIXTURE_PATH} has sha256 {digest}, expected {FIXTURE_SHA256}")


def _load_fixture(tracer):
    load = SATModel.load if tracer is None else tracer.wrap("checkpoint.load", SATModel.load)
    model, _meta, _arrays = load(FIXTURE_PATH)
    return model


@dataclass(frozen=True)
class DecodeWorkload:
    name: str
    pool: int             # test utterances generated; the seed picks `utts` of them
    utts: int             # utterances per unit
    lm_utts: int          # training-split utterances whose text trains the LM

    def prepare(self, seed, tracer=None):
        """Checkpoint load, test data generation and LM training."""
        model = _load_fixture(tracer)
        pool = _generate(tracer, FIXTURE_TASK, self.pool, "test")
        corpus = [u.targets for u in _generate(tracer, FIXTURE_TASK, self.lm_utts, "train")]
        train_lm = ngram.train if tracer is None else tracer.wrap("ngram.train", ngram.train)
        lm = train_lm(corpus, order=LM_ORDER)
        vocab = FIXTURE_TASK.vocab()
        pick = np.random.default_rng(seed).choice(self.pool, size=self.utts, replace=False)
        inputs = [(vocab.ids(pool[i].targets), stack_downsample(pool[i].feats)) for i in pick]
        return model, lm, vocab, inputs

    def unit(self, state, checks, pace, tracer=None):
        model, lm, vocab, inputs = state
        plain, traced_lm = model, lm
        greedy, beam = greedy_decode, beam_decode
        if tracer is not None:
            model = _traced_copy(tracer, model)
            traced_lm = Proxy(tracer, lm, {"score": "ngram.score"})
            greedy = tracer.wrap("decode.greedy_decode", greedy_decode)
            beam = tracer.wrap("decode.beam_decode", beam_decode)
        cfg = DecodeConfig(beam_width=BEAM_WIDTH, lm_weight=LM_WEIGHT)
        cfg_1 = replace(cfg, beam_width=1)
        greedy_ops, beam_ops, refs, g_hyps, b_hyps = [], [], [], [], []
        frames = 0
        guards = GuardCounter()
        for i, (ref, x) in enumerate(inputs):
            pace.tick()
            with guards:
                start = time.perf_counter()
                g = checks.attempt(f"greedy utt {i}", greedy, model, x)
                mid = time.perf_counter()
                b = checks.attempt(f"beam utt {i}", beam, model, x, lm=traced_lm, vocab=vocab,
                                   cfg=cfg)
            greedy_ops.append((start, mid - start))
            beam_ops.append((mid, time.perf_counter() - mid))
            frames += x.shape[0]
            refs.append(ref)
            g_hyps.append(g if g is not None else [])
            b_hyps.append(list(b[0].prefix) if b else [])
            if b:
                # Widening the beam never lowers the best score it finds.
                narrow = beam_decode(plain, x, lm=lm, vocab=vocab, cfg=cfg_1)[0]
                best_s, narrow_s = (h.combined(cfg.lm_weight) for h in (b[0], narrow))
                checks.check(best_s >= narrow_s - 1e-9,
                             f"utt {i}: beam-{cfg.beam_width} score {best_s} "
                             f"< width-1 score {narrow_s}")
        g_cer, b_cer = corpus_cer(refs, g_hyps), corpus_cer(refs, b_hyps)
        for label, value in (("greedy", g_cer), ("beam", b_cer)):
            checks.check(value <= CER_BOUND, f"{label} CER {value:.4f} exceeds {CER_BOUND}")
        g_secs, b_secs = _paced(pace, greedy_ops), _paced(pace, beam_ops)
        return Unit(seconds=sum(g_secs) + sum(b_secs), audio_s=frames * _stacked_s(plain),
                    op_ms=[1e3 * (g + b) / x.shape[0]
                           for g, b, (_, x) in zip(g_secs, b_secs, inputs)],
                    outputs=[g_hyps, b_hyps],
                    extra={"frames": 2 * frames, "greedy_s": sum(g_secs), "beam_s": sum(b_secs),
                           "greedy_cer": g_cer, "beam_cer": b_cer, "guard_hits": guards.hits,
                           "chars": sum(map(len, refs)),
                           "emissions": sum(map(len, g_hyps)) + sum(map(len, b_hyps))})

    def loss(self, state, units) -> float:
        """The fixture's mean transducer loss on the decoded utterances."""
        model, _lm, _vocab, inputs = state
        return _mean_loss(model, inputs)

    def details(self, units):
        audio = sum(u.audio_s for u in units)
        n = len(units) * self.utts
        first = units[0].extra
        return {
            "greedy_rtf": (sum(u.extra["greedy_s"] for u in units) / audio, "ratio", n),
            "beam_rtf": (sum(u.extra["beam_s"] for u in units) / audio, "ratio", n),
            "greedy_cer": (first["greedy_cer"], "ratio", first["chars"]),
            "beam_cer": (first["beam_cer"], "ratio", first["chars"]),
        }

    def per_layer(self, units, tracer):
        frames = sum(u.extra["frames"] for u in units)
        out = _decode_layers(tracer, units, frames)
        out["decode.search_self_ms_per_frame"] = (
            tracer.ms("decode.greedy_decode") + tracer.ms("decode.beam_decode")) / frames
        return out


@dataclass(frozen=True)
class StreamWorkload:
    name: str
    pool: int             # test utterances generated; the seed orders them
    raw_frames: int       # fixed stream length: cost per frame depends on position

    def prepare(self, seed, tracer=None):
        """Checkpoint load and the stream: seed-ordered test utterances, cut to length."""
        model = _load_fixture(tracer)
        pool = _generate(tracer, FIXTURE_TASK, self.pool, "test")
        vocab = FIXTURE_TASK.vocab()
        feats, whole = [], []
        have = 0
        for i in np.random.default_rng(seed).permutation(self.pool):
            u = pool[i]
            feats.append(u.feats)
            have += u.feats.shape[0]
            if have > self.raw_frames:
                break
            whole.append((vocab.ids(u.targets), stack_downsample(u.feats)))
        if have < self.raw_frames:
            raise ValueError(f"{self.pool} utterances hold only {have} raw frames")
        return model, np.concatenate(feats)[:self.raw_frames], whole

    def unit(self, state, checks, pace, tracer=None):
        model, raw, _whole = state
        tick = pace.tick
        if tracer is not None:
            model = _traced_copy(tracer, model)
            tick = tracer.wrap("bench.pace", tick)  # a child span: not decode self time
        handed, resumed = [], []

        def source():
            # Frame i costs the decoder resumed[i] - handed[i]; probes run between.
            for frame in raw:
                tick()
                handed.append(time.perf_counter())
                yield frame
                resumed.append(time.perf_counter())

        def consume():
            return list(stream_decode(model, source()))

        with GuardCounter() as guards:
            if tracer is None:
                emitted = checks.attempt("stream", consume)
            else:
                emitted = checks.attempt("stream", tracer.span, "decode.stream_decode",
                                         consume)
        end = time.perf_counter()
        # The flush after the last frame counts as part of that frame.
        resumed[-1:] = [end] if resumed else []
        secs = _paced(pace, [(h, r - h) for h, r in zip(handed, resumed)])
        return Unit(seconds=sum(secs), audio_s=len(raw) * RAW_FRAME_S,
                    op_ms=[1e3 * x for x in secs], outputs=emitted or [],
                    extra={"frames": -(-len(raw) // model.config.factor),
                           "emissions": len(emitted or []),
                           "guard_hits": guards.hits})

    def verify(self, state, units, checks) -> None:
        """Streaming emissions equal greedy decoding of the whole stacked stream."""
        model, raw, _whole = state
        labels, frames, _ = greedy_trace(model, stack_downsample(raw))
        want = list(zip(frames, labels))
        got = [tuple(e) for e in units[0].outputs]
        for i in range(max(len(want), len(got))):
            a = got[i] if i < len(got) else None
            b = want[i] if i < len(want) else None
            checks.check(a == b, f"emission {i}: stream {a}, offline {b}")

    def loss(self, state, units) -> float:
        """The fixture's mean transducer loss on the utterances wholly in the stream."""
        model, _raw, whole = state
        return _mean_loss(model, whole)

    def details(self, units):
        gaps = np.concatenate([u.op_ms for u in units])
        rtfs = [u.seconds / u.audio_s for u in units]
        return {
            "stream_rtf": (statistics.median(rtfs), "ratio", len(rtfs)),
            "stream_frame_ms_p50": (float(np.percentile(gaps, 50)), "ms", gaps.size),
            "stream_frame_ms_p99": (float(np.percentile(gaps, 99)), "ms", gaps.size),
        }

    def per_layer(self, units, tracer):
        frames = sum(u.extra["frames"] for u in units)
        out = _decode_layers(tracer, units, frames)
        out["decode.stream_self_ms_per_frame"] = tracer.ms("decode.stream_decode") / frames
        growth = []
        for u in units:
            gaps = np.asarray(u.op_ms)
            k = max(1, gaps.size // 10)
            growth.append(gaps[-k:].mean() / gaps[:k].mean())
        out["decode.stream_growth"] = statistics.median(growth)
        out["decode.pred_state_rows_max"] = tracer.peaks.get("pred_state_rows", 0)
        return out


def _decode_layers(tracer, units, frames):
    """Per-frame layer numbers shared by both decode workloads; ``frames``
    counts stacked frames over every decoder pass."""
    calls = tracer.calls
    return {
        "nnet.frame_np_ms_per_frame": tracer.ms("nnet.frame_np") / frames,
        "nnet.encoder_rows_per_frame": (tracer.counts["nnet.encoder_rows"]
                                        / max(1, calls["nnet.frame_np"])),
        "nnet.advance_np_ms": tracer.ms("nnet.advance_np") / frames,
        "nnet.advance_np_calls_per_frame": calls["nnet.advance_np"] / frames,
        "ngram.score_ms": tracer.ms("ngram.score") / frames,
        "ngram.score_calls_per_frame": calls["ngram.score"] / frames,
        "decode.emissions_per_frame": sum(u.extra["emissions"] for u in units) / frames,
        "decode.guard_hits": statistics.mean(u.extra["guard_hits"] for u in units),
        "checkpoint.load_ms": 1e3 * tracer.mean_s("checkpoint.load"),
    }


# ---------------------------------------------------------------------------
# Tracing hooks
# ---------------------------------------------------------------------------

def _install_patches(tracer) -> None:
    """Module attributes that library code looks up at call time."""
    tracer.patch(satkit.kernels, "forward_backward", "kernels.forward_backward")
    tracer.patch(satkit.autodiff, "backward", "autodiff.backward")
    tracer.patch(satkit.train, "par_loss", "pathreg.par_loss")
    tracer.patch(satkit.train, "make_batches", "data.make_batches")


def _trace_model(tracer, model) -> None:
    """Swap the model's parts for proxies that trace their entry points."""
    enc = model.encoder

    def rows(_row, args, kwargs):
        # frame_np recomputes every block over the whole receptive field.
        feats, t = args[0], args[1]
        chunk = (args[2] if len(args) > 2 else kwargs.get("chunk")) or enc.chunk
        lo, hi = chunk.receptive_field(t, enc.n_blocks, feats.shape[0])
        tracer.count("nnet.encoder_rows", (hi - lo + 1) * enc.n_blocks)

    def state_rows(state, _args, _kwargs):
        tracer.peak("pred_state_rows", sum(l.shape[0] for l in state.layers if l is not None))

    def cells(lat, _args, _kwargs):
        tracer.count("lattice.cells", int(np.prod(lat.log_probs.shape)))

    model.encoder = Proxy(tracer, enc, {"__call__": "nnet.encoder",
                                        "frame_np": ("nnet.frame_np", rows),
                                        "apply_np": "nnet.apply_np"})
    model.prednet = Proxy(tracer, model.prednet, {"__call__": "nnet.prednet",
                                                  "init_state": ("nnet.advance_np", state_rows),
                                                  "advance_np": ("nnet.advance_np", state_rows)})
    model.joint = Proxy(tracer, model.joint, {"lattice": ("lattice.joint", cells)})


def _traced_copy(tracer, model):
    """A model sharing ``model``'s weights whose parts are traced; the
    original stays untraced for the correctness checks."""
    twin = object.__new__(type(model))
    twin.__dict__.update(model.__dict__)
    _trace_model(tracer, twin)
    return twin


def _generate(tracer, spec, n, split):
    gen = generate_split if tracer is None else tracer.wrap("data.generate_split", generate_split)
    return gen(spec, n, split)


# ---------------------------------------------------------------------------
# Workloads and the measuring loop
# ---------------------------------------------------------------------------

TRAIN_MODEL = dict(feature_dim=8, d_m=64, n_heads=4, d_ff=128, n_enc_blocks=2,
                   n_pred_blocks=2, d_joint=64, dropout=0.0)
NOAM = dict(seed=0, optimizer="noam", lr_factor=1.0, warmup_steps=500)

WORKLOADS = {
    "train-short": TrainWorkload(
        name="train-short",
        task=dict(kind="delayed-copy", vocab_size=16, feature_dim=8, min_tokens=3,
                  max_tokens=8, noise=0.0, seed=7),
        model=TRAIN_MODEL, train=dict(NOAM, batch_size=4, beta=0.0),
        pool=1200, n_utts=600, steps=400),
    "train-long-par": TrainWorkload(
        name="train-long-par",
        task=dict(kind="delayed-copy", vocab_size=16, feature_dim=8, min_tokens=40,
                  max_tokens=60, noise=0.5, seed=7),
        model=dict(TRAIN_MODEL, chunk_left="10", chunk_right="5"),
        train=dict(NOAM, batch_size=2, beta=10.0),
        pool=240, n_utts=200, steps=100),
    "decode-offline": DecodeWorkload(name="decode-offline", pool=300, utts=96, lm_utts=800),
    "stream-long": StreamWorkload(name="stream-long", pool=200, raw_frames=12000),
}


@dataclass
class Measurement:
    setups: list          # paced seconds of each set-up
    units: list
    loss: float
    checks: Checks
    slowdown: float       # median probe slowdown against the reference speed


def measure(workload, seed: int, seconds: float, tracer=None) -> Measurement:
    """Set up ``SETUP_REPEATS`` times, then run units while the next one is
    expected to fit in ``seconds`` (always at least one). Training starts
    every unit from a fresh set-up; decoding reuses the last one. All times
    are paced (see ``pace.py``)."""
    checks = Checks()
    if tracer is not None:
        _install_patches(tracer)
    fresh = isinstance(workload, TrainWorkload)
    try:
        setups, units = [], []
        pace = Pace()

        def set_up():
            gc.collect()  # no collection of earlier garbage inside the timing
            pace.tick(force=True)
            start = time.perf_counter()
            state = workload.prepare(seed, tracer)
            took = time.perf_counter() - start
            pace.tick(force=True)
            setups.append(pace.seconds(start, took))
            return state

        for _ in range(SETUP_REPEATS):
            state = set_up()
        first = state
        began = time.perf_counter()
        while True:
            units.append(workload.unit(state, checks, pace, tracer))
            spent = time.perf_counter() - began
            if spent + spent / len(units) > seconds:
                break
            if fresh:
                state = set_up()
        for i, u in enumerate(units[1:], 1):
            checks.check(_same(u.outputs, units[0].outputs),
                         f"unit {i} outputs differ from unit 0 on the same inputs")
        if hasattr(workload, "verify"):
            workload.verify(first, units, checks)
        loss = workload.loss(first, units)
        checks.check(math.isfinite(loss), f"non-finite loss {loss}")
    finally:
        if tracer is not None:
            tracer.restore()
    return Measurement(setups, units, loss, checks, statistics.median(pace.slowdown))


def _same(a, b) -> bool:
    """Exact equality that counts NaN as equal to NaN."""
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return a == b
