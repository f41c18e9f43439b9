"""Command line surface: gen-data, train, decode, eval-cer, lm-train,
plot-lattice.

Every command is reproducible from its flags plus the seed; artifacts are
byte-identical across runs (timing output aside). Errors print one line to
stderr and exit nonzero; the global ``--traceback`` flag re-raises them
instead, and ``--log-level`` sets the threshold of the ``satkit`` logger.
"""

import argparse
import logging
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import ngram
from .data import (SIL, TaskSpec, generate_split, load_dataset,
                   normalize_dataset, read_token_file, save_dataset,
                   stack_downsample, write_token_file)
from .decode import (DecodeConfig, beam_decode, corpus_cer, greedy_trace,
                     stacked_stream)
from .model import ModelConfig, SATModel
from .train import TrainConfig, Trainer
from .vocab import BLANK, Vocab


def _add_model_flags(p):
    p.add_argument("--model-config", help="model config file (key = value)")
    for key in ("feature-dim", "d-m", "n-heads", "d-ff", "n-enc-blocks",
                "n-pred-blocks", "d-joint", "vocab-size"):
        p.add_argument(f"--{key}", type=int)
    p.add_argument("--dropout", type=float)
    p.add_argument("--chunk-left")
    p.add_argument("--chunk-right")


def _model_config(args) -> ModelConfig:
    """Config file first, long-form flags override individual keys."""
    cfg = ModelConfig.load(args.model_config) if args.model_config else ModelConfig()
    overrides = {}
    for key in ("feature_dim", "d_m", "n_heads", "d_ff", "n_enc_blocks",
                "n_pred_blocks", "d_joint", "vocab_size", "dropout", "chunk_left",
                "chunk_right"):
        val = getattr(args, key, None)
        if val is not None:
            overrides[key] = val
    return replace(cfg, **overrides)  # re-runs the config's checks


def _load_split(data_dir, split, scope):
    utts = load_dataset(f"{data_dir}/{split}")
    utts.sort(key=lambda u: u.utt_id)
    if scope != "none":
        normalize_dataset(utts, scope=scope)
    return utts


def _check_data_fit(cfg: ModelConfig, vocab: Vocab, utts):
    if cfg.vocab_size != vocab.size:
        raise ValueError(f"model config vocab_size {cfg.vocab_size} but the "
                         f"vocab file has {vocab.size} entries")
    for u in utts:
        if u.feats.shape[1] != cfg.feature_dim:
            raise ValueError(f"model config feature_dim {cfg.feature_dim} but "
                             f"{u.utt_id} has {u.feats.shape[1]}-dim features")


def cmd_gen_data(args) -> int:
    spec = TaskSpec(kind=args.task, vocab_size=args.vocab_size,
                    feature_dim=args.feature_dim, min_tokens=args.min_tokens,
                    max_tokens=args.max_tokens, noise=args.noise,
                    seed=args.seed)
    counts = {"train": args.n_train, "dev": args.n_dev, "test": args.n_test}
    # Everything that can reject the run, the counts and the generation of
    # every split, runs first: a rejected run leaves no directory.
    for split, n in counts.items():
        if n < 0:
            raise ValueError(f"--n-{split} must be >= 0 utterances, got {n}")
    splits = {split: generate_split(spec, n, split) for split, n in counts.items()}
    os.makedirs(args.out, exist_ok=True)
    spec.vocab().save(f"{args.out}/vocab.txt")
    for split, utts in splits.items():
        save_dataset(f"{args.out}/{split}", utts)
        print(f"{split}: {len(utts)} utterances")
    with open(f"{args.out}/task.txt", "w", encoding="utf-8") as f:
        for k, v in asdict(spec).items():
            f.write(f"{k} = {v}\n")
    return 0


def cmd_train(args) -> int:
    vocab = Vocab.load(f"{args.data}/vocab.txt")
    train_utts = _load_split(args.data, "train", args.normalize)
    dev_utts = _load_split(args.data, "dev", args.normalize)
    for split, utts in (("train", train_utts), ("dev", dev_utts)):
        if not utts:
            raise ValueError(f"the {split} split of {args.data} has no utterances")
    metrics = args.metrics or f"{args.out}/metrics.csv"
    # Everything that can reject the run (config, data fit, alignments, the
    # resume checkpoint) runs first: a rejected run leaves no directory.
    if args.resume:
        trainer = Trainer.resume(args.resume, vocab, train_utts, dev_utts,
                                 metrics_path=metrics)
    else:
        mcfg = _model_config(args)
        _check_data_fit(mcfg, vocab, train_utts + dev_utts)
        tcfg = TrainConfig(
            epochs=args.epochs, batch_size=args.batch_size, seed=args.seed,
            optimizer=args.optimizer, lr=args.lr, momentum=args.momentum,
            halving_patience=args.halving_patience, min_lr=args.min_lr,
            lr_factor=args.lr_factor, warmup_steps=args.warmup_steps,
            beta=args.beta, detach_weight=not args.no_detach_weight)
        trainer = Trainer(SATModel(mcfg, seed=args.seed), vocab, train_utts,
                          dev_utts, tcfg, metrics_path=metrics)
    os.makedirs(args.out, exist_ok=True)
    if not args.resume:
        trainer.model.config.save(f"{args.out}/model.config")
    run_meta = {k: v for k, v in vars(args).items() if k != "func"}
    already = len(trainer.history)
    history = trainer.run(checkpoint_dir=args.out, run_meta=run_meta)
    for h in history[already:]:
        print(f"epoch {h['epoch']}: joint {h['joint_loss']:.6f} "
              f"dev CER {h['dev_cer']:.4f}")
    return 0


def _decode_one(model, utt, cfg: DecodeConfig, lm, vocab):
    """Beam hypotheses for one utterance, best first. Streaming mode runs
    the same beam over the rows of the raw-frame stream."""
    if cfg.mode == "streaming":
        stacked = stacked_stream(model, utt.feats)
    else:
        mc = model.config
        stacked = stack_downsample(utt.feats, mc.stack_left, mc.stack_right,
                                   mc.factor)
    return beam_decode(model, stacked, lm=lm, vocab=vocab, cfg=cfg)


def cmd_decode(args) -> int:
    if args.nbest < 1:
        raise ValueError(f"--nbest must be >= 1 hypotheses, got {args.nbest}")
    model, _, _ = SATModel.load(args.checkpoint)
    vocab = Vocab.load(f"{args.data}/vocab.txt")
    utts = _load_split(args.data, args.split, args.normalize)
    _check_data_fit(model.config, vocab, utts)
    if args.chunk_left is not None or args.chunk_right is not None:
        if args.chunk_left is None or args.chunk_right is None:
            raise ValueError("a chunk override needs both --chunk-left and "
                             "--chunk-right")
        model.config = replace(model.config, chunk_left=args.chunk_left,
                               chunk_right=args.chunk_right)
        model.encoder.chunk = model.config.chunk()
    lm = ngram.NgramModel.load(args.lm) if args.lm else None
    cfg = DecodeConfig(beam_width=args.beam_width, lm_weight=args.lm_weight,
                       max_symbols_per_frame=args.max_symbols, mode=args.mode)
    hyp_entries = []
    nbest_lines = []
    refs = []
    hyps = []
    for u in utts:
        ranked = _decode_one(model, u, cfg, lm, vocab)
        best = vocab.string(list(ranked[0].prefix))
        hyp_entries.append((u.utt_id, best))
        refs.append(u.targets)
        hyps.append(best)
        if args.nbest > 1:
            for rank, h in enumerate(ranked[:args.nbest], 1):
                toks = vocab.string(list(h.prefix))
                nbest_lines.append(f"{u.utt_id} {rank} "
                                   f"{h.combined(cfg.lm_weight):.10g} {' '.join(toks)}")
    write_token_file(args.out, hyp_entries)
    if nbest_lines:
        with open(args.out + ".nbest", "w", encoding="utf-8") as f:
            f.write("\n".join(nbest_lines) + "\n")
    if any(r for r in refs):
        print(f"corpus CER {corpus_cer(refs, hyps):.6f}")
    return 0


def cmd_eval_cer(args) -> int:
    refs = read_token_file(args.ref)
    hyps = read_token_file(args.hyp)
    missing = sorted(set(refs) - set(hyps))
    if missing:
        raise ValueError(f"hypothesis file is missing {len(missing)} "
                         f"utterances, first {missing[0]!r}")
    ids = sorted(refs)
    value = corpus_cer([refs[i] for i in ids], [hyps[i] for i in ids])
    print(f"corpus CER {value:.6f}")
    return 0


def cmd_lm_train(args) -> int:
    corpus = []
    with open(args.text, encoding="utf-8") as f:
        for line in f:
            toks = line.split()
            if args.skip_utt_ids:
                toks = toks[1:]
            if toks:
                corpus.append(toks)
    model = ngram.train(corpus, order=args.order, discount=args.discount)
    model.save(args.out)
    print(f"order {model.order}, {len(model.vocab)} token types, "
          f"train perplexity {model.perplexity(corpus):.4f}")
    return 0


def cmd_plot_lattice(args) -> int:
    model, _, _ = SATModel.load(args.checkpoint)
    vocab = Vocab.load(f"{args.data}/vocab.txt")
    utts = _load_split(args.data, args.split, args.normalize)
    _check_data_fit(model.config, vocab, utts)
    matches = [u for u in utts if u.utt_id == args.utt]
    if not matches:
        raise ValueError(f"utterance {args.utt!r} not in {args.data}/{args.split}")
    u = matches[0]
    mc = model.config
    stacked = stack_downsample(u.feats, mc.stack_left, mc.stack_right, mc.factor)
    labels, _, trace = greedy_trace(model, stacked)
    if args.full_vocab:
        plotted = list(range(vocab.size))
    else:
        plotted = [BLANK] + sorted(set(labels))
    names = vocab.string(plotted)

    with open(args.out_prefix + ".csv", "w", encoding="utf-8") as f:
        f.write("frame,u," + ",".join(names) + "\n")
        for t, uu, lp in trace:
            probs = np.exp(lp[plotted])
            f.write(f"{t},{uu}," + ",".join(f"{p:.10g}" for p in probs) + "\n")

    t_len = stacked.shape[0]
    first = {}
    for t, uu, lp in trace:
        if t not in first:
            first[t] = np.exp(lp[plotted])
    img = np.zeros((len(plotted), t_len))
    for t in range(t_len):
        if t in first:
            img[:, t] = first[t]
    boundaries = set()
    if u.alignment:
        boundaries = {i for i, a in enumerate(u.alignment) if a != SIL}
    pixels = np.round(img * 255).astype(np.uint8)
    for t in boundaries:
        if t < t_len:
            pixels[:, t] = 255 - pixels[:, t]
    with open(args.out_prefix + ".pgm", "wb") as f:
        f.write(f"P5 {t_len} {len(plotted)} 255\n".encode("ascii"))
        f.write(pixels.tobytes())
    print(f"wrote {args.out_prefix}.csv and {args.out_prefix}.pgm "
          f"({t_len} frames x {len(plotted)} tokens); "
          f"hypothesis: {' '.join(vocab.string(labels))}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satkit",
        description="self-attention transducer toolkit")
    parser.add_argument("--traceback", action="store_true",
                        help="re-raise errors instead of printing one line")
    parser.add_argument("--log-level", default="WARNING",
                        choices=("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"),
                        help="threshold of the satkit logger (default WARNING)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic task dataset")
    p.add_argument("--task", choices=("delayed-copy", "segment-classify"),
                   default="delayed-copy",
                   help="variable-length segments or fixed 3-frame segments")
    p.add_argument("--vocab-size", type=int, default=16,
                   help="token types, not counting the reserved symbols")
    p.add_argument("--feature-dim", type=int, default=8, help="values per raw frame")
    p.add_argument("--min-tokens", type=int, default=3,
                   help="fewest tokens in one utterance (>= 1)")
    p.add_argument("--max-tokens", type=int, default=10,
                   help="most tokens in one utterance (>= --min-tokens)")
    p.add_argument("--noise", type=float, default=0.0,
                   help="scale of the standard normal noise added to every raw "
                   "feature value (finite, >= 0)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the templates and of every split")
    p.add_argument("--n-train", type=int, default=2000,
                   help="utterances in the train split (0 or more)")
    p.add_argument("--n-dev", type=int, default=200,
                   help="utterances in the dev split (0 or more)")
    p.add_argument("--n-test", type=int, default=200,
                   help="utterances in the test split (0 or more)")
    p.add_argument("--out", required=True,
                   help="dataset root: vocab.txt, task.txt and one directory per split")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--data", required=True, help="dataset root (gen-data layout)")
    p.add_argument("--out", required=True, help="checkpoint directory")
    p.add_argument("--metrics", help="metrics CSV path (default out/metrics.csv)")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--normalize", choices=("per-speaker", "per-utterance", "none"),
                   default="per-speaker")
    _add_model_flags(p)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--optimizer", choices=("sgd", "noam"), default="sgd")
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--halving-patience", type=int, default=1)
    p.add_argument("--min-lr", type=float, default=1e-6)
    p.add_argument("--lr-factor", type=float, default=0.5)
    p.add_argument("--warmup-steps", type=int, default=8000)
    p.add_argument("--beta", type=float, default=0.0,
                   help="alignment regularizer weight")
    p.add_argument("--no-detach-weight", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("decode", help="decode a dataset split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--normalize", choices=("per-speaker", "per-utterance", "none"),
                   default="per-speaker")
    p.add_argument("--mode", choices=("offline", "streaming"), default="offline")
    p.add_argument("--beam-width", type=int, default=5)
    p.add_argument("--max-symbols", type=int, default=10)
    p.add_argument("--lm", help="n-gram model for shallow fusion")
    p.add_argument("--lm-weight", type=float, default=0.2)
    p.add_argument("--chunk-left", help="decode with this window instead of "
                   "the trained one (int or inf, with --chunk-right)")
    p.add_argument("--chunk-right", help="decode with this window instead of "
                   "the trained one (int or inf, with --chunk-left)")
    p.add_argument("--nbest", type=int, default=1)
    p.add_argument("--out", required=True, help="hypothesis file")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("eval-cer", help="score a hypothesis file")
    p.add_argument("--ref", required=True)
    p.add_argument("--hyp", required=True)
    p.set_defaults(func=cmd_eval_cer)

    p = sub.add_parser("lm-train", help="train an n-gram model on text")
    p.add_argument("--text", required=True, help="one sentence per line")
    p.add_argument("--skip-utt-ids", action="store_true",
                   help="drop the first column (dataset text files)")
    p.add_argument("--order", type=int, default=5)
    p.add_argument("--discount", type=float, default=0.75)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_lm_train)

    p = sub.add_parser("plot-lattice",
                       help="greedy posterior trace as CSV + PGM heatmap")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="dev")
    p.add_argument("--utt", required=True)
    p.add_argument("--normalize", choices=("per-speaker", "per-utterance", "none"),
                   default="per-speaker")
    p.add_argument("--full-vocab", action="store_true",
                   help="plot every token, not just emitted ones")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_plot_lattice)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logger = logging.getLogger("satkit")
    previous = logger.level
    logger.setLevel(args.log_level)
    try:
        return args.func(args)
    except Exception as e:
        if args.traceback:
            raise
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        logger.setLevel(previous)


if __name__ == "__main__":
    sys.exit(main())
