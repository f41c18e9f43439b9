"""Train the fixed checkpoint that the decode workloads load.

    python3 satbench/make_fixture.py [--out satbench/fixture/decode.ckpt]

Decode numbers must not move when training arithmetic changes, so the
decode workloads never train: they load this file and check its sha256
(``FIXTURE_SHA256`` in ``workloads.py``). The recipe is fixed: delayed-copy,
16 tokens, 8-16 tokens per utterance, noise 0.3, task seed 7; d_m 64 with
window (10,5); 800 utterances, 3 epochs, batch 4, noam warmup 200. It takes
about 40 s on one core. Re-run it only to change the fixture on purpose, and
update the recorded sha256 with the printed one.
"""

import argparse
import hashlib
import sys
import time

import env

env.prepare()

from satkit.data import generate_split  # noqa: E402
from satkit.model import SATModel  # noqa: E402
from satkit.train import TrainConfig, Trainer  # noqa: E402

import workloads  # noqa: E402

RECIPE = {"train_utts": 800, "dev_utts": 40, "epochs": 3, "batch_size": 4,
          "seed": 0, "optimizer": "noam", "lr_factor": 1.0, "warmup_steps": 200}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(workloads.FIXTURE_PATH))
    args = ap.parse_args(argv)
    spec = workloads.FIXTURE_TASK
    vocab = spec.vocab()
    train_utts = generate_split(spec, RECIPE["train_utts"], "train")
    dev_utts = generate_split(spec, RECIPE["dev_utts"], "dev")
    model = SATModel(workloads.fixture_model_config(vocab.size), seed=0)
    tc = TrainConfig(epochs=RECIPE["epochs"], batch_size=RECIPE["batch_size"],
                     seed=RECIPE["seed"], optimizer=RECIPE["optimizer"],
                     lr_factor=RECIPE["lr_factor"], warmup_steps=RECIPE["warmup_steps"])
    trainer = Trainer(model, vocab, train_utts, dev_utts, tc)
    start = time.perf_counter()
    history = trainer.run()
    for h in history:
        print(f"epoch {h['epoch']}: transducer loss {h['transducer_loss']:.4f}, "
              f"dev CER {h['dev_cer']:.4f}", file=sys.stderr)
    model.save(args.out, meta={"recipe": RECIPE, "task_seed": spec.seed,
                               "history": history})
    with open(args.out, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    print(f"trained in {time.perf_counter() - start:.1f} s; wrote {args.out}", file=sys.stderr)
    print(digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
