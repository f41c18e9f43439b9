"""Run one satkit benchmark workload and print its metrics.

    python3 satbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: train-short, train-long-par, decode-offline, stream-long (see
``workloads.py``). Run it from the repository root; it imports satkit from
``src/`` and pins BLAS to one thread before numpy loads.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run measures untraced for half the budget, then traced for the other
half, and the metrics are the per-layer ones plus the tracing overhead.
The line before it is a report: every metric with its sample count, the
workload's own named metrics, the environment, failures and raw spans.
"""

import argparse
import json
import resource
import statistics
import sys

import env

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rtf": "ratio",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "loss": "nats",
}

PER_LAYER = {
    "nnet.encoder_ms": "ms",
    "nnet.prednet_ms": "ms",
    "lattice.joint_ms": "ms",
    "kernels.forward_backward_ms": "ms",
    "pathreg.par_loss_ms": "ms",
    "autodiff.backward_ms": "ms",
    "optim.step_ms": "ms",
    "train.self_ms": "ms",
    "lattice.cells_per_step": "count",
    "data.make_batches_s": "s",
    "nnet.frame_np_ms_per_frame": "ms",
    "nnet.encoder_rows_per_frame": "count",
    "nnet.advance_np_ms": "ms",
    "nnet.advance_np_calls_per_frame": "count",
    "ngram.score_ms": "ms",
    "ngram.score_calls_per_frame": "count",
    "decode.search_self_ms_per_frame": "ms",
    "decode.emissions_per_frame": "count",
    "decode.guard_hits": "count",
    "checkpoint.load_ms": "ms",
    "decode.stream_self_ms_per_frame": "ms",
    "decode.stream_growth": "ratio",
    "decode.pred_state_rows_max": "count",
    "trace.overhead_pct": "%",
}


def _percentile(values, q):
    import numpy as np
    return float(np.percentile(np.asarray(values, dtype=float), q))


def end_to_end(m) -> dict:
    """name -> (value, unit, samples) for one untraced measurement."""
    ops = [x for u in m.units for x in u.op_ms]
    return {
        "setup_s": (statistics.median(m.setups), len(m.setups)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "rtf": (rtf(m), len(ops)),
        "op_ms_p50": (_percentile(ops, 50), len(ops)),
        "op_ms_p90": (_percentile(ops, 90), len(ops)),
        "loss": (m.loss, 1),
    }


def rtf(m) -> float:
    """Paced time inside the timed calls over the audio time they covered."""
    return sum(u.seconds for u in m.units) / sum(u.audio_s for u in m.units)


def run(name: str, seed: int, seconds: float, trace: bool):
    """Returns (result line, report) as dicts."""
    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS[name]
    if not isinstance(workload, workloads.TrainWorkload):
        workloads.verify_fixture()
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": env.record(seed)}
    if not trace:
        runs = [workloads.measure(workload, seed, seconds)]
        values = end_to_end(runs[0])
        metrics = {k: (v, END_TO_END[k], n) for k, (v, n) in values.items()}
    else:
        tracer = Tracer()
        runs = [workloads.measure(workload, seed, seconds / 2),
                workloads.measure(workload, seed, seconds / 2, tracer)]
        layers = dict.fromkeys(PER_LAYER, 0.0)
        layers.update(workload.per_layer(runs[1].units, tracer))
        layers["trace.overhead_pct"] = 100.0 * (rtf(runs[1]) / rtf(runs[0]) - 1.0)
        metrics = {k: (float(v), PER_LAYER[k], len(runs[1].units)) for k, v in layers.items()}
        report["untraced_rtf"] = rtf(runs[0])
        report["traced_rtf"] = rtf(runs[1])
        report["spans"] = tracer.summary()
    attempted = sum(m.checks.attempted for m in runs)
    failed = sum(m.checks.failed for m in runs)
    details = workload.details(runs[0].units)
    details["failed_frac"] = (failed / attempted, "ratio", attempted)
    report["metrics"] = {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in metrics.items()}
    report["details"] = {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in details.items()}
    report["setups_s"] = [m.setups for m in runs]
    report["slowdown"] = [m.slowdown for m in runs]
    report["failures"] = [msg for m in runs for msg in m.checks.messages]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _n) in metrics.items()},
    }
    return result, report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one satkit benchmark workload.")
    ap.add_argument("--workload", required=True,
                    choices=["train-short", "train-long-par", "decode-offline", "stream-long"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        env.prepare()
    except env.MissingProgram as exc:
        print(f"satbench: {exc}; run from the root of a satkit checkout", file=sys.stderr)
        return 2
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
