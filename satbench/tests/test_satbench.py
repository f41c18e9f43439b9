"""Tests of the benchmark itself, at sizes that run in seconds.

    python3 -m pytest satbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
import types
from dataclasses import replace

import pytest

import run
import workloads
from conftest import BENCH
from pace import Pace
from tracer import Proxy, Tracer

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

TINY = {
    "train-short": dict(pool=40, n_utts=12, steps=6),
    "train-long-par": dict(pool=6, n_utts=4, steps=3,
                           task=dict(workloads.WORKLOADS["train-long-par"].task,
                                     min_tokens=6, max_tokens=8)),
    "decode-offline": dict(pool=12, utts=3, lm_utts=20),
    "stream-long": dict(pool=12, raw_frames=240),
}


@pytest.fixture
def tiny(monkeypatch):
    small = {name: replace(w, **TINY[name]) for name, w in workloads.WORKLOADS.items()}
    monkeypatch.setattr(workloads, "WORKLOADS", small)
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 2)
    return small


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert SPEC["command"] == ["python3", "satbench/run.py"]


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_result_carries_every_metric_with_its_unit(tiny, name, trace):
    result, report = run.run(name, seed=3, seconds=0.01, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    for m in result["metrics"].values():
        assert isinstance(m["value"], float) and math.isfinite(m["value"])
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["environment"]["seed"] == 3
    assert report["environment"]["blas_threads"] >= 1
    assert report["details"]["failed_frac"]["value"] == 0.0
    json.dumps(report)


@pytest.mark.parametrize("name", list(TINY))
def test_same_seed_same_counts_losses_cers_and_labels(tiny, name):
    w = tiny[name]
    a, b = (workloads.measure(w, seed=5, seconds=0.01) for _ in range(2))
    assert a.loss == b.loss
    assert (a.checks.attempted, a.checks.failed) == (b.checks.attempted, b.checks.failed)
    assert workloads._same(a.units[0].outputs, b.units[0].outputs)
    keep = ("greedy_cer", "beam_cer", "chars", "emissions", "frames", "steps")
    assert {k: v for k, v in a.units[0].extra.items() if k in keep} == \
        {k: v for k, v in b.units[0].extra.items() if k in keep}
    other = workloads.measure(w, seed=6, seconds=0.01)
    assert other.loss != a.loss


def test_stream_check_catches_a_wrong_emission(tiny):
    w = tiny["stream-long"]
    state = w.prepare(seed=1)
    checks = workloads.Checks()
    unit = w.unit(state, checks, Pace())
    assert unit.outputs, "the tiny stream should emit labels"
    t, k = unit.outputs[0]
    unit.outputs[0] = (t, k + 1)
    w.verify(state, [unit], checks)
    assert checks.failed == 1


def test_self_time_excludes_child_spans():
    tracer = Tracer(clock=iter([0.0, 1.0, 3.0, 10.0]).__next__)
    tracer.span("parent", tracer.wrap("child", lambda: None))
    assert tracer.total["parent"] == 10.0 and tracer.total["child"] == 2.0
    assert tracer.self_time["parent"] == 8.0 and tracer.self_time["child"] == 2.0


def test_missing_targets_are_absent_layers_not_crashes():
    tracer = Tracer()
    mod = types.SimpleNamespace(present=lambda x: x + 1)
    tracer.patch(mod, "gone", "layer.gone")
    tracer.patch(mod, "present", "layer.present")
    proxy = Proxy(tracer, types.SimpleNamespace(kept=lambda: 7),
                  {"frame_np": "nnet.frame_np", "kept": "layer.kept"})
    assert mod.present(1) == 2 and proxy.kept() == 7
    tracer.restore()
    assert not hasattr(mod.present, "__wrapped__")
    assert tracer.summary()["absent"] == ["layer.gone", "nnet.frame_np"]
    assert tracer.calls["layer.present"] == 1 and tracer.calls["layer.kept"] == 1


def test_fails_without_printing_when_satkit_is_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "satbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "satbench/run.py", "--workload", "train-short",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""


def test_pace_rescales_by_the_probes_around_an_operation():
    pace = Pace()
    pace.times = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    pace.slowdown = [2.0, 2.0, 2.0, 9.0, 2.0, 2.0]  # one preempted probe
    assert pace.factor(2.5) == 2.0
    assert pace.seconds(2.5, 4.0) == 2.0
    took = pace.tick(force=True)
    assert took > 0 and len(pace.slowdown) == 7 and pace.tick() == 0.0
