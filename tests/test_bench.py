"""Lattice kernel benchmark: every backend is timed and checked against numpy."""

from satkit.kernels import available_backends

from satkit.bench import format_report, run_batch_bench, run_lattice_bench

SMALL_SHAPES = (("tiny", 3, (1, 6), (0, 3)), ("wide", 2, (5, 9), (2, 4)))


def test_lattice_bench_compares_backends():
    rows = run_lattice_bench(t_len=12, u_len=5, k_size=6, repeats=1, seed=0)
    names = [r["backend"] for r in rows]
    assert "numpy" in names
    for r in rows:
        assert r["cells_per_sec"] > 0
        assert r["loss_vs_numpy"] <= 1e-9
        assert r["max_grad_vs_numpy"] <= 1e-9


def test_batch_bench_rows():
    rows = run_batch_bench(SMALL_SHAPES, k_size=5, repeats=1, seed=0)
    assert {r["backend"] for r in rows} == set(available_backends())
    assert [r["shape"] for r in rows[::len(available_backends())]] == ["tiny", "wide"]
    for r in rows:
        assert r["batched_s"] > 0 and r["looped_s"] > 0
        assert r["speedup"] == r["looped_s"] / r["batched_s"]
        assert r["loss_vs_looped"] <= 1e-9


def test_format_report_mentions_all_rows():
    lat = run_lattice_bench(t_len=8, u_len=3, k_size=5, repeats=1, seed=0)
    batch = run_batch_bench(SMALL_SHAPES, k_size=5, repeats=1, seed=0)
    text = format_report(lat, batch)
    assert "lattice" in text and "batched" in text
    for r in lat + batch:
        assert r["backend"] in text
    lines = text.splitlines()
    for shape in ("tiny", "wide"):
        assert sum(line.startswith(shape) for line in lines) == len(available_backends())
