"""Lattice kernel benchmark: every backend is timed and checked against numpy."""

from satkit.bench import format_report, run_lattice_bench


def test_lattice_bench_compares_backends():
    rows = run_lattice_bench(t_len=12, u_len=5, k_size=6, repeats=1, seed=0)
    names = [r["backend"] for r in rows]
    assert "numpy" in names
    for r in rows:
        assert r["cells_per_sec"] > 0
        assert r["loss_vs_numpy"] <= 1e-9
        assert r["max_grad_vs_numpy"] <= 1e-9


def test_format_report_mentions_all_rows():
    lat = run_lattice_bench(t_len=8, u_len=3, k_size=5, repeats=1, seed=0)
    text = format_report(lat)
    assert "lattice" in text
    for r in lat:
        assert r["backend"] in text
