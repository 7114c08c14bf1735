"""Bench: Table 4 -- cluster features on random geometric graphs."""

from repro.experiments.common import get_preset
from repro.experiments.table4 import run_table4


def test_bench_table4(benchmark, show, jobs):
    preset = get_preset("quick", runs=5)
    table = benchmark.pedantic(lambda: run_table4(preset, rng=2024, jobs=jobs),
                               rounds=3, iterations=1)
    show(table)
    clusters = table.column("#clusters")
    # Shape: cluster count decreases with R; DAG on/off indistinguishable.
    with_dag = clusters[0::2]
    without = clusters[1::2]
    assert with_dag[0] > with_dag[-1]
    for w, n in zip(with_dag, without):
        assert abs(w - n) <= 0.35 * max(w, n)
