"""Bench: Table 5 -- the adversarial grid with sequential identifiers."""

from repro.experiments.common import get_preset
from repro.experiments.table5 import run_table5


def test_bench_table5(benchmark, show, jobs):
    preset = get_preset("quick", runs=5)
    table = benchmark.pedantic(lambda: run_table5(preset, rng=2024, jobs=jobs),
                               rounds=3, iterations=1)
    show(table)
    rows = {(row[0], row[1]): row for row in table.rows}
    for radius in (0.05, 0.08, 0.1):
        no_dag = rows[(radius, "no")]
        with_dag = rows[(radius, "with")]
        # The paper's headline: near-total collapse without the DAG...
        assert no_dag[2] <= 5
        # ...many clusters with it, with far shallower joining trees.
        assert with_dag[2] >= 4 * no_dag[2]
        assert no_dag[4] > 2 * with_dag[4]
