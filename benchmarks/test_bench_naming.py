"""Bench: DAG naming (``assign_dag_ids``) at 1k/5k nodes.

Times the array polite renaming from a fresh draw at paper-like mean
degrees (about 20-25 neighbors), plus the per-node oracle it replaced
at 5000 nodes, so ``BENCH_ci.json`` records the array-vs-loop ratio
directly; ``regression_gate.py`` holds that ratio above a 10x floor.
Both sides draw the same names from the same seed.
"""

import numpy as np
import pytest

from repro.graph.generators import uniform_topology
from repro.naming.assign import assign_dag_ids
from tests.oracles.naming import assign_dag_ids_reference

SCALES = {1000: 0.08, 5000: 0.04}


@pytest.fixture(scope="module")
def topologies():
    topos = {count: uniform_topology(count, radius, rng=2024)
             for count, radius in SCALES.items()}
    for topo in topos.values():
        topo.graph.to_csr()  # prime the snapshot: the benches time naming
    return topos


@pytest.mark.parametrize("count", sorted(SCALES))
def test_bench_assign_dag_ids(benchmark, topologies, count):
    topology = topologies[count]
    dag_ids, rounds = benchmark(
        lambda: assign_dag_ids(topology, np.random.default_rng(1)))
    assert len(dag_ids) == count
    assert rounds >= 1


def test_bench_assign_dag_ids_5000_reference(benchmark, topologies):
    """The per-node polite renaming over the scanning sampler (speedup
    baseline)."""
    topology = topologies[5000]
    reference = benchmark.pedantic(
        lambda: assign_dag_ids_reference(topology, np.random.default_rng(1)),
        rounds=1, iterations=1)
    assert reference == assign_dag_ids(topology, np.random.default_rng(1))
