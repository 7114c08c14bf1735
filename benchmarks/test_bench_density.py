"""Bench: Definition-1 densities at 1k/5k/10k nodes.

Times the CSR-vectorized ``all_densities`` (cold triangle counts on a
fresh snapshot over the same arrays -- the shape of every new
deployment, whose bulk build already carries its CSR) at three scales,
the warm-snapshot re-read (the lifetime-workload shape where windows
repeat on an unchanged graph), and the per-edge dict-loop reference at
5000 nodes so BENCH_ci.json records the CSR-vs-dict-loop density ratio
directly (gated as a 10x floor pair).
"""

import pytest

from repro.clustering.density import all_densities
from repro.graph.csr import CSRAdjacency
from repro.graph.generators import uniform_topology
from tests.oracles.density import all_densities_reference

SCALES = {1000: 0.08, 5000: 0.08, 10000: 0.05}


@pytest.fixture(scope="module")
def topologies():
    return {count: uniform_topology(count, radius, rng=2024)
            for count, radius in SCALES.items()}


@pytest.mark.parametrize("count", sorted(SCALES))
def test_bench_all_densities_cold(benchmark, topologies, count):
    graph = topologies[count].graph
    csr = graph.to_csr()

    def run():
        # A fresh snapshot over the same arrays: no triangle memo.
        graph.adopt_csr(CSRAdjacency(csr.indptr, csr.indices, csr.ids))
        return all_densities(graph, exact=True)

    densities = benchmark.pedantic(run, rounds=3, iterations=1,
                                   warmup_rounds=1)
    assert len(densities) == count


@pytest.mark.parametrize("count", sorted(SCALES))
def test_bench_all_densities_warm_snapshot(benchmark, topologies, count):
    graph = topologies[count].graph
    all_densities(graph, exact=True)  # prime snapshot + triangle memo
    densities = benchmark(lambda: all_densities(graph, exact=True))
    assert len(densities) == count


def test_bench_all_densities_dict_loop_5000_reference(benchmark, topologies):
    """The pre-PR per-edge triangle scan (speedup baseline)."""
    graph = topologies[5000].graph
    reference = benchmark.pedantic(
        lambda: all_densities_reference(graph, exact=True),
        rounds=1, iterations=1)
    assert reference == all_densities(graph, exact=True)
