"""IncrementalElection vs the per-node oracle, window by window."""

import numpy as np
import pytest

from repro.clustering.incremental import IncrementalElection
from repro.clustering.order import BasicOrder
from repro.graph.dynamic import DynamicTopology
from repro.graph.generators import star_topology, uniform_topology
from tests.oracles.election import compute_clustering_reference


def assert_same_clustering(fast, oracle):
    assert fast.parents == oracle.parents
    assert fast.heads == oracle.heads
    assert fast.head_of == oracle.head_of
    assert fast.densities == oracle.densities
    assert fast.order_name == oracle.order_name
    assert fast.fusion == oracle.fusion


def drive(seed, order, fusion, windows=6, count=60, radius=0.18,
          use_dag=True, step=0.02):
    """Run a window sequence through the engine and the oracle."""
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0, 1, size=(count, 2))
    dynamic = DynamicTopology(positions, radius)
    engine = IncrementalElection(order=order, fusion=fusion)
    tie_ids = dynamic.topology.ids
    dag_ids = ({node: int(rng.integers(10 ** 6)) for node in dynamic.graph}
               if use_dag else None)
    previous_fast = None
    previous_oracle = None
    density_changed = None
    graph_changed = True
    for window in range(windows):
        fast = engine.update(dynamic.graph, dynamic.densities,
                             tie_ids=tie_ids, dag_ids=dag_ids,
                             previous=previous_fast,
                             density_changed=density_changed,
                             graph_changed=graph_changed, dag_changed=False)
        oracle = compute_clustering_reference(
            dynamic.graph, tie_ids=tie_ids, dag_ids=dag_ids, order=order,
            fusion=fusion, previous=previous_oracle,
            densities=dynamic.densities)
        assert_same_clustering(fast, oracle)
        previous_fast, previous_oracle = fast, oracle
        positions = np.clip(
            positions + rng.uniform(-step, step, size=positions.shape), 0, 1)
        update = dynamic.move(positions)
        density_changed = update.density_changed
        graph_changed = bool(update.delta)


@pytest.mark.parametrize("order,fusion", [
    ("basic", False), ("basic", True),
    ("incumbent", False), ("incumbent", True),
])
@pytest.mark.parametrize("use_dag", [False, True])
def test_engine_matches_oracle_across_windows(order, fusion, use_dag):
    drive(seed=13, order=order, fusion=fusion, use_dag=use_dag)


def test_engine_matches_oracle_on_sparse_and_dense_extremes():
    drive(seed=14, order="incumbent", fusion=True, radius=0.05)  # fragmented
    drive(seed=15, order="incumbent", fusion=True, radius=0.6)   # near-complete


def test_unchanged_window_reuses_previous_clustering():
    rng = np.random.default_rng(16)
    positions = rng.uniform(0, 1, size=(40, 2))
    dynamic = DynamicTopology(positions, 0.2)
    engine = IncrementalElection(order="incumbent", fusion=True)
    first = engine.update(dynamic.graph, dynamic.densities,
                          tie_ids=dynamic.topology.ids, previous=None)
    # Window 2 recomputes: the incumbent flags flip from "no incumbents"
    # to first.heads, which changes the keys.
    second = engine.update(dynamic.graph, dynamic.densities,
                           tie_ids=dynamic.topology.ids, previous=first,
                           density_changed=frozenset(), graph_changed=False,
                           dag_changed=False)
    assert second is not first
    # Window 3 sees identical incumbents, keys, and graph: the previous
    # clustering object is reused as-is.
    third = engine.update(dynamic.graph, dynamic.densities,
                          tie_ids=dynamic.topology.ids, previous=second,
                          density_changed=frozenset(), graph_changed=False,
                          dag_changed=False)
    assert third is second


def test_untied_incumbent_flips_reuse_previous_clustering():
    """Empty delta + incumbent flips only on density-untied nodes: the
    flips cannot reorder the primary-keyed lexsort, so the engine skips
    re-ranking and returns the previous clustering object as-is."""
    rng = np.random.default_rng(27)
    positions = rng.uniform(0, 1, size=(40, 2))
    dynamic = DynamicTopology(positions, 0.2)
    engine = IncrementalElection(order="incumbent", fusion=True)
    tie_ids = dynamic.topology.ids
    first = engine.update(dynamic.graph, dynamic.densities, tie_ids=tie_ids,
                          previous=None)
    tied = engine._density_tied()
    ids = dynamic.graph.to_csr().ids
    untied = [node for index, node in enumerate(ids) if not tied[index]]
    assert untied, "seed must yield at least one density-untied node"
    flipped = frozenset(untied[:2])
    second = engine.update(dynamic.graph, dynamic.densities, tie_ids=tie_ids,
                           previous=flipped, density_changed=frozenset(),
                           graph_changed=False, dag_changed=False)
    assert second is first
    oracle = compute_clustering_reference(
        dynamic.graph, tie_ids=tie_ids, order="incumbent", fusion=True,
        previous=flipped, densities=dynamic.densities)
    assert_same_clustering(second, oracle)


def test_tied_incumbent_flips_force_recompute():
    """On a ring every density ties, so an incumbent flip can reorder
    the election and the skip must not engage."""
    from repro.clustering.density import all_densities
    from repro.graph.generators import ring_topology

    topo = ring_topology(6)
    densities = all_densities(topo.graph, exact=True)
    engine = IncrementalElection(order="incumbent", fusion=False)
    first = engine.update(topo.graph, densities, tie_ids=topo.ids,
                          previous=None)
    assert engine._density_tied().all()
    flipped = frozenset({topo.ids[3]})
    second = engine.update(topo.graph, densities, tie_ids=topo.ids,
                           previous=flipped, density_changed=frozenset(),
                           graph_changed=False, dag_changed=False)
    assert second is not first
    oracle = compute_clustering_reference(
        topo.graph, tie_ids=topo.ids, order="incumbent", previous=flipped,
        densities=densities)
    assert_same_clustering(second, oracle)


def test_stationary_trace_matches_oracle():
    """step=0 makes every window an empty delta while incumbency still
    settles over the first windows -- the untied-flip skip engages and
    must stay bit-identical to the scratch oracle."""
    drive(seed=29, order="incumbent", fusion=True, step=0.0)
    drive(seed=30, order="incumbent", fusion=False, step=0.0)


def test_head_churn_defeats_reuse_for_incumbent_order():
    rng = np.random.default_rng(17)
    positions = rng.uniform(0, 1, size=(40, 2))
    dynamic = DynamicTopology(positions, 0.2)
    engine = IncrementalElection(order="incumbent", fusion=False)
    tie_ids = dynamic.topology.ids
    first = engine.update(dynamic.graph, dynamic.densities, tie_ids=tie_ids,
                          previous=None)
    moved = engine.update(dynamic.graph, dynamic.densities, tie_ids=tie_ids,
                          previous=first, density_changed=frozenset(),
                          graph_changed=False, dag_changed=False)
    assert moved is not first
    oracle = compute_clustering_reference(
        dynamic.graph, tie_ids=tie_ids, order="incumbent", previous=first,
        densities=dynamic.densities)
    assert_same_clustering(moved, oracle)


def test_population_change_reseeds():
    rng = np.random.default_rng(18)
    positions = rng.uniform(0, 1, size=(30, 2))
    dynamic = DynamicTopology(positions, 0.25)
    engine = IncrementalElection(order="basic")
    first = engine.update(dynamic.graph, dynamic.densities,
                          tie_ids=dynamic.topology.ids, previous=None)
    update = dynamic.apply_churn(departed=[4], arrivals=[(30, (0.5, 0.5))])
    tie_ids = update.topology.ids
    fast = engine.update(dynamic.graph, dynamic.densities, tie_ids=tie_ids,
                         previous=first,
                         density_changed=update.density_changed,
                         graph_changed=True, dag_changed=False)
    oracle = compute_clustering_reference(
        dynamic.graph, tie_ids=tie_ids, order="basic", previous=first,
        densities=dynamic.densities)
    assert_same_clustering(fast, oracle)


def test_custom_order_matches_oracle():
    class ShiftedOrder(BasicOrder):
        name = "shifted"

        def key(self, view):
            return (view.density, -view.tie_id)

    topo = uniform_topology(25, 0.3, rng=19)
    from repro.clustering.density import all_densities
    densities = all_densities(topo.graph, exact=True)
    engine = IncrementalElection(order=ShiftedOrder())
    fast = engine.update(topo.graph, densities, tie_ids=topo.ids,
                         previous=None)
    oracle = compute_clustering_reference(
        topo.graph, tie_ids=topo.ids, order=ShiftedOrder(), densities=densities)
    assert_same_clustering(fast, oracle)


def test_degenerate_shapes():
    from repro.clustering.density import all_densities
    for topo in (star_topology(4), uniform_topology(1, 0.2, rng=20),
                 uniform_topology(12, 0.01, rng=21)):  # isolated-heavy
        densities = all_densities(topo.graph, exact=True)
        engine = IncrementalElection(order="basic")
        fast = engine.update(topo.graph, densities, tie_ids=topo.ids,
                             previous=None)
        oracle = compute_clustering_reference(
            topo.graph, tie_ids=topo.ids, densities=densities)
        assert_same_clustering(fast, oracle)


def test_float_rank_limit_falls_back(monkeypatch):
    import repro.clustering.incremental as incr
    monkeypatch.setattr(incr, "FLOAT_RANK_LIMIT", 5)
    topo = uniform_topology(12, 0.3, rng=22)
    from repro.clustering.density import all_densities
    densities = all_densities(topo.graph, exact=True)
    engine = IncrementalElection(order="incumbent", fusion=True)
    fast = engine.update(topo.graph, densities, tie_ids=topo.ids,
                         previous=None)
    oracle = compute_clustering_reference(
        topo.graph, tie_ids=topo.ids, order="incumbent", fusion=True,
        densities=densities)
    assert_same_clustering(fast, oracle)


def test_previous_as_plain_head_set():
    topo = uniform_topology(30, 0.25, rng=23)
    from repro.clustering.density import all_densities
    densities = all_densities(topo.graph, exact=True)
    heads = {0, 5, 9}
    engine = IncrementalElection(order="incumbent")
    fast = engine.update(topo.graph, densities, tie_ids=topo.ids,
                         previous=frozenset(heads))
    oracle = compute_clustering_reference(
        topo.graph, tie_ids=topo.ids, order="incumbent",
        previous=frozenset(heads), densities=densities)
    assert_same_clustering(fast, oracle)
