"""Exhaustive parity on every labeled graph of up to five (six) nodes.

Graphs are enumerated by edge bitmask over ``0..n-1`` -- all
``2**(n*(n-1)/2)`` labeled graphs per node count, 1,099 for ``n <= 5``
(tier-1) and 33,867 for ``n <= 6`` (the ``slow`` marker, deselected by
default; run it with ``pytest -m slow``).  On each graph:

* :func:`compute_clustering` equals the per-node oracle under both
  orders (the incumbent order seeded with the basic heads), with fusion
  on and off, and with polite-renaming DAG names on and off;
* the election's ``depth``, ``tree_length`` and ``head_eccentricity``
  equal the per-node metric oracles;
* :func:`clustering_from_keys` with energy-shaped
  ``(bucket, density, -dag, -tie)`` keys equals the oracle;
* ``lowest_id_clustering``, ``degree_clustering`` and
  ``maxmin_clustering`` (d=1 and d=2) equal the per-node baseline
  oracles;
* ``route_batch`` over every ordered pair of ``build_hierarchy`` equals
  the per-request routing oracle.
"""

from itertools import combinations

import numpy as np
import pytest

from repro.clustering.baselines import (
    degree_clustering,
    lowest_id_clustering,
    maxmin_clustering,
)
from repro.clustering.density import all_densities
from repro.clustering.oracle import clustering_from_keys, compute_clustering
from repro.graph.generators import Topology
from repro.graph.graph import Graph
from repro.hierarchy.hierarchy import build_hierarchy
from repro.hierarchy.routing import CachedRouter
from repro.naming.assign import assign_dag_ids
from repro.workload.generators import Request
from tests.oracles.baselines import (
    degree_clustering_reference,
    lowest_id_clustering_reference,
    maxmin_clustering_reference,
)
from tests.oracles.election import (
    clustering_from_keys_reference,
    compute_clustering_reference,
)
from tests.oracles.metrics import (
    depth_reference,
    head_eccentricity_reference,
    tree_length_reference,
)
from tests.oracles.routing import ReferenceRouter

CONFIGS = [(order, fusion) for order in ("basic", "incumbent")
           for fusion in (False, True)]


def labeled_graphs(n):
    """Every labeled graph on ``n`` nodes, one per edge bitmask."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [pair for bit, pair in enumerate(pairs) if mask >> bit & 1]
        yield mask, Graph(nodes=range(n), edges=edges)


def assert_same(fast, oracle):
    assert fast.parents == oracle.parents
    assert fast.heads == oracle.heads
    assert fast.order_name == oracle.order_name
    assert fast.fusion == oracle.fusion


def assert_metrics_match(clustering):
    for node in clustering.parents:
        assert clustering.depth(node) == depth_reference(clustering, node)
    for head in clustering.heads:
        assert clustering.tree_length(head) == tree_length_reference(
            clustering, head)
        assert clustering.head_eccentricity(head) == \
            head_eccentricity_reference(clustering, head)


def check_baselines(graph):
    for fast, oracle in ((lowest_id_clustering, lowest_id_clustering_reference),
                         (degree_clustering, degree_clustering_reference)):
        assert fast(graph).parents == oracle(graph).parents
    for d in (1, 2):
        assert (maxmin_clustering(graph, d=d).parents
                == maxmin_clustering_reference(graph, d=d).parents)


def check_graph(n, mask, graph):
    topology = Topology(graph)
    densities = all_densities(graph, exact=True)
    dag_ids = None
    if graph.edge_count():
        dag_ids, _rounds = assign_dag_ids(
            topology, np.random.default_rng([n, mask]))
    for names in (None, dag_ids):
        basic_heads = None
        for order, fusion in CONFIGS:
            previous = basic_heads if order == "incumbent" else None
            fast = compute_clustering(
                graph, tie_ids=topology.ids, dag_ids=names, order=order,
                fusion=fusion, previous=previous, densities=densities)
            oracle = compute_clustering_reference(
                graph, tie_ids=topology.ids, dag_ids=names, order=order,
                fusion=fusion, previous=previous, densities=densities)
            assert_same(fast, oracle)
            assert_metrics_match(fast)
            if (order, fusion) == ("basic", False):
                basic_heads = fast.heads
        keys = {}
        for node in graph:
            components = [(node * 7 + mask) % 3, densities[node]]
            if names is not None:
                components.append(-names[node])
            components.append(-topology.ids[node])
            keys[node] = tuple(components)
        for fusion in (False, True):
            assert_same(
                clustering_from_keys(graph, keys, fusion=fusion,
                                     densities=densities, dag_ids=names,
                                     order_name="energy-aware"),
                clustering_from_keys_reference(
                    graph, keys, fusion=fusion, densities=densities,
                    dag_ids=names, order_name="energy-aware"))

    check_baselines(graph)
    hierarchy = build_hierarchy(topology, rng=np.random.default_rng(mask))
    requests = [Request(time=0.0, source=s, destination=d)
                for s in range(n) for d in range(n)]
    oracle = ReferenceRouter(hierarchy)
    for served in CachedRouter(hierarchy).route_batch(requests,
                                                      flat_every=1):
        request = served.request
        assert served == oracle.serve_reference(request, with_flat=True)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_every_graph_up_to_five_nodes(n):
    count = 0
    for mask, graph in labeled_graphs(n):
        check_graph(n, mask, graph)
        count += 1
    assert count == 1 << (n * (n - 1) // 2)


@pytest.mark.slow
def test_every_graph_on_six_nodes():
    count = 0
    for mask, graph in labeled_graphs(6):
        check_graph(6, mask, graph)
        count += 1
    assert count == 32_768
