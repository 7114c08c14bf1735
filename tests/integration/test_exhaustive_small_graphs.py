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

:func:`test_densities_match_oracle` builds each graph two ways -- CSR-only
through ``Graph.from_pair_array`` and dict-backed through ``Graph(nodes,
edges)`` -- and checks triangle counts, the exact density mapping (order
and ``Fraction`` type included) and its float image against the per-edge
density oracle.

:func:`test_renaming_matches_oracle` checks the array renaming against
the per-node naming oracle on the same graphs (both variants, a tight
``γ = δ+2`` and the ``δ²`` space, fresh draws and corrupted
``initial_ids``): equal names, histories, round counts and final
generator state.  A hypothesis test repeats it on larger unit-disk
graphs.
"""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.baselines import (
    degree_clustering,
    lowest_id_clustering,
    maxmin_clustering,
)
from repro.clustering.density import all_densities
from repro.clustering.oracle import clustering_from_keys, compute_clustering
from repro.graph.generators import Topology, uniform_topology
from repro.graph.graph import Graph
from repro.hierarchy.hierarchy import build_hierarchy
from repro.hierarchy.routing import CachedRouter
from repro.naming.assign import assign_dag_ids
from repro.naming.namespace import NameSpace, recommended_size
from repro.naming.renaming import PoliteRenaming, RandomizedRenaming
from repro.util.errors import ConfigurationError, ConvergenceError
from repro.workload.generators import Request
from tests.oracles.baselines import (
    degree_clustering_reference,
    lowest_id_clustering_reference,
    maxmin_clustering_reference,
)
from tests.oracles.density import all_densities_reference
from tests.oracles.election import (
    clustering_from_keys_reference,
    compute_clustering_reference,
)
from tests.oracles.metrics import (
    depth_reference,
    head_eccentricity_reference,
    tree_length_reference,
)
from tests.oracles.naming import renaming_reference
from tests.oracles.routing import ReferenceRouter

CONFIGS = [(order, fusion) for order in ("basic", "incumbent")
           for fusion in (False, True)]

RENAMERS = {"randomized": RandomizedRenaming, "polite": PoliteRenaming}


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


def triangles_reference(graph):
    """Edges among each node's neighbors, pair by pair."""
    return [sum(1 for a, b in combinations(sorted(graph.neighbors(node)), 2)
                if graph.has_edge(a, b))
            for node in graph.nodes]


def check_densities(graph):
    csr = graph.to_csr()
    assert csr.triangle_counts().tolist() == triangles_reference(graph)
    densities = all_densities(graph, exact=True)
    items = list(densities.items())
    assert items == list(all_densities_reference(graph, exact=True).items())
    assert all(type(value) is Fraction for _node, value in items)
    assert densities.float_image().tolist() == [
        float(value) for _node, value in items]


def test_densities_match_oracle():
    count = 0
    for n in range(1, 6):
        for _mask, graph in labeled_graphs(n):
            pairs = np.array(graph.edges, dtype=np.int64).reshape(-1, 2)
            lazy = Graph.from_pair_array(pairs, n)
            dict(all_densities(lazy, exact=True))
            assert lazy._adj_map is None  # the oracles below materialize it
            for built in (lazy, graph):
                check_densities(built)
            count += 1
    assert count == 1_099


def _outcome(run, seed):
    """``(result fields, final generator state)`` or the raised error."""
    rng = np.random.default_rng(seed)
    try:
        result = run(rng)
    except (ConfigurationError, ConvergenceError) as error:
        # Both sides must fail alike.
        return type(error), str(error), rng.bit_generator.state
    return (list(result.ids.items()), result.rounds, result.redraw_rounds,
            result.history, rng.bit_generator.state)


def check_renaming(graph, seed):
    """Both renaming variants equal the naming oracle on ``graph``."""
    n = len(graph)
    delta = graph.max_degree()
    tie_ids = dict(zip(graph.nodes,
                       np.random.default_rng([*seed, 1]).permutation(n)
                       .tolist()))
    for size in sorted({delta + 2, recommended_size(delta)}):
        namespace = NameSpace(size)
        # Corrupted start: duplicates plus names just outside γ.
        corrupted = dict(zip(graph.nodes,
                             np.random.default_rng([*seed, size])
                             .integers(-1, size + 1, size=n).tolist()))
        for variant, renamer in RENAMERS.items():
            for initial in (None, corrupted):
                fast = _outcome(
                    lambda rng: renamer(namespace=namespace,
                                        keep_history=True).run(
                        graph, rng=rng, initial_ids=initial,
                        tie_ids=tie_ids),
                    seed)
                oracle = _outcome(
                    lambda rng: renaming_reference(
                        graph, variant, rng=rng, namespace=namespace,
                        initial_ids=initial, tie_ids=tie_ids,
                        keep_history=True),
                    seed)
                assert fast == oracle


def test_renaming_matches_oracle():
    count = 0
    for n in range(1, 6):
        for mask, graph in labeled_graphs(n):
            check_renaming(graph, [n, mask])
            count += 1
    assert count == 1_099


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 300), radius=st.floats(0.05, 0.4),
       seed=st.integers(0, 2**32 - 1))
def test_renaming_matches_oracle_on_udgs(n, radius, seed):
    graph = uniform_topology(n, radius, rng=seed).graph
    check_renaming(graph, [seed, n])
