"""Tests for Definition 1's density metric, including Table 1 exactness."""

import pickle
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graph.csr as csr_module
from repro.clustering.density import (
    ISOLATED_DENSITY,
    ExactDensities,
    all_densities,
    density,
    density_bounds,
    edges_among,
)
from repro.clustering.oracle import compute_clustering
from repro.experiments.paper_values import TABLE1
from repro.graph.generators import (
    complete_topology,
    line_topology,
    star_topology,
    uniform_topology,
)
from repro.graph.graph import Graph
from repro.util.errors import TopologyError


class TestTable1Exact:
    def test_every_density_matches_the_paper(self, fig1):
        densities = all_densities(fig1.graph, exact=True)
        for node, (_, _, expected) in TABLE1.items():
            assert densities[node] == Fraction(expected).limit_denominator(8)

    def test_link_counts_match_the_paper(self, fig1):
        for node, (_, links, _) in TABLE1.items():
            neighbors = fig1.graph.neighbors(node)
            assert len(neighbors) + edges_among(fig1.graph, neighbors) == links

    def test_single_node_density_agrees_with_bulk(self, fig1):
        bulk = all_densities(fig1.graph, exact=True)
        for node in fig1.graph:
            assert density(fig1.graph, node, exact=True) == bulk[node]


class TestDefinition:
    def test_path_interior_density_is_one(self):
        graph = line_topology(5).graph
        assert density(graph, 2) == 1.0

    def test_path_endpoint_density_is_one(self):
        graph = line_topology(5).graph
        assert density(graph, 0) == 1.0

    def test_star_center(self):
        # Center of a 4-leaf star: 4 links, 4 neighbors, no triangles.
        graph = star_topology(4).graph
        assert density(graph, 0) == 1.0

    def test_triangle_density(self):
        graph = Graph(edges=[(0, 1), (1, 2), (2, 0)])
        # Each node: 2 neighbors, 3 links -> 1.5.
        assert density(graph, 0) == 1.5

    def test_complete_graph_hits_upper_bound(self):
        graph = complete_topology(6).graph
        deg = 5
        expected_high = 1.0 + (deg - 1) / 2.0
        for node in graph:
            assert density(graph, node) == pytest.approx(expected_high)

    def test_isolated_node(self):
        graph = Graph(nodes=[1])
        assert density(graph, 1) == ISOLATED_DENSITY
        assert density(graph, 1, exact=True) == Fraction(0)

    def test_exact_returns_fraction(self, fig1):
        value = density(fig1.graph, "b", exact=True)
        assert isinstance(value, Fraction)
        assert value == Fraction(5, 4)

    def test_missing_node_raises(self):
        with pytest.raises(TopologyError):
            density(Graph(), 1)


class TestAllDensities:
    def test_matches_per_node_on_random_graph(self, random50):
        graph = random50.graph
        bulk = all_densities(graph, exact=True)
        for node in graph:
            assert bulk[node] == density(graph, node, exact=True)

    def test_exact_flag_types(self, k4):
        floats = all_densities(k4.graph)
        fractions = all_densities(k4.graph, exact=True)
        assert all(isinstance(v, float) for v in floats.values())
        assert all(isinstance(v, Fraction) for v in fractions.values())

    def test_covers_isolated_nodes(self):
        graph = Graph(nodes=[1, 2], edges=[(3, 4)])
        bulk = all_densities(graph)
        assert bulk[1] == ISOLATED_DENSITY
        assert bulk[3] == 1.0


class TestExactDensities:
    def lazy_graph(self):
        pairs = np.array([[0, 1], [0, 2], [1, 2], [2, 3]])
        return Graph.from_pair_array(pairs, [10, 11, 12, 13, 14])

    def test_is_a_read_only_mapping_over_snapshot_order(self):
        graph = self.lazy_graph()
        densities = all_densities(graph, exact=True)
        assert isinstance(densities, ExactDensities)
        assert list(densities) == [10, 11, 12, 13, 14]
        assert densities[12] == Fraction(4, 3)
        assert densities[14] == Fraction(0)
        assert 14 in densities and 99 not in densities
        with pytest.raises(KeyError):
            densities[99]
        with pytest.raises((AttributeError, TypeError)):
            densities[10] = Fraction(1)
        assert graph._adj_map is None

    def test_equals_the_plain_dict(self):
        graph = self.lazy_graph()
        densities = all_densities(graph, exact=True)
        plain = {10: Fraction(3, 2), 11: Fraction(3, 2), 12: Fraction(4, 3),
                 13: Fraction(1), 14: Fraction(0)}
        assert densities == plain
        assert plain == densities
        assert densities != {**plain, 13: Fraction(2)}

    def test_pickles_as_arrays(self):
        densities = all_densities(self.lazy_graph(), exact=True)
        payload = pickle.dumps(densities)
        assert b"Fraction" not in payload
        restored = pickle.loads(payload)
        assert isinstance(restored, ExactDensities)
        assert restored.snapshot is None
        assert list(restored.items()) == list(densities.items())
        assert restored.float_image().tolist() == \
            densities.float_image().tolist()

    def test_clustering_holding_the_mapping_pickles(self):
        graph = uniform_topology(60, 0.25, rng=3).graph
        densities = all_densities(graph, exact=True)
        clustering = compute_clustering(graph, densities=densities)
        assert clustering.densities is densities  # kept, not copied
        restored = pickle.loads(pickle.dumps(clustering))
        assert isinstance(restored.densities, ExactDensities)
        assert restored.densities == densities
        assert restored.parents == clustering.parents
        assert restored.heads == clustering.heads


def triangles_reference(graph):
    return [sum(1 for a, b in combinations(sorted(graph.neighbors(node)), 2)
                if graph.has_edge(a, b))
            for node in graph.nodes]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 150), radius=st.floats(0.05, 0.5),
       seed=st.integers(0, 2**32 - 1), chunk=st.integers(1, 9))
def test_triangle_chunks_straddle_edges(n, radius, seed, chunk):
    """A tiny candidate budget splits edges' candidates across chunks."""
    graph = uniform_topology(n, radius, rng=seed).graph
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(csr_module, "_TRIANGLE_CHUNK", chunk)
        counts = graph.to_csr().triangle_counts()
    assert counts.tolist() == triangles_reference(graph)


class TestEdgesAmong:
    def test_counts_each_edge_once(self):
        graph = Graph(edges=[(0, 1), (1, 2), (2, 0), (2, 3)])
        assert edges_among(graph, {0, 1, 2}) == 3

    def test_ignores_edges_leaving_the_set(self):
        graph = Graph(edges=[(0, 1), (1, 2)])
        assert edges_among(graph, {0, 1}) == 1

    def test_empty_set(self, k4):
        assert edges_among(k4.graph, set()) == 0


class TestDensityBounds:
    def test_degree_zero(self):
        assert density_bounds(0) == (ISOLATED_DENSITY, ISOLATED_DENSITY)

    def test_degree_one(self):
        assert density_bounds(1) == (1.0, 1.0)

    def test_general_degree(self):
        low, high = density_bounds(5)
        assert low == 1.0
        assert high == 3.0

    def test_negative_degree_raises(self):
        with pytest.raises(TopologyError):
            density_bounds(-1)

    def test_bounds_hold_on_random_graph(self, random50):
        graph = random50.graph
        for node, value in all_densities(graph).items():
            low, high = density_bounds(graph.degree(node))
            assert low <= value <= high
