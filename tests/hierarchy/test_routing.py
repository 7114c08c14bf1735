"""Tests for hierarchical routing."""

import math

import pytest

from repro.graph.generators import line_topology, uniform_topology
from repro.graph.graph import Graph
from repro.graph.paths import bfs_distances, is_connected
from repro.hierarchy.hierarchy import build_hierarchy
from repro.hierarchy.routing import UNREACHABLE, hierarchical_route, route_stretch
from repro.util.errors import TopologyError
from tests.oracles.routing import shortest_path


@pytest.fixture(scope="module")
def connected_hierarchy():
    for seed in range(20):
        topo = uniform_topology(150, 0.15, rng=seed)
        if is_connected(topo.graph):
            return topo, build_hierarchy(topo, rng=seed)
    raise AssertionError("no connected deployment found")


class TestShortestPath:
    def test_trivial(self):
        graph = line_topology(3).graph
        assert shortest_path(graph, 1, 1) == [1]

    def test_on_line(self):
        graph = line_topology(5).graph
        assert shortest_path(graph, 0, 4) == [0, 1, 2, 3, 4]

    def test_disconnected_returns_none(self):
        graph = Graph(nodes=[0, 1])
        assert shortest_path(graph, 0, 1) is None

    def test_unknown_node_raises(self):
        with pytest.raises(TopologyError):
            shortest_path(Graph(nodes=[0]), 0, 9)


class TestHierarchicalRoute:
    def test_routes_are_valid_walks(self, connected_hierarchy):
        topo, hierarchy = connected_hierarchy
        nodes = sorted(topo.graph.nodes)
        pairs = [(nodes[i], nodes[-(i + 1)]) for i in range(10)]
        for source, destination in pairs:
            route = hierarchical_route(hierarchy, source, destination)
            assert route[0] == source
            assert route[-1] == destination
            for a, b in zip(route, route[1:]):
                assert topo.graph.has_edge(a, b), (a, b)

    def test_intra_cluster_route_is_shortest(self, connected_hierarchy):
        topo, hierarchy = connected_hierarchy
        clustering = hierarchy.physical.clustering
        head = max(clustering.heads,
                   key=lambda h: len(clustering.members(h)))
        members = sorted(clustering.members(head), key=repr)
        source, destination = members[0], members[-1]
        route = hierarchical_route(hierarchy, source, destination)
        flat = bfs_distances(topo.graph, source)[destination]
        assert len(route) - 1 >= flat  # cluster-internal may still detour

    def test_same_node_route(self, connected_hierarchy):
        topo, hierarchy = connected_hierarchy
        node = next(iter(topo.graph))
        assert hierarchical_route(hierarchy, node, node) == [node]

    def test_stretch_at_least_one(self, connected_hierarchy):
        topo, hierarchy = connected_hierarchy
        nodes = sorted(topo.graph.nodes)
        for source, destination in [(nodes[0], nodes[-1]),
                                    (nodes[3], nodes[-7])]:
            hops, flat, stretch = route_stretch(hierarchy, source,
                                                destination)
            assert hops >= flat
            assert stretch >= 1.0

    def test_disconnected_pair_returns_sentinel(self):
        from repro.graph.generators import Topology
        graph = Graph(edges=[(0, 1), (2, 3)])
        topo = Topology(graph)
        hierarchy = build_hierarchy(topo, use_dag=False)
        result = route_stretch(hierarchy, 0, 3)
        assert result == UNREACHABLE
        assert all(math.isinf(value) for value in result)

    def test_unknown_destination_raises(self):
        from repro.graph.generators import Topology
        graph = Graph(edges=[(0, 1)])
        hierarchy = build_hierarchy(Topology(graph), use_dag=False)
        with pytest.raises(TopologyError):
            route_stretch(hierarchy, 0, 99)
        with pytest.raises(TopologyError):
            route_stretch(hierarchy, 99, 0)
