"""Per-node traversal oracles: deque BFS over the dict adjacency.

The production traversals (:mod:`repro.graph.paths`) ride the CSR
snapshot's array kernels.  These are the original dict-backend loops
they must agree with; the property tests compare against them, and the
traversal floor benches use them as their speedup baseline.
"""

from collections import deque

from repro.util.errors import TopologyError


def bfs_distances_reference(graph, source):
    """:func:`repro.graph.paths.bfs_distances`, one deque BFS."""
    if source not in graph:
        raise TopologyError(f"source {source!r} not in graph")
    distances = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor in graph.neighbors(node):
            if neighbor not in distances:
                distances[neighbor] = distances[node] + 1
                queue.append(neighbor)
    return distances


def connected_components_reference(graph):
    """:func:`repro.graph.paths.connected_components`, one BFS per
    component."""
    remaining = set(graph.nodes)
    components = []
    while remaining:
        start = next(iter(remaining))
        component = set(bfs_distances_reference(graph, start))
        components.append(component)
        remaining -= component
    return components
