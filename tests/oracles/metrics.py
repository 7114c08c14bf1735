"""Per-node clustering-metric oracles: link chasing and subgraph BFS.

:class:`repro.clustering.result.Clustering` serves every joining-tree
depth from one pointer-doubling resolve and every head eccentricity from
one batched label-constrained sweep.  These functions keep the original
per-node formulations they must agree with; the property and exhaustive
tests compare against them, and the head-eccentricity floor bench uses
:func:`head_eccentricity_reference` as its speedup baseline.
"""

from repro.util.errors import TopologyError
from tests.oracles.paths import bfs_distances_reference


def depth_reference(clustering, node):
    """:meth:`Clustering.depth`, one parent link at a time."""
    parents = clustering.parents
    count = 0
    current = node
    while parents[current] != current:
        current = parents[current]
        count += 1
    return count


def tree_length_reference(clustering, head):
    """:meth:`Clustering.tree_length`, the deepest member's depth."""
    members = clustering.members(head)
    return max(depth_reference(clustering, node) for node in members)


def head_eccentricity_reference(clustering, head):
    """:meth:`Clustering.head_eccentricity`, one BFS over the
    cluster-induced subgraph."""
    members = clustering.members(head)
    subgraph = clustering.graph.induced_subgraph(members)
    distances = bfs_distances_reference(subgraph, head)
    if set(distances) != set(members):
        raise TopologyError(
            f"cluster of {head!r} is not connected; joining forest invalid")
    return max(distances.values())
