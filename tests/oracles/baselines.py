"""Per-node baseline clusterer oracles: sets, dicts and Python sorts.

The production baselines (:mod:`repro.clustering.baselines`) encode
each priority as one int64 column and run greedy coverage and max-min
flooding as array kernels.  This module keeps the original per-node
formulations they must agree with: the greedy rule over a
``sorted(..., key=priority.get)`` scan with tuple priorities, and
max-min's ``2d`` flooding rounds as per-node winner logs.  The tests
compare the scratch clusterers and the incremental engines against
them, exhaustively on every graph of up to five nodes.
"""

import numpy as np

from repro.clustering.result import Clustering
from repro.graph.traversal import csr_multi_source_distances
from repro.util.errors import ConfigurationError


def lowest_id_clustering_reference(graph, tie_ids=None):
    """:func:`repro.clustering.baselines.lowest_id_clustering`, node by
    node: the lower identifier wins."""
    tie_ids = _default_ids(graph, tie_ids)
    priority = {node: -tie_ids[node] for node in graph}
    return greedy_dominating_clustering_reference(graph, priority)


def degree_clustering_reference(graph, tie_ids=None):
    """:func:`repro.clustering.baselines.degree_clustering`, node by
    node: the higher degree wins, then the lower identifier."""
    tie_ids = _default_ids(graph, tie_ids)
    priority = {node: (graph.degree(node), -tie_ids[node]) for node in graph}
    return greedy_dominating_clustering_reference(graph, priority)


def greedy_dominating_clustering_reference(graph, priority):
    """Greedy 1-hop clustering by decreasing ``priority`` (greater wins)."""
    heads = set()
    covered = set()
    for node in sorted(graph.nodes, key=priority.get, reverse=True):
        if node not in covered:
            heads.add(node)
            covered.add(node)
            covered |= graph.neighbors(node)

    parents = {}
    for node in graph:
        if node in heads:
            parents[node] = node
            continue
        adjacent_heads = [q for q in graph.neighbors(node) if q in heads]
        # Every non-head is dominated by construction.
        parents[node] = max(adjacent_heads, key=priority.get)
    return Clustering(graph, parents)


def maxmin_clustering_reference(graph, d=2, tie_ids=None):
    """:func:`repro.clustering.baselines.maxmin_clustering`, node by node."""
    if d < 1:
        raise ConfigurationError(f"d must be >= 1, got {d}")
    tie_ids = _default_ids(graph, tie_ids)

    max_log = _flood(
        graph,
        rounds=d,
        combine=max,
        start={node: tie_ids[node] for node in graph},
    )
    final_max = {node: max_log[node][-1] for node in graph}
    min_log = _flood(graph, rounds=d, combine=min, start=final_max)

    head_id_of = {}
    for node in graph:
        head_id_of[node] = _select_head_id(
            tie_ids[node],
            max_log[node],
            min_log[node],
        )

    id_to_node = {tie_ids[node]: node for node in graph}
    chosen_head = {node: id_to_node[head_id_of[node]] for node in graph}
    # A node selected as head by anyone must head its own cluster, or the
    # membership map would be ambiguous (standard max-min normalization).
    for head in set(chosen_head.values()):
        chosen_head[head] = head
    parents = _parents_from_membership(graph, chosen_head, tie_ids)
    return Clustering(graph, parents)


def _default_ids(graph, tie_ids):
    return {node: node for node in graph} if tie_ids is None else tie_ids


def _flood(graph, rounds, combine, start):
    """Run ``rounds`` of synchronous flooding, logging each round's winner."""
    current = dict(start)
    logs = {node: [] for node in graph}
    for _ in range(rounds):
        updated = {}
        for node in graph:
            values = [current[node]]
            values.extend(current[q] for q in graph.neighbors(node))
            updated[node] = combine(values)
        current = updated
        for node in graph:
            logs[node].append(current[node])
    return logs


def _select_head_id(own_id, max_winners, min_winners):
    if own_id in min_winners:
        return own_id  # Rule 1
    pairs = set(max_winners) & set(min_winners)
    if pairs:
        return min(pairs)  # Rule 2
    return max_winners[-1]  # Rule 3


def _parents_from_membership(graph, chosen_head, tie_ids):
    """Per-node head choices -> joining forest, one node at a time."""
    csr = graph.to_csr()
    index_of = csr.index_of
    n = len(csr)
    labels = np.full(n, -1, dtype=np.int64)
    for node, head in chosen_head.items():
        labels[index_of[node]] = index_of[head]
    sources = np.fromiter(
        {index_of[head] for head in chosen_head.values()},
        dtype=np.int64,
    )
    dist = csr_multi_source_distances(csr, sources, labels=labels)

    parents = {}
    ids = csr.ids
    indptr, indices = csr.indptr, csr.indices
    for row in range(n):
        node = ids[row]
        if labels[row] == row:
            parents[node] = node  # a head roots its own tree
        elif dist[row] < 0:
            parents[node] = node  # unreachable: fall back to singleton
        else:
            nbrs = indices[indptr[row] : indptr[row + 1]]
            closer = nbrs[
                (labels[nbrs] == labels[row]) & (dist[nbrs] == dist[row] - 1)
            ]
            parents[node] = min(
                (ids[q] for q in closer.tolist()),
                key=tie_ids.get,
            )
    return parents
