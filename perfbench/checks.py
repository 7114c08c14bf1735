"""Output checks and result digests, run outside every timed section.

The route checks read only arrays they build themselves from the frozen
CSR snapshot, so checking a batch warms no cache the router could later
reuse.
"""

import hashlib
import json

import numpy as np


class CheckFailed(Exception):
    """An operation produced a wrong output."""


def check_hierarchy(hierarchy):
    """Every level's clustering passes ``Clustering.check_invariants``."""
    for level in hierarchy.levels:
        level.clustering.check_invariants()


class RouteChecker:
    """Validates served routes against one physical graph."""

    def __init__(self, graph):
        csr = graph.to_csr()
        n = len(csr.ids)
        ids = np.asarray(csr.ids, dtype=np.int64)
        self._row_of = np.full(int(ids.max()) + 1 if n else 1, -1,
                               dtype=np.int64)
        self._row_of[ids] = np.arange(n)
        indptr = np.asarray(csr.indptr, dtype=np.int64)
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        self._n = n
        self._edge_keys = np.sort(rows * n + np.asarray(csr.indices))
        self._component = _components(indptr, np.asarray(csr.indices), n)

    def _rows(self, nodes):
        return self._row_of[np.asarray(nodes, dtype=np.int64)]

    def check(self, served):
        """Raise :class:`CheckFailed` unless every event is a valid route.

        A route must start at the source, end at the destination and
        step only along physical edges; its hop count may not fall below
        a sampled flat hop count.  A request without a route must join
        two different connected components.
        """
        routed = [event for event in served if event.route is not None]
        unrouted = [event for event in served if event.route is None]
        if unrouted:
            src = self._rows([e.request.source for e in unrouted])
            dst = self._rows([e.request.destination for e in unrouted])
            if np.any(self._component[src] == self._component[dst]):
                raise CheckFailed("no route between connected nodes")
        if not routed:
            return
        lengths = np.fromiter((len(e.route) for e in routed),
                              dtype=np.int64, count=len(routed))
        rows = self._rows([node for e in routed for node in e.route])
        if np.any(rows < 0):
            raise CheckFailed("route visits an unknown node")
        ends = np.cumsum(lengths)
        starts = ends - lengths
        if not (np.array_equal(rows[starts],
                               self._rows([e.request.source for e in routed]))
                and np.array_equal(
                    rows[ends - 1],
                    self._rows([e.request.destination for e in routed]))):
            raise CheckFailed("route does not join source and destination")
        step = np.ones(len(rows), dtype=bool)
        step[ends - 1] = False  # no step from a route's last node
        u = rows[:-1][step[:-1]]
        v = rows[1:][step[:-1]]
        keys = u * self._n + v
        found = np.searchsorted(self._edge_keys, keys)
        found = np.minimum(found, len(self._edge_keys) - 1)
        if len(keys) and not np.all(self._edge_keys[found] == keys):
            raise CheckFailed("route steps over a non-edge")
        for event, length in zip(routed, lengths.tolist()):
            if event.hops != length - 1:
                raise CheckFailed("hop count disagrees with the route")
            if event.flat_hops is not None and event.hops < event.flat_hops:
                raise CheckFailed("route shorter than the flat shortest path")


def _components(indptr, indices, n):
    """Connected-component label per row (plain BFS, independent of the
    program's traversal kernels)."""
    labels = np.full(n, -1, dtype=np.int64)
    for root in range(n):
        if labels[root] >= 0:
            continue
        labels[root] = root
        frontier = np.array([root])
        while len(frontier):
            neighbors = np.concatenate(
                [indices[indptr[r]:indptr[r + 1]] for r in frontier])
            neighbors = np.unique(neighbors)
            neighbors = neighbors[labels[neighbors] < 0]
            labels[neighbors] = root
            frontier = neighbors
    return labels


def digest(value):
    """Stable short hash of a JSON-serialisable value."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
