"""Hierarchical routing over a 2-level cluster hierarchy.

The up-over-down scheme every cluster-based routing paper assumes:

1. route inside the source's cluster to the gateway toward the next
   cluster on the overlay path;
2. cross the gateway edge;
3. repeat along the overlay path computed between the source's and
   destination's heads;
4. finish inside the destination's cluster.

Intra-cluster legs follow shortest paths in the cluster-induced subgraph,
overlay legs follow shortest paths in the overlay graph.  The *stretch*
(hierarchical length / flat shortest-path length) quantifies what the
routing-state savings cost; the scalability experiment reports both.

Every route comes from one implementation, :meth:`CachedRouter.
route_batch`.  A route decomposes into three reusable pieces -- an
overlay head path, one gateway per overlay hop, and intra-cluster legs
-- and under any realistic workload those pieces repeat across requests
far more often than whole (source, destination) pairs do.  The router
memoizes

* the overlay BFS tree per source head (one deque BFS each in
  neighbor order, so the chosen head path and hence the gateway
  sequence are deterministic);
* a compact **per-cluster sub-CSR** (member rows ascending, neighbor
  blocks filtered to the cluster) so intra-cluster parent fan-outs are
  sweeps over cluster-sized arrays instead of graph-sized ones.  The
  renumbering is monotonic and the parent rule is "smallest row at the
  previous BFS level", so every unwound leg is the path a
  label-constrained BFS over the full graph would pick;
* a dense all-pairs distance matrix per cluster -- one level-synchronous
  multi-source sweep (boolean matrix products) covering every leg the
  cluster will ever serve;
* the gateway orientation per ordered head pair;
* flat BFS distance arrays per *destination* (distances are symmetric,
  and skewed workloads concentrate destinations) in a bounded **LRU**
  cache -- hits move to the back of the eviction queue, so Zipf-skewed
  destination popularity keeps its hot set resident -- with hit/miss
  counters the workload family reports.

``route_batch`` groups a request chunk by (source head, destination
head), resolves each group's head path, gateways and middle legs once,
and assembles per-request routes by tuple concatenation.  A single
request is a batch of one: :meth:`CachedRouter.route`,
:meth:`CachedRouter.serve`, :func:`hierarchical_route` and
:func:`route_stretch` are thin wrappers over it.  The test suite checks
``route_batch`` against a per-request oracle on every ordered pair of
every graph of up to six nodes.
"""

import math
from collections import OrderedDict, deque
from typing import NamedTuple, Optional

import numpy as np

from repro.graph.traversal import csr_bfs_distances
from repro.hierarchy.overlay import gateway_for
from repro.util.errors import ConfigurationError, TopologyError

#: Sentinel returned by :func:`route_stretch` for a disconnected pair:
#: infinitely many hops on both paths, infinite stretch.  Callers that
#: sample pairs filter with ``math.isinf(stretch)`` instead of catching
#: an exception.
UNREACHABLE = (math.inf, math.inf, math.inf)


class ServedRequest(NamedTuple):
    """The outcome of routing one request.

    ``route`` is the physical node path (``None`` when the hierarchy
    offers no route), ``head_path`` the overlay head sequence the route
    crossed (a 1-tuple for intra-cluster traffic), ``hops`` the route
    length in hops, and ``flat_hops`` the flat shortest-path length --
    ``None`` when stretch accounting was not requested for this event
    (see ``flat_every`` in :meth:`CachedRouter.route_batch`).
    """

    request: object
    route: Optional[tuple]
    head_path: Optional[tuple]
    hops: Optional[int]
    flat_hops: Optional[int] = None


class _Pair(NamedTuple):
    """A bare (source, destination) request for batch-of-one routing."""

    source: object
    destination: object


class CachedRouter:
    """Amortized hierarchical routing over one hierarchy snapshot.

    ``flat_cache`` bounds how many per-destination flat BFS distance
    arrays are kept (LRU eviction), so memory stays O(cache * n) even
    under uniform destination popularity.  ``flat_hits`` /
    ``flat_misses`` count cache outcomes for the workload report.
    """

    def __init__(self, hierarchy, flat_cache=256):
        level = hierarchy.physical
        self.hierarchy = hierarchy
        self.head_of = level.clustering.head_of
        self.overlay = level.overlay
        self.csr, self.labels = level.clustering.cluster_rows()
        self.index_of = self.csr.index_of
        self.ids = self.csr.ids
        self._subs = {}           # head row -> (indptr, indices, members)
        self._sub_lists = {}      # head row -> (indptr list, indices list)
        self._dense = {}          # head row -> all-pairs distance matrix
        self._leg_paths = {}      # (head, source, target) -> node tuple
        self._member_slices = None  # head row -> member row array
        self._overlay_trees = {}  # head -> {head: parent} BFS tree
        self._overlay_paths = {}  # (src head, dst head) -> head tuple|None
        self._gateways = {}       # (here, there) -> (exit node, entry node)
        self._flat = OrderedDict()  # destination -> distance array (LRU)
        self._flat_cache = flat_cache
        self.flat_hits = 0
        self.flat_misses = 0

    # -- overlay ------------------------------------------------------

    def _overlay_tree(self, head):
        """Full BFS parent tree over the overlay graph from ``head``.

        Deque BFS in neighbor order, so the tree holds the parents an
        early-exit BFS toward any single target would record: unwound
        paths are that search's shortest path.
        """
        tree = self._overlay_trees.get(head)
        if tree is None:
            graph = self.overlay.topology.graph
            tree = {head: None}
            queue = deque([head])
            while queue:
                node = queue.popleft()
                for neighbor in graph.neighbors(node):
                    if neighbor not in tree:
                        tree[neighbor] = node
                        queue.append(neighbor)
            self._overlay_trees[head] = tree
        return tree

    def overlay_path(self, head_src, head_dst):
        """The overlay head path between two heads, or ``None``."""
        key = (head_src, head_dst)
        if key not in self._overlay_paths:
            tree = self._overlay_tree(head_src)
            if head_dst not in tree:
                self._overlay_paths[key] = None
            else:
                path = [head_dst]
                while tree[path[-1]] is not None:
                    path.append(tree[path[-1]])
                path.reverse()
                self._overlay_paths[key] = tuple(path)
        return self._overlay_paths[key]

    # -- intra-cluster legs -------------------------------------------

    def _member_rows(self, head_row):
        """Member rows of every cluster, grouped once via one argsort."""
        slices = self._member_slices
        if slices is None:
            labels = self.labels
            order = np.argsort(labels, kind="stable").astype(np.int64)
            grouped = labels[order]
            starts = np.flatnonzero(
                np.r_[True, grouped[1:] != grouped[:-1]]
            )
            bounds = np.r_[starts, len(order)]
            slices = {
                int(grouped[lo]): order[lo:hi]
                for lo, hi in zip(bounds, bounds[1:])
            }
            self._member_slices = slices
        return slices[head_row]

    def _sub(self, head):
        """``(indptr, indices, members)`` of the cluster-induced sub-CSR.

        ``members`` are the cluster's rows ascending; local row ``k``
        is ``members[k]``.  Neighbor blocks keep their ascending order,
        so the smallest-previous-level-row parent rule picks the same
        physical nodes as a label-constrained full-graph sweep.
        """
        head_row = self.index_of[head]
        sub = self._subs.get(head_row)
        if sub is None:
            members = self._member_rows(head_row)
            csr = self.csr
            starts = csr.indptr[members].astype(np.int64)
            counts = csr.indptr[members + 1].astype(np.int64) - starts
            take = (
                np.arange(int(counts.sum()), dtype=np.int64)
                - np.repeat(np.cumsum(counts) - counts, counts)
                + np.repeat(starts, counts)
            )
            neigh = csr.indices[take].astype(np.int64)
            keep = self.labels[neigh] == head_row
            local = np.searchsorted(members, neigh[keep]).astype(np.int32)
            row_of = np.repeat(np.arange(len(members)), counts)
            kept_per_row = np.bincount(
                row_of[keep], minlength=len(members)
            ).astype(np.int32)
            indptr = np.zeros(len(members) + 1, dtype=np.int32)
            np.cumsum(kept_per_row, out=indptr[1:])
            sub = (indptr, local, members)
            self._subs[head_row] = sub
            self._sub_lists[head_row] = (indptr.tolist(), local.tolist())
        return sub

    def _cluster_distances(self, head):
        """Dense all-pairs hop distances of one cluster, lazily built.

        One level-synchronous **multi-source sweep** over the cluster's
        sub-CSR: every member is a source at once, frontiers advance as
        a boolean matrix product (BLAS) per level.  ``D[s, t]`` is the
        intra-cluster hop distance (``-1`` disconnected).  Distances
        are tie-break-free, so the matrix is exact; one build serves
        every request group that ever touches the cluster, replacing a
        BFS per (cluster, leg source).
        """
        head_row = self.index_of[head]
        dense = self._dense.get(head_row)
        if dense is None:
            indptr, indices, _members = self._sub(head)
            n = len(indptr) - 1
            adjacency = np.zeros((n, n), dtype=np.float32)
            adjacency[np.repeat(np.arange(n), np.diff(indptr)), indices] = 1.0
            dense = np.full((n, n), -1, dtype=np.int16)
            np.fill_diagonal(dense, 0)
            visited = np.eye(n, dtype=bool)
            frontier = np.eye(n, dtype=np.float32)
            level = 0
            while True:
                level += 1
                fresh = (frontier @ adjacency > 0.0) & ~visited
                if not fresh.any():
                    break
                dense[fresh] = level
                visited |= fresh
                frontier = fresh.astype(np.float32)
            self._dense[head_row] = dense
        return dense

    def _leg(self, head, source, target):
        """Shortest same-cluster path from ``source`` to ``target``.

        The deterministic parent rule ("first discoverer in
        (sorted-frontier row, ascending CSR neighbor) order") is
        equivalent to "smallest-row neighbor at the previous BFS
        level", so given the cluster's dense distance matrix the path
        unwinds target -> source by scanning each row's ascending CSR
        block for the first neighbor one level closer to the source.
        The member renumbering is monotonic, hence the local rule picks
        exactly the nodes a full-graph label-constrained search picks.
        """
        key = (head, source, target)
        path = self._leg_paths.get(key)
        if path is None:
            head_row = self.index_of[head]
            _indptr, _indices, members = self._sub(head)
            ptr, ind = self._sub_lists[head_row]
            dense = self._cluster_distances(head)
            local_src = int(np.searchsorted(members, self.index_of[source]))
            local_tgt = int(np.searchsorted(members, self.index_of[target]))
            hops = int(dense[local_src, local_tgt])
            if hops < 0:
                raise TopologyError(
                    f"cluster of {head!r} is internally disconnected")
            from_src = dense[local_src].tolist()
            rows = [local_tgt]
            node = local_tgt
            for level in range(hops - 1, -1, -1):
                for p in range(ptr[node], ptr[node + 1]):
                    neighbor = ind[p]
                    if from_src[neighbor] == level:
                        node = neighbor
                        break
                rows.append(node)
            rows.reverse()
            ids = self.ids
            path = tuple(ids[members[row]] for row in rows)
            self._leg_paths[key] = path
        return path

    def _gateway(self, here, there):
        key = (here, there)
        gateway = self._gateways.get(key)
        if gateway is None:
            gateway = gateway_for(self.overlay, here, there)
            self._gateways[key] = gateway
        return gateway

    # -- routing ------------------------------------------------------

    def _group_plan(self, head_src, head_dst):
        """``(head_path, exit1, middle, entry_last)`` for one head pair.

        ``middle`` is the fixed mid-route node run shared by every
        request of the (source head, destination head) group: the first
        entry gateway, every transit-cluster leg, down to the last
        cluster's entry gateway.  ``None`` when the pair is unroutable.
        """
        head_path = self.overlay_path(head_src, head_dst)
        if head_path is None:
            return None
        exit_node, entry_node = self._gateway(head_path[0], head_path[1])
        middle = [entry_node]
        current = entry_node
        for hop in range(1, len(head_path) - 1):
            here, there = head_path[hop], head_path[hop + 1]
            exit_mid, entry_mid = self._gateway(here, there)
            middle.extend(self._leg(here, current, exit_mid)[1:])
            middle.append(entry_mid)
            current = entry_mid
        return head_path, exit_node, tuple(middle), current

    def route_batch(self, requests, flat_every=0, first_index=0):
        """Serve a request chunk; a list of :class:`ServedRequest`.

        ``requests`` are any objects with ``source`` and ``destination``
        attributes.  Requests are grouped by (source head, destination
        head); each group resolves its overlay head path, gateway
        sequence, and transit-cluster legs once, and one dense
        multi-source sweep per endpoint cluster (:meth:`_cluster_distances`,
        shared across groups) covers the whole leg fan-out, so
        per-request work reduces to the two endpoint legs plus tuple
        concatenation.  The flat shortest-path length is sampled for the
        routed requests with ``(first_index + i) % flat_every == 0``
        (none when ``flat_every`` is 0), in input order.
        """
        requests = list(requests)
        served = [None] * len(requests)
        groups = {}
        head_of = self.head_of
        for i, request in enumerate(requests):
            key = (head_of[request.source], head_of[request.destination])
            bucket = groups.get(key)
            if bucket is None:
                groups[key] = bucket = []
            bucket.append(i)
        for (head_src, head_dst), bucket in groups.items():
            if head_src == head_dst:
                for i in bucket:
                    request = requests[i]
                    leg = self._leg(head_src, request.source,
                                    request.destination)
                    served[i] = ServedRequest(
                        request=request, route=list(leg),
                        head_path=(head_src,), hops=len(leg) - 1)
                continue
            plan = None if self.overlay is None else \
                self._group_plan(head_src, head_dst)
            if plan is None:
                for i in bucket:
                    served[i] = ServedRequest(
                        request=requests[i], route=None, head_path=None,
                        hops=None)
                continue
            head_path, exit_node, middle, entry_last = plan
            # One dense multi-source sweep per endpoint cluster (cached
            # across groups) covers every leg fan-out below.
            self._cluster_distances(head_src)
            self._cluster_distances(head_dst)
            for i in bucket:
                request = requests[i]
                first = self._leg(head_src, request.source, exit_node)
                last = self._leg(head_dst, entry_last, request.destination)
                route = list(first)
                route.extend(middle)
                route.extend(last[1:])
                served[i] = ServedRequest(
                    request=request, route=route, head_path=head_path,
                    hops=len(route) - 1)
        if flat_every:
            # Flat sampling runs in input order so the LRU flat cache
            # sees the request sequence, not the grouping.
            for i, event in enumerate(served):
                if (first_index + i) % flat_every == 0 \
                        and event.route is not None:
                    served[i] = event._replace(flat_hops=self.flat_hops(
                        event.request.source, event.request.destination))
        return served

    def serve(self, request, with_flat=False):
        """Route one request into a :class:`ServedRequest` (batch of one)."""
        return self.route_batch([request], flat_every=int(with_flat))[0]

    def route(self, source, destination):
        """``(route, head_path)``; ``(None, None)`` when unroutable.

        ``head_path`` is the overlay head sequence the route crossed
        (``(head,)`` for intra-cluster pairs).
        """
        served = self.serve(_Pair(source, destination))
        return served.route, served.head_path

    def flat_hops(self, source, destination):
        """Flat shortest-path hops, or ``None`` when disconnected.

        BFS arrays are keyed by *destination* (hop distances are
        symmetric), which is exactly the axis skewed workloads
        concentrate on; the cache is LRU so a skewed hot set stays
        resident.
        """
        dist = self._flat.get(destination)
        if dist is None:
            self.flat_misses += 1
            dist = csr_bfs_distances(self.csr, self.index_of[destination])
            self._flat[destination] = dist
            if len(self._flat) > self._flat_cache:
                self._flat.popitem(last=False)
        else:
            self.flat_hits += 1
            self._flat.move_to_end(destination)
        hops = int(dist[self.index_of[source]])
        return None if hops < 0 else hops

    def flat_cache_stats(self):
        """``{hits, misses, lookups, hit_ratio}`` of the flat-BFS cache."""
        lookups = self.flat_hits + self.flat_misses
        return {
            "hits": self.flat_hits,
            "misses": self.flat_misses,
            "lookups": lookups,
            "hit_ratio": self.flat_hits / lookups if lookups else math.nan,
        }

    def route_stretch(self, source, destination):
        """``(hierarchical hops, flat shortest hops, stretch)`` for one pair.

        Both endpoints must be physical nodes (:class:`TopologyError`
        otherwise).  A *disconnected* pair returns the documented
        :data:`UNREACHABLE` sentinel ``(inf, inf, inf)`` -- an expected
        outcome on sparse deployments, not an error.  A connected pair
        for which the hierarchy offers no route would be an internal
        inconsistency and raises :class:`ConfigurationError`.
        """
        if source not in self.index_of:
            raise TopologyError(f"source {source!r} not in graph")
        if destination not in self.index_of:
            raise TopologyError(f"destination {destination!r} not in graph")
        flat = self.flat_hops(source, destination)
        if flat is None:
            return UNREACHABLE
        if flat == 0:
            return (0, 0, 1.0)
        route, _head_path = self.route(source, destination)
        if route is None:
            raise ConfigurationError("hierarchy offers no route for the pair")
        hops = len(route) - 1
        return (hops, flat, hops / flat)


def hierarchical_route(hierarchy, source, destination):
    """Physical node path from ``source`` to ``destination``; None when the
    overlay offers no route (disconnected network).

    Uses the level-0 clustering and the level-0 overlay; deeper levels
    refine the overlay search space but the expansion is already the
    canonical 2-level scheme.  Callers routing many pairs should keep
    one :class:`CachedRouter` instead.
    """
    return CachedRouter(hierarchy).route(source, destination)[0]


def route_stretch(hierarchy, source, destination):
    """:meth:`CachedRouter.route_stretch` on a fresh router."""
    return CachedRouter(hierarchy).route_stretch(source, destination)
