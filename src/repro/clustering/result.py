"""The :class:`Clustering` result object and its structural metrics.

A clustering is a *joining forest*: every node has a parent ``F(p)`` (a
neighbor, or itself), and the root of each tree is the cluster-head
``H(p)``.  The metrics reported in Tables 4 and 5 live here:

* ``cluster_count`` -- number of cluster-heads ("# clusters");
* ``head_eccentricity`` -- ``e(H(u)/C) = max_{v in C} d(H(u), v)`` in hops,
  measured inside the cluster-induced subgraph (clusters are connected by
  construction since every parent is a neighbor);
* ``tree_length`` -- the height of a cluster's joining tree, i.e. the
  maximum number of parent links from a member to its head, which bounds
  the number of steps head identities need to propagate (Section 5).

Both metric families ride the CSR traversal kernel
(:mod:`repro.graph.traversal`): *all* head eccentricities come from one
batched label-constrained BFS sweep over the whole graph (no induced
subgraphs), and *all* joining-tree depths from one pointer-doubling
resolve of the parent forest (no per-node link-chasing).  Distances and
depths are tie-break-free, so every reported number is identical to the
per-node link chasing and induced-subgraph BFS that the test suite keeps
as oracles (``tests/oracles/metrics.py``).
"""

import numpy as np

from repro.clustering.density import ExactDensities
from repro.graph.traversal import csr_multi_source_distances, resolve_forest
from repro.util.errors import TopologyError


class Clustering:
    """An immutable snapshot of a cluster assignment over a graph."""

    def __init__(self, graph, parents, densities=None, dag_ids=None,
                 order_name=None, fusion=False):
        self.graph = graph
        self.parents = dict(parents)
        # Array-backed exact densities are immutable: kept as-is.  Any
        # other map is copied, since its owner may keep mutating it.
        if densities is not None and not isinstance(densities, ExactDensities):
            densities = dict(densities)
        self.densities = densities
        self.dag_ids = dict(dag_ids) if dag_ids is not None else None
        self.order_name = order_name
        self.fusion = fusion
        self._validate_parents()
        self.head_of = self._resolve_heads()
        self.heads = frozenset(node for node, parent in self.parents.items()
                               if parent == node)
        self.clusters = self._group_clusters()
        self._forest_cache = None
        self._height_cache = None
        self._sweep_cache = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    def _validate_parents(self):
        """Every parent is the node itself or one of its neighbors.

        All links are checked at once on the CSR snapshot, whose directed
        edge keys ``row * n + col`` ascend, so one ``searchsorted`` finds
        them; the first offender in ``parents`` order is named.
        """
        csr = self.graph.to_csr()
        index_of = csr.index_of
        parents = self.parents
        n = len(index_of)
        if len(parents) != n or not all(node in index_of for node in parents):
            raise TopologyError("parents must cover exactly the graph's nodes")
        rows = np.fromiter(map(index_of.__getitem__, parents), np.int64, n)
        cols = np.fromiter((index_of.get(parent, -1)
                            for parent in parents.values()), np.int64, n)
        # A trailing key above every probe keeps each search in range.
        keys = np.append(np.repeat(np.arange(n, dtype=np.int64),
                                   csr.degrees()) * n + csr.indices, n * n)
        probe = rows * n + cols
        linked = keys[np.searchsorted(keys, probe)] == probe
        bad = np.flatnonzero((rows != cols) & ((cols < 0) | ~linked))
        if bad.size:
            node = list(parents)[int(bad[0])]
            raise TopologyError(
                f"parent of {node!r} is {parents[node]!r}, which is not a "
                "neighbor")

    def _resolve_heads(self):
        """Follow parent links to the root of each tree, detecting cycles."""
        head_of = {}
        for start in self.parents:
            if start in head_of:
                continue
            path = []
            node = start
            while node not in head_of:
                if node in path:
                    cycle = path[path.index(node):]
                    raise TopologyError(f"parent links form a cycle: {cycle!r}")
                path.append(node)
                parent = self.parents[node]
                if parent == node:
                    head_of[node] = node
                    break
                node = parent
            root = head_of[node] if node in head_of else node
            for visited in path:
                head_of[visited] = root
        return head_of

    def _group_clusters(self):
        clusters = {}
        for node, head in self.head_of.items():
            clusters.setdefault(head, set()).add(node)
        return {head: frozenset(members) for head, members in clusters.items()}

    # ------------------------------------------------------------------
    # traversal-kernel caches
    # ------------------------------------------------------------------

    def __getstate__(self):
        # The caches hold frozen CSR snapshots and arrays; they are cheap
        # to rebuild and would bloat (or break) pickled payloads shipped
        # to experiment worker processes.
        state = self.__dict__.copy()
        state["_forest_cache"] = None
        state["_height_cache"] = None
        state["_sweep_cache"] = None
        return state

    def _forest(self):
        """``(index, depths)``: per-node joining-forest depths.

        One pointer-doubling resolve over the whole forest (O(n log h)
        numpy ops), computed lazily and cached -- the parent map is
        immutable.  Cycles were already ruled out by
        :meth:`_resolve_heads`.
        """
        if self._forest_cache is None:
            nodes = list(self.parents)
            index = {node: i for i, node in enumerate(nodes)}
            rows = np.fromiter((index[self.parents[node]] for node in nodes),
                               dtype=np.int64, count=len(nodes))
            _roots, depths = resolve_forest(rows)
            self._forest_cache = (index, depths)
        return self._forest_cache

    def _tree_heights(self):
        """Per-head joining-tree heights, one ``maximum.at`` scatter."""
        if self._height_cache is None:
            index, depths = self._forest()
            heights = np.zeros(len(index), dtype=np.int64)
            if index:
                head_rows = np.fromiter(
                    (index[self.head_of[node]] for node in self.parents),
                    dtype=np.int64, count=len(index))
                np.maximum.at(heights, head_rows, depths)
            self._height_cache = heights
        return self._height_cache

    def _cluster_sweep(self):
        """``(csr, labels, ecc, reach)`` from one batched head sweep.

        Every head seeds a BFS wave that expands only along edges whose
        endpoints share the head's label, so the sweep computes every
        cluster's internal distances simultaneously -- no induced
        subgraphs.  ``ecc[r]`` / ``reach[r]`` are the eccentricity and
        reached-member count of the head at row ``r``.  Cached against
        the CSR snapshot identity, so any graph mutation (which
        invalidates the snapshot) forces a re-sweep.
        """
        csr = self.graph.to_csr()
        cached = self._sweep_cache
        if cached is not None and cached[0] is csr:
            return cached
        n = len(csr)
        index_of = csr.index_of
        labels = np.full(n, -1, dtype=np.int64)
        for node, head in self.head_of.items():
            row = index_of.get(node)
            head_row = index_of.get(head)
            if row is not None and head_row is not None:
                labels[row] = head_row
        sources = np.fromiter(
            (index_of[head] for head in self.heads if head in index_of),
            dtype=np.int64)
        dist = csr_multi_source_distances(csr, sources, labels=labels)
        ecc = np.zeros(n, dtype=np.int64)
        reach = np.zeros(n, dtype=np.int64)
        reached = dist >= 0
        if bool(reached.any()):
            lab = labels[reached]
            np.maximum.at(ecc, lab, dist[reached])
            reach += np.bincount(lab, minlength=n)
        self._sweep_cache = (csr, labels, ecc, reach)
        return self._sweep_cache

    def cluster_rows(self):
        """``(csr, labels)``: the graph snapshot plus per-row cluster labels.

        ``labels[r]`` is the row index of row ``r``'s head (``-1`` for
        rows outside the clustering).  Shared with hierarchical routing,
        whose intra-cluster legs are label-constrained path searches over
        the same arrays.
        """
        csr, labels, _ecc, _reach = self._cluster_sweep()
        return csr, labels

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def cluster_count(self):
        """Number of clusters (= number of cluster-heads)."""
        return len(self.heads)

    def head(self, node):
        """``H(node)``: the cluster-head of ``node``."""
        return self.head_of[node]

    def parent(self, node):
        """``F(node)``: the parent of ``node`` in the joining forest."""
        return self.parents[node]

    def members(self, head):
        """All nodes in the cluster of ``head`` (including the head)."""
        if head not in self.clusters:
            raise TopologyError(f"{head!r} is not a cluster-head")
        return self.clusters[head]

    def is_head(self, node):
        """True iff ``node`` elected itself (``H(node) = node``)."""
        return self.head_of[node] == node

    def depth(self, node):
        """Number of parent links from ``node`` to its head."""
        index, depths = self._forest()
        return int(depths[index[node]])

    # ------------------------------------------------------------------
    # Table 4 / Table 5 metrics
    # ------------------------------------------------------------------

    def tree_length(self, head):
        """Height of the joining tree rooted at ``head`` (0 for singletons)."""
        self.members(head)  # validates that ``head`` is a cluster-head
        index, _depths = self._forest()
        return int(self._tree_heights()[index[head]])

    def average_tree_length(self):
        """Mean joining-tree height over clusters ("average tree length")."""
        if not self.heads:
            return 0.0
        return sum(self.tree_length(head) for head in self.heads) / len(self.heads)

    def head_eccentricity(self, head):
        """``e(H(u)/C)``: max hop distance from the head to any member,
        measured inside the cluster-induced subgraph.

        Served from the cached batched sweep: label-constrained expansion
        yields exactly the induced-subgraph distances, because every
        traversed edge has both endpoints inside the cluster.
        """
        members = self.members(head)
        csr, _labels, ecc, reach = self._cluster_sweep()
        row = csr.index_of.get(head)
        if row is None or int(reach[row]) != len(members):
            # The sweep reached fewer rows than the cluster has members:
            # some member left the graph, or lost its path to the head.
            missing = [node for node in members if node not in csr.index_of]
            if missing:
                raise TopologyError(
                    f"nodes not in graph: {sorted(missing, key=repr)}")
            raise TopologyError(
                f"cluster of {head!r} is not connected; joining forest invalid")
        return int(ecc[row])

    def average_head_eccentricity(self):
        """Mean head eccentricity over clusters."""
        if not self.heads:
            return 0.0
        return sum(self.head_eccentricity(h) for h in self.heads) / len(self.heads)

    # ------------------------------------------------------------------
    # invariants (used by tests and the stabilization monitor)
    # ------------------------------------------------------------------

    def check_invariants(self, heads_non_adjacent=True):
        """Verify the structural guarantees the paper relies on.

        Raises :class:`TopologyError` on violation.  Cluster connectivity
        is checked in a single pass against the batched sweep's reach
        counts (one BFS over the graph, not one per head).
        ``heads_non_adjacent`` asserts that no two cluster-heads are
        neighbors (guaranteed by the basic rule); when :attr:`fusion` is
        set, heads must additionally be at least 3 hops apart, which
        :meth:`check_fusion_separation` covers.
        """
        for head in self.heads:
            # Served from one shared batched sweep, so the whole loop costs
            # one BFS over the graph plus O(heads) cache reads.
            self.head_eccentricity(head)  # raises if a cluster is disconnected
        if heads_non_adjacent:
            for head in self.heads:
                adjacent_heads = self.graph.neighbors(head) & self.heads
                if adjacent_heads:
                    raise TopologyError(
                        f"cluster-heads {head!r} and {adjacent_heads!r} are "
                        "adjacent")
        if self.fusion:
            self.check_fusion_separation()

    def check_fusion_separation(self):
        """With the fusion rule, two heads are at least 3 hops apart."""
        for head in self.heads:
            two_hop = self.graph.k_neighborhood(head, 2)
            conflicting = two_hop & self.heads
            if conflicting:
                raise TopologyError(
                    f"fusion violated: heads {conflicting!r} within 2 hops "
                    f"of head {head!r}")

    def __repr__(self):
        return (f"Clustering(clusters={self.cluster_count}, "
                f"order={self.order_name!r}, fusion={self.fusion})")
