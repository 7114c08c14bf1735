"""Frozen compressed-sparse-row adjacency snapshots.

The mutable :class:`~repro.graph.graph.Graph` keeps a
``dict[node, set[node]]`` adjacency for the incremental edge churn of the
protocol simulations -- the wrong shape for the bulk analytics the
evaluation workloads run (Definition-1 densities over every node, degree
vectors, whole-edge sweeps).  :class:`CSRAdjacency` is the read-only
array view used by those paths:

* ``indptr`` / ``indices`` are the standard CSR arrays (``int32``), with
  each row's neighbor indices **sorted ascending** -- the invariant the
  vectorized ``searchsorted`` intersections rely on;
* ``ids`` maps row index -> node identifier (graph insertion order) and
  ``index_of`` is the inverse, so callers can move between the array
  world and the identifier world without per-edge Python loops;
* the snapshot is frozen: the arrays are marked non-writeable and derived
  quantities (triangle counts) are memoized on it, so repeated analytics
  over an unchanged graph cost O(1) after the first call.

Snapshots are built either from the dict backend
(:meth:`CSRAdjacency.from_dict`, used by ``Graph.to_csr``) or directly
from a canonical undirected pair array (:meth:`CSRAdjacency.from_pairs`,
used by the bulk builders ``Graph.from_pair_array`` and
``Graph.from_pair_chunks``, whose graphs carry only the snapshot until a
caller needs the dict).
"""

import numpy as np

from repro.util.errors import TopologyError

# Expanded-candidate budget for the chunked triangle intersection.  It
# bounds the per-chunk scratch at a few MB regardless of graph size, and
# keeps each chunk's probes and searched key slice cache-resident.
_TRIANGLE_CHUNK = 65_536


class CSRAdjacency:
    """An immutable CSR view of an undirected graph.

    Rows are node indices ``0..n-1`` in ``ids`` order; ``indices[indptr[i]:
    indptr[i+1]]`` are the neighbors of row ``i``, sorted ascending.
    """

    __slots__ = ("indptr", "indices", "ids", "_index_of", "_triangles")

    def __init__(self, indptr, indices, ids):
        indptr = np.ascontiguousarray(indptr, dtype=np.int32)
        indices = np.ascontiguousarray(indices, dtype=np.int32)
        ids = tuple(ids)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise TopologyError("indptr and indices must be 1-d arrays")
        if len(indptr) != len(ids) + 1:
            raise TopologyError("indptr must have one entry per node plus one")
        indptr.flags.writeable = False
        indices.flags.writeable = False
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "_index_of", None)
        object.__setattr__(self, "_triangles", None)

    def __setattr__(self, name, value):
        raise AttributeError("CSRAdjacency is frozen")

    @property
    def index_of(self):
        """Node identifier -> row index, built lazily.

        Million-node snapshots that only ever serve array analytics (or
        are attached zero-copy from shared memory) never pay for the
        Python dict; identifier-world callers build it on first use.
        """
        if self._index_of is None:
            object.__setattr__(
                self, "_index_of", {node: i for i, node in enumerate(self.ids)}
            )
        return self._index_of

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_dict(cls, adj):
        """Snapshot a ``dict[node, set[node]]`` adjacency.

        One generator pass translates identifiers to indices; the per-row
        ascending sort is a single vectorized ``lexsort``.
        """
        ids = list(adj)
        index_of = {node: i for i, node in enumerate(ids)}
        n = len(ids)
        degrees = np.fromiter((len(adj[u]) for u in ids),
                              dtype=np.int64, count=n)
        total = int(degrees.sum())
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        flat = np.fromiter((index_of[v] for u in ids for v in adj[u]),
                           dtype=np.int32, count=total)
        if total:
            rows = np.repeat(np.arange(n, dtype=np.int64), degrees)
            flat = flat[np.lexsort((flat, rows))]
        return cls(indptr, flat, ids)

    @classmethod
    def from_pairs(cls, lo, hi, ids):
        """Snapshot from canonical undirected index pairs.

        ``lo`` / ``hi`` are equal-length integer arrays with ``lo < hi``
        per entry and no duplicate pairs; ``ids`` maps index -> node
        identifier and fixes ``n`` (isolated nodes are rows with empty
        neighbor lists).
        """
        ids = list(ids)
        n = len(ids)
        src = np.concatenate((lo, hi)).astype(np.int64)
        dst = np.concatenate((hi, lo)).astype(np.int64)
        # One scalar-key argsort orders rows and, within each row, the
        # neighbor indices ascending -- cheaper than a two-key lexsort.
        order = np.argsort(src * n + dst)
        indices = dst[order].astype(np.int32)
        degrees = np.bincount(src, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        return cls(indptr, indices, ids)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def __len__(self):
        return len(self.ids)

    def edge_count(self):
        """Number of undirected edges."""
        return int(self.indptr[-1]) // 2

    def degrees(self):
        """Degree of every row, as an ``int64`` array."""
        return np.diff(self.indptr.astype(np.int64))

    def neighbors_of(self, index):
        """Read-only array of row ``index``'s neighbor indices (ascending)."""
        return self.indices[self.indptr[index]:self.indptr[index + 1]]

    def has_edge(self, i, j):
        """True iff rows ``i`` and ``j`` are adjacent (binary search)."""
        row = self.neighbors_of(i)
        pos = int(np.searchsorted(row, j))
        return pos < len(row) and int(row[pos]) == j

    def edge_arrays(self):
        """Undirected edges as index arrays ``(u, v)`` with ``u < v``.

        Rows come out in CSR order (by ``u``, then ascending ``v``), which
        is generally *not* the insertion order of ``Graph.edges``.
        """
        n = len(self.ids)
        degrees = self.degrees()
        row = np.repeat(np.arange(n, dtype=np.int64), degrees)
        col = self.indices.astype(np.int64)
        mask = row < col
        return row[mask], col[mask]

    # ------------------------------------------------------------------
    # triangle counting (Definition 1's numerator)
    # ------------------------------------------------------------------

    def triangle_counts(self):
        """Per-node triangle counts, memoized.

        A node's triangle count is the number of edges among its
        neighbors -- exactly the extra links of Definition 1.  Nodes are
        ranked by degree (ties by index) and each edge is oriented from
        its lower-ranked endpoint ``a`` to its higher-ranked endpoint
        ``b``; the forward rows list their neighbors in ascending rank.
        A triangle ``a < b < c`` is then found exactly once, at edge
        ``(a, b)``: ``c`` lies both in row ``a`` after ``b`` and in row
        ``b``.  Each edge expands the smaller of those two candidate
        lists with one ``repeat`` and probes the other row: membership
        is one ``searchsorted`` per chunk of the keys ``row * n +
        candidate`` against the forward edges' keys, which ascend.
        Edges are grouped by probed row, so a chunk searches only its
        probed rows' slice of the keys.  The expansion is chunked to a
        fixed candidate budget; rows and columns stay ``int32``, so only
        the keys are ``int64``.
        """
        if self._triangles is not None:
            return self._triangles
        n = len(self.ids)
        degrees = self.degrees()
        rank_of = np.empty(n, dtype=np.int32)
        rank_of[np.lexsort((np.arange(n), degrees))] = np.arange(
            n, dtype=np.int32)
        ru = np.repeat(rank_of, degrees)
        rv = rank_of[self.indices]
        forward = ru < rv
        # Forward keys in rank space, sorted: rows ascend, and so do the
        # columns within a row.
        fkeys = np.sort(ru[forward].astype(np.int64) * n + rv[forward])
        del ru, rv, forward
        tri = np.zeros(n, dtype=np.int64)
        if fkeys.size:
            eu = (fkeys // n).astype(np.int32)
            ev = (fkeys % n).astype(np.int32)
            # One key above every probe, so that a search past a chunk's
            # last probed row still lands on a key.
            fkeys = np.append(fkeys, n * n)
            fdeg = np.bincount(eu, minlength=n).astype(np.int32)
            findptr = np.zeros(n + 1, dtype=np.int32)
            np.cumsum(fdeg, out=findptr[1:])
            # Edge (a, b) at forward position p: row a after b spans
            # p + 1 .. findptr[a + 1]; row b spans findptr[b] onward.
            pos = np.arange(eu.size, dtype=np.int32)
            tail = findptr[eu + 1] - pos - 1
            take_tail = tail <= fdeg[ev]
            first = np.where(take_tail, pos + 1, findptr[ev])
            counts = np.where(take_tail, tail, fdeg[ev])
            probed = np.where(take_tail, ev, eu)
            del pos, tail, take_tail
            # Group edges by probed row: a chunk then probes a contiguous
            # run of forward rows.
            order = np.argsort(probed, kind="stable")
            first = first[order]
            counts = counts[order]
            probed = probed[order]
            ends = (eu[order], ev[order])
            del order, eu
            cum = np.zeros(counts.size + 1, dtype=np.int64)
            np.cumsum(counts, out=cum[1:])
            corner_hits = []
            edge_hits = np.zeros(counts.size, dtype=np.int64)
            start = 0
            while start < counts.size:
                end = int(np.searchsorted(cum, cum[start] + _TRIANGLE_CHUNK,
                                          side="right")) - 1
                end = min(max(end, start + 1), counts.size)
                chunk_counts = counts[start:end]
                total = int(cum[end] - cum[start])
                if total:
                    local = cum[start:end] - cum[start]
                    # Candidate k of edge e sits at forward position
                    # first[e] + k - local[e].
                    at = np.repeat(first[start:end] - local, chunk_counts)
                    at += np.arange(total, dtype=np.int64)
                    w = ev[at]
                    probe = np.repeat(probed[start:end].astype(np.int64) * n,
                                      chunk_counts)
                    probe += w
                    # Only the probed rows' keys can match.
                    keys = fkeys[findptr[probed[start]]:
                                 findptr[probed[end - 1] + 1] + 1]
                    hit_at = np.flatnonzero(
                        keys[np.searchsorted(keys, probe)] == probe)
                    corner_hits.append(w[hit_at])
                    # Per-edge triangle tallies credit the two edge endpoints.
                    edge_hits[start:end] = np.diff(
                        np.searchsorted(hit_at, np.append(local, total)))
                start = end
            if corner_hits:
                tri += np.bincount(np.concatenate(corner_hits), minlength=n)
            closed = np.flatnonzero(edge_hits)
            if closed.size:
                for end_rows in ends:
                    tri += np.bincount(end_rows[closed],
                                       weights=edge_hits[closed],
                                       minlength=n).astype(np.int64)
            tri = tri[rank_of]
        tri.flags.writeable = False
        object.__setattr__(self, "_triangles", tri)
        return tri

    def __repr__(self):
        return f"CSRAdjacency(n={len(self.ids)}, m={self.edge_count()})"
