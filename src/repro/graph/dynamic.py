"""Delta-based maintenance of unit-disk topologies across mobility windows.

The Section 5 experiments are *dynamic*: nodes move every 2-second window
(or appear/disappear between churn epochs) and the clustering is
re-evaluated each time.  Rebuilding everything from scratch per window --
the full cell-grid pair join, a fresh ``Graph``, a global triangle recount
-- costs O(n + m) regardless of how little actually changed.  This module
keeps the per-window cost proportional to the *delta*:

* :class:`DynamicUnitDisk` keeps the geometry cell grid alive across
  windows as a skin-padded **candidate list** (the Verlet-list idea from
  molecular dynamics): one join at ``radius + skin`` yields every pair
  that could possibly become an edge while no node has drifted more than
  ``skin / 2`` from its join-time anchor position.  A position update then
  re-evaluates only the candidate pairs incident to nodes that actually
  moved -- one vectorized distance pass -- and emits the **exact** edge
  delta.  When the drift bound trips, or nodes join/depart, the grid is
  re-joined from the live positions and the delta falls out of a sorted
  key set-difference instead.  Either way the resulting edge set is
  bit-identical to a scratch ``pairs_within_range(positions, radius)``
  (both classify with the same ``dx*dx + dy*dy <= radius*radius``
  arithmetic; the candidate list is a superset by the triangle
  inequality, enforced with a small safety margin on the drift bound).

* :class:`TriangleCounter` maintains the per-node integer triangle counts
  under edge insertions/removals (one ``common_neighbors`` intersection
  per changed edge, riding the observer hooks of
  :meth:`~repro.graph.graph.Graph.apply_edge_delta`), so Definition-1
  densities can be refreshed for exactly the nodes whose neighborhood
  changed -- the Fractions are built from the same machine integers as
  :func:`~repro.clustering.density.all_densities`, hence bit-identical,
  without a global recount.  For bulk deltas where per-edge Python
  updates would cost more than the vectorized kernel, it falls back to a
  CSR recount and reports the changed nodes by array comparison.

* :class:`DynamicTopology` ties the two to a live
  :class:`~repro.graph.graph.Graph`: it applies each delta in bulk,
  installs a cheap CSR snapshot rebuilt from the maintained edge arrays
  (an O(m) argsort instead of the O(m) Python dict translation), keeps
  the exact density map current, and wraps everything in a fresh
  :class:`~repro.graph.generators.Topology` per window.

The scratch pipeline (``topology_at`` -> ``all_densities``) survives
untouched as the reference oracle; the property suite drives randomized
move/join/leave sequences through both and asserts equality.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from repro.graph.csr import CSRAdjacency
from repro.graph.generators import Topology
from repro.graph.geometry import pairs_within_range
from repro.graph.graph import Graph
from repro.util.errors import ConfigurationError, TopologyError

# Identifiers are packed two-per-int64 key for the set-difference delta
# path, so they must fit in 31 bits.
_MAX_ID = 2 ** 31

# Safety margin on the Verlet drift bound: the triangle-inequality
# argument is exact in real arithmetic; this absorbs the ~1 ulp float
# noise of the squared-distance evaluations.
_DRIFT_GUARD = 1e-12

# Per-edge Python triangle updates beat the vectorized CSR recount only
# while the delta is a small fraction of the edge set; past this ratio
# the counter recounts instead (same integers either way).
_RECOUNT_FRACTION = 8

# Re-anchoring drifted nodes cell-by-cell beats a full grid re-join only
# while few nodes drifted; past this fraction of the population the whole
# grid is re-joined instead.
_REANCHOR_FRACTION = 8

_EMPTY_PAIRS = np.empty((0, 2), dtype=np.int64)
_EMPTY_PAIRS.flags.writeable = False


@dataclass(frozen=True)
class EdgeDelta:
    """Exact edge difference between two topology snapshots.

    ``added`` / ``removed`` are ``(k, 2)`` int64 arrays of node
    *identifiers* with each row canonical (``lo < hi``) and rows in
    lexicographic order, so a delta is a deterministic function of the
    two snapshots alone.
    """

    added: np.ndarray
    removed: np.ndarray

    def __bool__(self):
        return bool(len(self.added) or len(self.removed))

    @property
    def size(self):
        """Total number of changed edges."""
        return len(self.added) + len(self.removed)

    @classmethod
    def empty(cls):
        return cls(added=_EMPTY_PAIRS, removed=_EMPTY_PAIRS)


def _canonical_id_pairs(ids, index_pairs):
    """Index pairs -> canonical, lexicographically sorted identifier pairs."""
    if not len(index_pairs):
        return _EMPTY_PAIRS
    a = ids[index_pairs[:, 0]]
    b = ids[index_pairs[:, 1]]
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    order = np.lexsort((hi, lo))
    return np.column_stack((lo[order], hi[order]))


class DynamicUnitDisk:
    """Unit-disk edge maintenance over moving points with exact deltas.

    ``positions`` is the ``(n, 2)`` float array of the initial deployment;
    ``ids`` maps point index -> integer node identifier (default: the
    index itself).  ``skin`` is the candidate-list padding in distance
    units (default ``radius / 2``): larger skins survive more windows
    between grid re-joins but evaluate more candidate pairs per window.
    """

    def __init__(self, positions, radius, ids=None, skin=None):
        positions = np.array(positions, dtype=float).reshape(-1, 2)
        if radius is None:
            raise ConfigurationError(
                "dynamic unit-disk maintenance needs a transmission radius; "
                "this topology has radius=None (a combinatorial generator "
                "or a file without one) -- mobility and dynamics only apply "
                "to geometric topologies"
            )
        if radius <= 0:
            raise ConfigurationError(f"radius must be positive, got {radius}")
        if skin is None:
            skin = 0.5 * radius
        if skin < 0:
            raise ConfigurationError(f"skin must be non-negative, got {skin}")
        n = len(positions)
        if ids is None:
            ids_list = list(range(n))
        else:
            ids_list = [int(x) for x in ids]
            if len(ids_list) != n:
                raise ConfigurationError(
                    f"ids has {len(ids_list)} entries for {n} positions")
        self._check_ids(ids_list)
        self.radius = float(radius)
        self.skin = float(skin)
        self._r2 = self.radius * self.radius
        self._drift2 = max(0.5 * self.skin - _DRIFT_GUARD, 0.0) ** 2
        self._ids_list = ids_list
        self._ids = np.array(ids_list, dtype=np.int64)
        self._pos = positions
        self._pos_dict = None
        self._rejoin()

    @staticmethod
    def _check_ids(ids_list):
        if len(set(ids_list)) != len(ids_list):
            raise ConfigurationError("node identifiers must be unique")
        for x in ids_list:
            if not 0 <= x < _MAX_ID:
                raise ConfigurationError(
                    f"identifiers must lie in [0, 2**31), got {x}")

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------

    def __len__(self):
        return len(self._ids_list)

    @property
    def ids(self):
        """Node identifiers in index order (the graph's insertion order)."""
        return list(self._ids_list)

    def edge_count(self):
        """Number of current unit-disk edges."""
        return int(self._mask.sum())

    def edge_index_pairs(self):
        """Current edges as ``(m, 2)`` index pairs with ``i < j``."""
        return self._cand[self._mask]

    def snapshot(self):
        """A fresh CSR snapshot of the current edge set.

        Built straight from the maintained candidate arrays with
        :meth:`CSRAdjacency.from_pairs` -- one argsort, no per-edge
        Python -- and identical to ``Graph.to_csr()`` over the same
        adjacency (same ids order, rows sorted ascending).
        """
        pairs = self.edge_index_pairs()
        return CSRAdjacency.from_pairs(pairs[:, 0], pairs[:, 1],
                                       self._ids_list)

    def positions_by_id(self):
        """``dict[id, (x, y)]`` of the current positions.

        The dict is maintained incrementally across :meth:`move` calls
        (only movers' entries are rewritten), so per-window cost tracks
        the number of movers, not the population.  Callers must treat
        the returned dict as read-only; ``Topology`` copies it.
        """
        if self._pos_dict is None:
            self._pos_dict = {node: (float(x), float(y))
                              for node, (x, y) in zip(self._ids_list,
                                                      self._pos)}
        return self._pos_dict

    # ------------------------------------------------------------------
    # candidate list
    # ------------------------------------------------------------------

    def _rejoin(self):
        """Re-join the cell grid at ``radius + skin`` from live positions."""
        self._anchor = self._pos.copy()
        self._grid = None
        if len(self._pos) >= 2:
            self._cand = pairs_within_range(self._pos,
                                            self.radius + self.skin)
        else:
            self._cand = _EMPTY_PAIRS
        if len(self._cand):
            diff = self._pos[self._cand[:, 0]] - self._pos[self._cand[:, 1]]
            self._mask = np.einsum("ij,ij->i", diff, diff) <= self._r2
        else:
            self._mask = np.zeros(0, dtype=bool)

    def _ensure_grid(self):
        """Cell buckets over the *anchor* positions, built on first use.

        The candidate invariant lives in anchor space: a non-candidate
        pair has anchor distance > ``radius + skin``, so while every node
        sits within ``skin/2`` of its own anchor no non-candidate pair
        can come within ``radius``.  Re-anchoring a node therefore means
        re-joining it against the other nodes' *anchors* -- the 9 cells
        around its new anchor cell -- not their live positions.
        """
        if self._grid is None:
            cell_size = self.radius + self.skin
            cells = np.floor(self._anchor / cell_size).astype(np.int64)
            grid = {}
            for index, (cx, cy) in enumerate(cells.tolist()):
                grid.setdefault((cx, cy), []).append(index)
            self._grid = grid
        return self._grid

    def _reanchor(self, drifted):
        """Re-anchor ``drifted`` rows against the live grid, in place.

        Drops every candidate pair incident to a drifted node, moves the
        nodes to their new anchor cells, and re-joins each against the 9
        surrounding cells.  Returns ``(kept, old_pairs, new_pairs,
        new_mask)``: the keep-mask over the previous candidate rows plus
        the dropped/re-discovered D-incident pairs with the fresh edge
        classification of the latter.
        """
        grid = self._ensure_grid()
        cell_size = self.radius + self.skin
        old_cells = np.floor(self._anchor[drifted] / cell_size).astype(
            np.int64)
        self._anchor[drifted] = self._pos[drifted]
        new_cells = np.floor(self._anchor[drifted] / cell_size).astype(
            np.int64)
        for index, old, new in zip(drifted.tolist(), old_cells.tolist(),
                                   new_cells.tolist()):
            old = tuple(old)
            new = tuple(new)
            if old != new:
                grid[old].remove(index)
                if not grid[old]:
                    del grid[old]
                grid.setdefault(new, []).append(index)
        in_drifted = np.zeros(len(self._pos), dtype=bool)
        in_drifted[drifted] = True
        kept = ~(in_drifted[self._cand[:, 0]] | in_drifted[self._cand[:, 1]]) \
            if len(self._cand) else np.zeros(0, dtype=bool)
        old_pairs = self._cand[~kept] if len(self._cand) else _EMPTY_PAIRS
        rc2 = cell_size * cell_size
        anchor = self._anchor
        chunks = []
        for index, (cx, cy) in zip(drifted.tolist(), new_cells.tolist()):
            partners = []
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    partners.extend(grid.get((cx + dx, cy + dy), ()))
            partners = np.array(partners, dtype=np.int64)
            partners = partners[partners != index]
            if not partners.size:
                continue
            diff = anchor[partners] - anchor[index]
            close = np.einsum("ij,ij->i", diff, diff) <= rc2
            partners = partners[close]
            if partners.size:
                chunks.append(np.column_stack(
                    (np.minimum(partners, index),
                     np.maximum(partners, index))))
        if chunks:
            pairs = np.concatenate(chunks)
            # Two re-anchored endpoints discover their pair twice.
            n = len(self._pos)
            keys = np.unique(pairs[:, 0] * n + pairs[:, 1])
            new_pairs = np.column_stack((keys // n, keys % n))
            diff = self._pos[new_pairs[:, 0]] - self._pos[new_pairs[:, 1]]
            new_mask = np.einsum("ij,ij->i", diff, diff) <= self._r2
        else:
            new_pairs = _EMPTY_PAIRS
            new_mask = np.zeros(0, dtype=bool)
        return kept, old_pairs, new_pairs, new_mask

    def _edge_keys(self):
        """Sorted int64 keys of the current edges, in identifier space."""
        pairs = self.edge_index_pairs()
        if not len(pairs):
            return np.empty(0, dtype=np.int64)
        a = self._ids[pairs[:, 0]]
        b = self._ids[pairs[:, 1]]
        keys = (np.minimum(a, b) << 32) | np.maximum(a, b)
        keys.sort()
        return keys

    @staticmethod
    def _diff_keys(old_keys, new_keys):
        """Delta between two sorted key sets, decoded to identifier pairs."""
        def decode(keys):
            if not len(keys):
                return _EMPTY_PAIRS
            return np.column_stack((keys >> 32, keys & 0xFFFFFFFF))
        return EdgeDelta(added=decode(np.setdiff1d(new_keys, old_keys,
                                                   assume_unique=True)),
                         removed=decode(np.setdiff1d(old_keys, new_keys,
                                                     assume_unique=True)))

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def move(self, positions):
        """Adopt new positions for the *same* node set; return the delta.

        ``positions`` is the full ``(n, 2)`` array aligned with
        :attr:`ids` (the shape every mobility model maintains).  Three
        regimes, cheapest first: while every node sits within ``skin/2``
        of its anchor, only candidate pairs incident to actual movers are
        re-evaluated; when a few nodes drifted past the bound they are
        re-anchored cell-by-cell against the live grid; when most of the
        population drifted, the whole grid is re-joined.
        """
        positions = np.asarray(positions, dtype=float)
        if positions.shape != self._pos.shape:
            raise ConfigurationError(
                "move requires positions for the unchanged node set "
                f"(expected shape {self._pos.shape}, got {positions.shape}); "
                "use apply_churn for arrivals/departures")
        moved = np.flatnonzero((positions != self._pos).any(axis=1))
        if not moved.size:
            return EdgeDelta.empty()
        self._pos = positions.copy()
        if self._pos_dict is not None:
            for i in moved:
                self._pos_dict[self._ids_list[i]] = (float(positions[i, 0]),
                                                     float(positions[i, 1]))
        disp2 = ((self._pos - self._anchor) ** 2).sum(axis=1)
        drifted = np.flatnonzero(disp2 >= self._drift2)
        if not drifted.size:
            added, removed = self._update_mask(self._cand, self._mask, moved)
            return EdgeDelta(added=_canonical_id_pairs(self._ids, added),
                             removed=_canonical_id_pairs(self._ids, removed))
        n = len(self._pos)
        if drifted.size * _REANCHOR_FRACTION > n or n < 2:
            old_keys = self._edge_keys()
            self._rejoin()
            return self._diff_keys(old_keys, self._edge_keys())
        kept, old_pairs, new_pairs, new_mask = self._reanchor(drifted)
        old_edges = old_pairs[self._mask[~kept]] if len(self._mask) \
            else _EMPTY_PAIRS
        cand = self._cand[kept]
        mask = self._mask[kept]
        added_kept, removed_kept = self._update_mask(cand, mask, moved)
        self._cand = np.concatenate((cand, new_pairs))
        self._mask = np.concatenate((mask, new_mask))
        # Delta among the re-anchored pairs: old vs new edge key sets.
        old_keys = self._index_keys(old_edges)
        new_keys = self._index_keys(new_pairs[new_mask])
        added_re = self._decode_index_keys(
            np.setdiff1d(new_keys, old_keys, assume_unique=True))
        removed_re = self._decode_index_keys(
            np.setdiff1d(old_keys, new_keys, assume_unique=True))
        return EdgeDelta(
            added=_canonical_id_pairs(
                self._ids, np.concatenate((added_kept, added_re))),
            removed=_canonical_id_pairs(
                self._ids, np.concatenate((removed_kept, removed_re))))

    def _update_mask(self, cand, mask, moved):
        """Re-evaluate ``cand`` rows incident to ``moved`` in place.

        Returns ``(added, removed)`` index-pair arrays of rows whose edge
        classification flipped; ``mask`` is updated in place.
        """
        if not len(cand):
            return _EMPTY_PAIRS, _EMPTY_PAIRS
        moved_mask = np.zeros(len(self._pos), dtype=bool)
        moved_mask[moved] = True
        touched = np.flatnonzero(moved_mask[cand[:, 0]]
                                 | moved_mask[cand[:, 1]])
        if not touched.size:
            return _EMPTY_PAIRS, _EMPTY_PAIRS
        diff = self._pos[cand[touched, 0]] - self._pos[cand[touched, 1]]
        inside = np.einsum("ij,ij->i", diff, diff) <= self._r2
        before = mask[touched]
        mask[touched] = inside
        return (cand[touched[inside & ~before]],
                cand[touched[before & ~inside]])

    def _index_keys(self, index_pairs):
        """Sorted scalar keys of canonical (``i < j``) index pairs."""
        if not len(index_pairs):
            return np.empty(0, dtype=np.int64)
        n = len(self._pos)
        keys = index_pairs[:, 0] * n + index_pairs[:, 1]
        keys.sort()
        return keys

    def _decode_index_keys(self, keys):
        if not len(keys):
            return _EMPTY_PAIRS
        n = len(self._pos)
        return np.column_stack((keys // n, keys % n))

    def apply_churn(self, departed=(), arrivals=()):
        """Remove ``departed`` identifiers, add ``arrivals``; return the delta.

        ``arrivals`` is a sequence of ``(id, (x, y))`` pairs.  Surviving
        nodes keep their index order and arrivals append after them, which
        is exactly the insertion order a maintained :class:`Graph`
        produces -- and, for monotonically increasing identifiers (the
        :class:`~repro.mobility.churn.ChurnProcess` discipline), also the
        sorted order the scratch path uses.  Churn re-joins the grid, so
        the delta covers every edge incident to a departure or arrival.
        """
        departed = [int(x) for x in departed]
        arrivals = [(int(node), position) for node, position in arrivals]
        if not departed and not arrivals:
            return EdgeDelta.empty()
        index_of = {node: i for i, node in enumerate(self._ids_list)}
        keep = np.ones(len(self._ids_list), dtype=bool)
        for node in departed:
            if node not in index_of:
                raise ConfigurationError(f"departed node {node!r} unknown")
            keep[index_of[node]] = False
        new_ids = [node for node, kept in zip(self._ids_list, keep) if kept]
        for node, _position in arrivals:
            if node in index_of:
                raise ConfigurationError(f"arrival {node!r} already present")
            new_ids.append(node)
        self._check_ids(new_ids)
        arrival_pos = np.array([position for _node, position in arrivals],
                               dtype=float).reshape(-1, 2)
        old_keys = self._edge_keys()
        self._ids_list = new_ids
        self._ids = np.array(new_ids, dtype=np.int64)
        self._pos = np.concatenate((self._pos[keep], arrival_pos))
        self._pos_dict = None
        self._rejoin()
        return self._diff_keys(old_keys, self._edge_keys())

    def __repr__(self):
        return (f"DynamicUnitDisk(n={len(self)}, m={self.edge_count()}, "
                f"radius={self.radius}, skin={self.skin})")


class TriangleCounter:
    """Exact per-node triangle counts maintained under edge deltas.

    Seeded from the graph's CSR kernel, then updated one
    ``common_neighbors`` intersection per changed edge via the observer
    hooks of :meth:`Graph.apply_edge_delta` (``edge_removed`` fires while
    the edge is still present, ``edge_added`` once it is in place, so the
    sequential counts match a scratch recount after any batch).  Nodes
    whose count changed accumulate in a dirty set drained with
    :meth:`pop_dirty` -- exactly the nodes whose Definition-1 density
    needs a refresh, together with the delta endpoints themselves.
    """

    def __init__(self, graph):
        csr = graph.to_csr()
        self.counts = dict(zip(csr.ids, csr.triangle_counts().tolist()))
        self._dirty = set()

    def edge_added(self, graph, u, v):
        common = graph.common_neighbors(u, v)
        if common:
            counts = self.counts
            gained = len(common)
            counts[u] += gained
            counts[v] += gained
            for w in common:
                counts[w] += 1
            self._dirty.add(u)
            self._dirty.add(v)
            self._dirty.update(common)

    def edge_removed(self, graph, u, v):
        common = graph.common_neighbors(u, v)
        if common:
            counts = self.counts
            lost = len(common)
            counts[u] -= lost
            counts[v] -= lost
            for w in common:
                counts[w] -= 1
            self._dirty.add(u)
            self._dirty.add(v)
            self._dirty.update(common)

    def node_added(self, node):
        if node in self.counts:
            raise TopologyError(f"node {node!r} already counted")
        self.counts[node] = 0

    def node_removed(self, node):
        del self.counts[node]
        self._dirty.discard(node)

    def recount(self, graph):
        """Recount via the CSR kernel; dirty = nodes whose count changed.

        Used for bulk deltas where per-edge updates would cost more than
        the vectorized kernel; the integers are identical either way.
        """
        csr = graph.to_csr()
        fresh = dict(zip(csr.ids, csr.triangle_counts().tolist()))
        old = self.counts
        self._dirty.update(node for node, count in fresh.items()
                           if old.get(node) != count)
        self.counts = fresh

    def pop_dirty(self):
        """Return and clear the set of nodes whose count changed."""
        dirty = self._dirty
        self._dirty = set()
        return dirty


@dataclass(frozen=True)
class WindowUpdate:
    """Everything one window of dynamics produced.

    ``topology`` wraps the *live* maintained graph (mutated again by the
    next window -- read metrics within the window, as the experiment
    loops do); ``delta`` is the exact edge difference from the previous
    window; ``density_changed`` the identifiers whose exact density value
    may have changed (conservative superset).  ``densities`` is the live
    exact density map of the producing :class:`DynamicTopology` (again:
    read within the window), or ``None`` when density tracking is off --
    ``density_changed`` is then ``None`` as well.
    """

    topology: Topology
    delta: EdgeDelta
    density_changed: frozenset
    densities: dict = None


class DynamicTopology:
    """A unit-disk :class:`Topology` kept current by exact edge deltas.

    Owns the :class:`DynamicUnitDisk`, a live :class:`Graph` (the same
    object across all windows, so simulators and caches keyed on it keep
    working), the :class:`TriangleCounter`, and the exact density map.
    Every update leaves the trio in the state a scratch rebuild
    (``topology_at`` + ``all_densities(exact=True)``) would produce,
    bit-for-bit; only the cost differs.
    """

    def __init__(self, positions, radius, ids=None, skin=None,
                 recount_fraction=_RECOUNT_FRACTION, track_densities=True):
        self._disk = DynamicUnitDisk(positions, radius, ids=ids, skin=skin)
        self.radius = float(radius)
        self._recount_fraction = int(recount_fraction)
        self.graph = Graph.from_pair_array(self._disk.edge_index_pairs(),
                                           self._disk.ids)
        if track_densities:
            self.triangles = TriangleCounter(self.graph)
            # Deferred import: repro.clustering reaches back into
            # repro.graph at package level, so binding at call time
            # avoids the cycle.
            from repro.clustering.density import all_densities
            # A mutable copy: _refresh_densities rewrites entries in place.
            self.densities = dict(all_densities(self.graph, exact=True))
        else:
            # Consumers that never read densities (the baseline engines)
            # skip the triangle counter and the Fraction refreshes; the
            # updates then carry ``densities=None``.
            self.triangles = None
            self.densities = None
        self.topology = self._wrap()

    def _wrap(self):
        return Topology(self.graph, positions=self._disk.positions_by_id(),
                        radius=self.radius)

    def __len__(self):
        return len(self.graph)

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def move(self, positions):
        """One mobility window: adopt new positions, return the update."""
        delta = self._disk.move(positions)
        if self.triangles is None:
            if delta:
                self.graph.apply_edge_delta(added=delta.added,
                                            removed=delta.removed)
                self.graph.adopt_csr(self._disk.snapshot())
            dirty = None
        elif delta:
            dirty = self._apply_delta(delta)
        else:
            dirty = frozenset()
        self.topology = self._wrap()
        return WindowUpdate(topology=self.topology, delta=delta,
                            density_changed=dirty,
                            densities=self.densities)

    def apply_churn(self, departed=(), arrivals=()):
        """One churn epoch: departures vanish with their edges, arrivals
        boot fresh; returns the update."""
        departed = [int(x) for x in departed]
        arrivals = [(int(node), position) for node, position in arrivals]
        delta = self._disk.apply_churn(departed, arrivals)
        graph = self.graph
        counter = self.triangles
        if counter is None:
            graph.apply_edge_delta(removed=delta.removed)
            for node in departed:
                graph.remove_node(node)
            for node, _position in arrivals:
                graph.add_node(node)
            graph.apply_edge_delta(added=delta.added)
            graph.adopt_csr(self._disk.snapshot())
            self.topology = self._wrap()
            return WindowUpdate(topology=self.topology, delta=delta,
                                density_changed=None, densities=None)
        # A heavy epoch (most of the population replaced) recounts on the
        # fresh snapshot instead of paying per-edge intersections, same
        # as the bulk branch of _apply_delta.
        recount = (delta.size * self._recount_fraction
                   >= self._disk.edge_count())
        observer = None if recount else counter
        # Removals while every endpoint still exists, then the node churn,
        # then additions over the final node set.
        graph.apply_edge_delta(removed=delta.removed, observer=observer)
        for node in departed:
            graph.remove_node(node)
            if not recount:
                counter.node_removed(node)
            del self.densities[node]
        for node, _position in arrivals:
            graph.add_node(node)
            if not recount:
                counter.node_added(node)
        graph.apply_edge_delta(added=delta.added, observer=observer)
        self.graph.adopt_csr(self._disk.snapshot())
        if recount:
            for node in departed:
                counter.counts.pop(node, None)
            counter.recount(graph)
        dirty = counter.pop_dirty()
        dirty.update(int(x) for x in delta.added.flat)
        dirty.update(int(x) for x in delta.removed.flat)
        dirty.difference_update(departed)
        dirty.update(node for node, _position in arrivals)
        self._refresh_densities(dirty)
        self.topology = self._wrap()
        return WindowUpdate(topology=self.topology, delta=delta,
                            density_changed=frozenset(dirty),
                            densities=self.densities)

    def _apply_delta(self, delta):
        graph = self.graph
        counter = self.triangles
        if delta.size * self._recount_fraction >= self._disk.edge_count():
            # Bulk delta: skip per-edge bookkeeping, recount on the fresh
            # snapshot instead (same integers, vectorized).
            graph.apply_edge_delta(added=delta.added, removed=delta.removed)
            graph.adopt_csr(self._disk.snapshot())
            counter.recount(graph)
        else:
            graph.apply_edge_delta(added=delta.added, removed=delta.removed,
                                   observer=counter)
            graph.adopt_csr(self._disk.snapshot())
        dirty = counter.pop_dirty()
        dirty.update(int(x) for x in delta.added.flat)
        dirty.update(int(x) for x in delta.removed.flat)
        self._refresh_densities(dirty)
        return frozenset(dirty)

    def _refresh_densities(self, dirty):
        graph = self.graph
        counts = self.triangles.counts
        densities = self.densities
        for node in dirty:
            deg = graph.degree(node)
            densities[node] = (Fraction(deg + counts[node], deg) if deg
                               else Fraction(0))

    def __repr__(self):
        return (f"DynamicTopology(n={len(self.graph)}, "
                f"m={self.graph.edge_count()}, radius={self.radius})")
