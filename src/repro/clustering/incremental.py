"""The density election: rank every node once, then array kernels.

Lemma 2 makes the stable clustering a fixpoint of densities, the ``≺``
order and local topology.  This module computes it; both the one-shot
:func:`~repro.clustering.oracle.compute_clustering` and the windowed
:class:`IncrementalElection` run the same steps:

* the node identifiers are checked once at the boundary
  (:func:`id_column`): tie and DAG identifiers must be integers whose
  negation fits int64, so a bad input fails with
  :class:`~repro.util.errors.ConfigurationError` before any kernel runs;
* the ``≺`` order is realized by ranking the key columns (density,
  incumbent flag, DAG name, tie identifier) with one ``lexsort``.
  Densities enter as floats, which is *exact* here: every density is a
  Fraction ``(deg + tri) / deg`` with numerator below ``n**2`` and
  denominator below ``n``, so distinct values differ by at least
  ``1/n**2`` while float spacing at the values' magnitude is below
  ``n * 2**-52`` -- strictly ordered after rounding for any ``n`` up to
  :data:`FLOAT_RANK_LIMIT`.  Beyond that bound, two distinct Fractions
  *may* round to one float; an exact *refinement* column is then slotted
  into the lexsort -- sub-ranks computed with Fractions, but only inside
  groups of float-tied rows (float rounding is monotone, so the exact
  order can only disagree within such a group).  Orders other than
  :class:`~repro.clustering.order.BasicOrder` and
  :class:`~repro.clustering.order.IncumbentOrder`, and arbitrary
  per-node keys such as the energy-aware order, are ranked by one
  Python sort of their keys (:func:`key_ranks`);
* the Section 4.2 parent choice is a vectorized per-row argmax over
  neighbor ranks on the CSR snapshot; the Section 4.3 fusion greedy runs
  in Python but only over the (few) local maxima, with two-hop
  neighborhoods gathered as array slices.

Across windows, :class:`IncrementalElection` refreshes only the key
entries whose density, head status, or DAG name changed.  When a window
changes nothing -- empty edge delta, same densities, same incumbents,
same names -- the previous :class:`~repro.clustering.result.Clustering`
is returned as-is.  The same short-circuit applies when the *only*
change is incumbent bits flipping on density-untied nodes: density is
the primary key of ``≺`` and the incumbent flag is consulted only
between equal-density nodes, so with no edge/density/name frontier such
flips cannot reorder any comparison and the previous election is
provably bit-identical.

The test suite keeps the per-node ``Fraction`` rules
(``tests/oracles/election.py``) as the oracle and checks both entry
points against it, exhaustively on every graph of up to six nodes.
"""

import numpy as np

from repro.clustering.density import all_densities, float_tie_mask
from repro.clustering.engine import ClusteringEngine, register_engine
from repro.clustering.order import BasicOrder, IncumbentOrder, NodeView, make_order
from repro.clustering.result import Clustering
from repro.util.errors import ConfigurationError

# Above this node count the float image of the exact rational densities
# is no longer guaranteed injective (clustering.density.FLOAT_EXACT_LIMIT
# derives the bound); the election then adds the exact refinement column
# to the lexsort.  Module-level so tests can lower it to force the
# refinement path on small graphs.
FLOAT_RANK_LIMIT = 100_000

_INT64 = np.iinfo(np.int64)


def id_column(ids, mapping, what, unique=False):
    """``mapping[node]`` for every node of ``ids``, as an int64 column.

    The election's one input check.  ``mapping`` must cover exactly the
    nodes of ``ids`` with integers whose negation fits int64 (``≺``
    compares identifiers smaller-wins through negated columns); with
    ``unique`` the values must also be globally distinct.  Anything
    else raises :class:`ConfigurationError` naming ``what``.
    """
    if len(mapping) != len(ids):
        raise ConfigurationError(f"{what} must cover exactly the graph's nodes")
    try:
        values = [mapping[node] for node in ids]
    except KeyError:
        raise ConfigurationError(
            f"{what} must cover exactly the graph's nodes"
        ) from None
    if not values:
        return np.empty(0, dtype=np.int64)
    column = np.array(values)
    if (
        column.ndim != 1
        or column.dtype.kind not in "iu"
        or column.max() > _INT64.max
        or column.min() <= _INT64.min
    ):
        raise ConfigurationError(f"{what} must be integers in the int64 range")
    column = column.astype(np.int64)
    if unique and np.unique(column).size != column.size:
        raise ConfigurationError(f"{what} must be globally unique")
    return column


def _rank_of(order):
    """Inverse permutation: ``ranks[order[k]] = k``."""
    ranks = np.empty(len(order), dtype=np.int64)
    ranks[order] = np.arange(len(order), dtype=np.int64)
    return ranks


def key_ranks(keys):
    """Rank of every row under its key (greater key wins).

    ``keys`` lists one comparable key per row; one Python sort ranks
    them, after which the election runs on int arrays only.
    """
    return _rank_of(sorted(range(len(keys)), key=keys.__getitem__))


def elect(csr, ranks, fusion):
    """``{node: parent}``: the Section 4.2 rule, then (``fusion``) 4.3."""
    parent_idx, self_wins = _basic_parents(csr, ranks)
    if fusion:
        _fusion_adjust(csr, ranks, parent_idx, self_wins)
    ids = csr.ids
    return dict(zip(ids, [ids[p] for p in parent_idx.tolist()]))


def _previous_heads(previous):
    """The incumbent head set: a Clustering's heads or a plain head set."""
    if previous is None:
        return frozenset()
    if isinstance(previous, (set, frozenset)):
        return previous
    return previous.heads


class IncrementalElection(ClusteringEngine):
    """Per-configuration election engine reused across windows.

    One instance per (order, fusion) configuration; :meth:`update` is
    called once per window with the maintained graph and exact densities
    and returns the window's :class:`Clustering`.
    The :class:`~repro.clustering.engine.ClusteringEngine` protocol
    (``init`` / ``apply_delta`` / ``result``) rides on top of it for
    callers that speak :class:`~repro.graph.dynamic.WindowUpdate`
    streams; richer callers (per-window DAG renames, incumbent
    threading) keep calling :meth:`update` directly.
    """

    def __init__(self, order="basic", fusion=False):
        self.order = make_order(order) if isinstance(order, str) else order
        self.fusion = bool(fusion)
        # The key columns mirror BasicOrder/IncumbentOrder exactly; any
        # other order is ranked by sorting its per-node keys.
        self._vectorizable = type(self.order) in (BasicOrder, IncumbentOrder)
        self._incumbent = isinstance(self.order, IncumbentOrder)
        self._ids = None
        self._tie = None
        self._dag = None
        self._density = None
        self._tied = None  # density-tie mask cache, None = stale
        self._refine = None  # exact tie-refinement cache, None = stale
        self._is_head = None
        self._last = None

    # ------------------------------------------------------------------
    # per-window entry point
    # ------------------------------------------------------------------

    def update(
        self,
        graph,
        densities,
        tie_ids,
        dag_ids=None,
        previous=None,
        density_changed=None,
        graph_changed=True,
        dag_changed=True,
    ):
        """Re-elect for one window; returns a :class:`Clustering`.

        ``densities`` is the exact density map maintained by the dynamic
        subsystem; ``density_changed`` the nodes whose value may have
        changed since the previous call (``None`` = re-seed everything);
        ``graph_changed`` / ``dag_changed`` flag whether the edge set or
        the DAG names moved.  ``previous`` carries the incumbent heads:
        a previous :class:`Clustering` or a plain set of head nodes.

        ``tie_ids`` must be stable per node: it is cached when the node
        set (re)seeds, matching the normal-identifier model of the paper
        (and every pipeline here, where ``Topology.ids`` never changes
        for a live node).  Re-mapping tie identifiers mid-sequence
        requires a fresh engine.
        """
        csr = graph.to_csr()
        ids = csr.ids
        n = len(ids)
        reseed = ids != self._ids
        if reseed:
            self._tie = id_column(ids, tie_ids, "tie_ids", unique=True)
            self._ids = ids
            density_changed = None
            dag_changed = True

        if density_changed is None:
            self._density = np.fromiter(
                (float(densities[node]) for node in ids), dtype=np.float64, count=n
            )
            self._tied = None
            self._refine = None
        elif density_changed:
            index_of = csr.index_of
            density = self._density
            for node in density_changed:
                density[index_of[node]] = float(densities[node])
            self._tied = None
            self._refine = None

        if dag_changed:
            self._dag = None if dag_ids is None else id_column(ids, dag_ids, "dag_ids")

        heads_prev = _previous_heads(previous)
        is_head = np.fromiter((node in heads_prev for node in ids), dtype=bool, count=n)
        was_head = self._is_head
        heads_same = was_head is not None and np.array_equal(is_head, was_head)
        self._is_head = is_head

        if self._vectorizable:
            unchanged_inputs = (
                self._last is not None
                and not reseed
                and not graph_changed
                and not dag_changed
                and not density_changed
            )
            if unchanged_inputs and (heads_same or not self._incumbent):
                return self._last
            if (
                unchanged_inputs
                and was_head is not None
                and not self._density_tied()[is_head != was_head].any()
            ):
                # The window's delta is empty (no edge/density/name
                # frontier) and the incumbent bit flipped only on
                # density-untied nodes.  Density is the primary key of the
                # lexsort and the incumbent flag is compared only between
                # equal-density nodes, so these flips cannot reorder any
                # pair under "<": ranks, parents, and fusion are provably
                # unchanged.
                return self._last
            refine = self._refinement(densities) if n > FLOAT_RANK_LIMIT else None
            ranks = self._ranks(refine)
        else:
            keys = []
            for node in ids:
                dag_id = None if dag_ids is None else dag_ids[node]
                head = node in heads_prev
                view = NodeView(node, densities[node], tie_ids[node], dag_id, head)
                keys.append(self.order.key(view))
            ranks = key_ranks(keys)
        self._last = Clustering(
            graph,
            elect(csr, ranks, self.fusion),
            densities=densities,
            dag_ids=dag_ids,
            order_name=self.order.name,
            fusion=self.fusion,
        )
        return self._last

    # ------------------------------------------------------------------
    # ClusteringEngine protocol
    # ------------------------------------------------------------------

    def init(self, topology, densities=None):
        """Seed from a full topology (the ClusteringEngine protocol).

        ``densities`` is the exact density map when the caller already
        maintains one (a density-tracking window stream); computed from
        scratch otherwise.
        """
        if densities is None:
            densities = all_densities(topology.graph, exact=True)
        previous = self._last if self._incumbent else None
        return self.update(
            topology.graph, densities, tie_ids=topology.ids, previous=previous
        )

    def apply_delta(self, update):
        """Advance one window from a ``WindowUpdate`` (protocol method).

        Requires the stream to maintain densities (``window_stream`` with
        ``track_densities=True``, the default); an update without them
        falls back to a scratch re-seed.
        """
        if update.delta is None or update.densities is None:
            return self.init(update.topology, densities=update.densities)
        previous = self._last if self._incumbent else None
        return self.update(
            update.topology.graph,
            update.densities,
            tie_ids=update.topology.ids,
            previous=previous,
            density_changed=update.density_changed,
            graph_changed=bool(update.delta),
            dag_changed=False,
        )

    def result(self):
        """The clustering of the last window (protocol method)."""
        if self._last is None:
            raise ConfigurationError("engine holds no clustering; call init first")
        return self._last

    def _density_tied(self):
        """Mask of nodes whose density value is shared with another node.

        Only at these nodes can the incumbent flag (or any lower-order
        key component) influence ``≺``.  Cached until a density write
        invalidates it.  Below :data:`FLOAT_RANK_LIMIT` the float image
        is exact (module docstring), so float equality coincides with
        equality of the underlying Fractions; above it the float-tie
        mask is a *superset* of the exact ties, which keeps every use
        (the incumbent-flip short-circuit, the refinement scope)
        conservative.
        """
        if self._tied is None:
            self._tied = float_tie_mask(self._density)
        return self._tied

    def _refinement(self, densities):
        """Exact tie-breaking column for rows beyond the float-image bound.

        Above :data:`FLOAT_RANK_LIMIT` two *distinct* Fractions may round
        to the same float.  Within each group of float-tied rows this
        assigns sub-ranks by the exact Fraction order (equal Fractions
        share a sub-rank); everywhere else it is 0.  Slotted into the
        lexsort directly under the density column, the composite key
        ``(float density, refinement)`` realizes the exact ``<``: float
        rounding is monotone, so across different float values the float
        order already agrees with the exact order, and within one float
        value the refinement decides.  Fractions are compared only over
        the (rare) float-tied rows; cached until a density write
        invalidates it.
        """
        if self._refine is None:
            refine = np.zeros(len(self._density), dtype=np.int64)
            tied_rows = np.flatnonzero(self._density_tied())
            if tied_rows.size:
                ids = self._ids
                values = self._density
                by_value = tied_rows[np.argsort(values[tied_rows], kind="stable")]
                rows = by_value.tolist()
                start = 0
                while start < len(rows):
                    stop = start + 1
                    value = values[rows[start]]
                    while stop < len(rows) and values[rows[stop]] == value:
                        stop += 1
                    group = rows[start:stop]
                    exact = sorted({densities[ids[row]] for row in group})
                    if len(exact) > 1:
                        sub = {fraction: k for k, fraction in enumerate(exact)}
                        for row in group:
                            refine[row] = sub[densities[ids[row]]]
                    start = stop
            self._refine = refine
        return self._refine

    def _ranks(self, refine=None):
        """Rank of every row under ``≺`` (greater rank wins).

        One lexsort over the key columns in the exact precedence of
        ``order.key``: density (refined by the exact column when given),
        then (incumbent order only) head status, then DAG name, then tie
        identifier -- the identifier components negated because smaller
        identifiers win.
        """
        cols = [-self._tie]
        if self._dag is not None:
            cols.append(-self._dag)
        if self._incumbent:
            cols.append(self._is_head)
        if refine is not None:
            cols.append(refine)
        cols.append(self._density)
        return _rank_of(np.lexsort(tuple(cols)))


def _basic_parents(csr, ranks):
    """Vectorized Section 4.2 parent choice.

    Returns ``(parent_idx, self_wins)``: per-row parent row indices and
    the local-maximum mask.  A node points at itself iff its rank beats
    every neighbor's, else at its unique maximum-rank neighbor.
    """
    n = len(csr)
    indptr = csr.indptr
    indices = csr.indices
    parent_idx = np.arange(n, dtype=np.int64)
    row_max = np.full(n, -1, dtype=np.int64)
    if indices.size:
        deg = np.diff(indptr.astype(np.int64))
        nonempty = deg > 0
        nbr_rank = ranks[indices]
        row_max[nonempty] = np.maximum.reduceat(
            nbr_rank, indptr[:-1][nonempty].astype(np.int64)
        )
        self_wins = ranks > row_max
        rows = np.repeat(np.arange(n, dtype=np.int64), deg)
        winners = np.flatnonzero(nbr_rank == row_max[rows])
        best = np.full(n, -1, dtype=np.int64)
        best[nonempty] = indices[winners]
        losers = ~self_wins
        parent_idx[losers] = best[losers]
    else:
        self_wins = np.ones(n, dtype=bool)
    return parent_idx, self_wins


def _two_hop_rows(csr, deg, row):
    """Rows within two hops of ``row`` (possibly with duplicates and
    ``row`` itself -- harmless for the membership tests below, which
    only ask whether a stronger confirmed head is within reach)."""
    indptr = csr.indptr
    indices = csr.indices
    nbrs = indices[indptr[row] : indptr[row + 1]].astype(np.int64)
    if not nbrs.size:
        return nbrs
    counts = deg[nbrs]
    total = int(counts.sum())
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    take = (
        np.arange(total, dtype=np.int64)
        - np.repeat(starts, counts)
        + np.repeat(indptr[nbrs].astype(np.int64), counts)
    )
    return np.concatenate((nbrs, indices[take].astype(np.int64)))


def _fusion_adjust(csr, ranks, parent_idx, self_wins):
    """Apply the Section 4.3 fusion rule in place.

    The literal guard of Section 4.3 ("every node in my 2-neighborhood
    that currently claims headship precedes me") is self-referential
    through the evolving ``H`` values; its stable outcomes are exactly
    the greedy-by-decreasing-rank resolutions: local maxima in
    decreasing rank order are confirmed unless a stronger confirmed head
    sits within two hops.  A deposed maximum joins the strongest common
    neighbor it shares with its strongest dominator, which merges its
    cluster into the dominator's and keeps parent chains acyclic.
    """
    indptr = csr.indptr
    indices = csr.indices
    deg = np.diff(indptr.astype(np.int64))
    local_rows = np.flatnonzero(self_wins)
    order_desc = local_rows[np.argsort(ranks[local_rows])][::-1]
    confirmed = np.zeros(len(csr), dtype=bool)
    deposed = []
    for row in order_desc.tolist():
        reach = _two_hop_rows(csr, deg, row)
        if reach.size and bool((confirmed[reach] & (ranks[reach] > ranks[row])).any()):
            deposed.append(row)
        else:
            confirmed[row] = True
    mark = np.zeros(len(csr), dtype=bool)
    for row in deposed:
        reach = _two_hop_rows(csr, deg, row)
        dominators = reach[confirmed[reach] & (ranks[reach] > ranks[row])]
        dominator = int(dominators[np.argmax(ranks[dominators])])
        nbrs = indices[indptr[row] : indptr[row + 1]].astype(np.int64)
        dom_closed = np.append(
            indices[indptr[dominator] : indptr[dominator + 1]].astype(np.int64),
            dominator,
        )
        mark[dom_closed] = True
        common = nbrs[mark[nbrs]]
        mark[dom_closed] = False
        parent_idx[row] = int(common[np.argmax(ranks[common])])


register_engine("density")(IncrementalElection)
