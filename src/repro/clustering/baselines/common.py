"""Shared machinery for 1-hop greedy baseline clusterings.

Lowest-ID (Baker-Ephremides) and highest-degree (Gerla-Tsai) clustering
are both instances of the same greedy rule: scan nodes in decreasing
priority; an uncovered node becomes a cluster-head and covers its
neighbors; covered non-heads then affiliate with their best adjacent head.
The result is a dominating set of heads and 1-hop clusters.

:func:`greedy_dominating_clustering` runs on the graph's CSR snapshot.
Tie identifiers pass one input check (:func:`tie_column`), and each
metric's priority is one int64 column (:func:`greedy_priorities`):
``-tie_rank`` for lowest-ID (the smaller identifier wins) and
``(degree << 32) - tie_rank`` for degree.  The scan order is one stable
argsort, coverage is a boolean mask updated row slice by row slice, and
the affiliation step is one vectorized maximum over adjacent-head ranks
(:func:`greedy_parent_rows`).  The incremental engine
(``clustering/baselines/incremental.py``) seeds, re-seeds and scores its
repairs with the same helpers.  The test suite keeps the per-node set
implementation as the oracle (``tests/oracles/baselines.py``).
"""

import numpy as np

from repro.clustering.incremental import id_column
from repro.clustering.result import Clustering
from repro.util.errors import ConfigurationError

#: The greedy priority metrics, by engine registry name.
GREEDY_METRICS = ("lowest-id", "degree")


def greedy_dominating_clustering(graph, metric, tie_ids=None):
    """Greedy 1-hop clustering under ``metric`` (see :data:`GREEDY_METRICS`).

    ``tie_ids`` maps node -> unique integer identifier; defaults to the
    nodes themselves.  Returns a
    :class:`~repro.clustering.result.Clustering` whose parents point
    members directly at their head (joining trees of height <= 1).
    """
    csr = graph.to_csr()
    tie_rank = tie_ranks(tie_column(csr, tie_ids))
    prio = greedy_priorities(metric, csr.degrees(), tie_rank)
    _heads, parent_rows = greedy_parent_rows(csr, prio)
    ids = csr.ids
    parents = {ids[i]: ids[p] for i, p in enumerate(parent_rows.tolist())}
    return Clustering(graph, parents)


def tie_column(csr, tie_ids=None):
    """The checked int64 tie-identifier column, one entry per CSR row.

    The baselines' one input check: ``tie_ids`` (default: the nodes
    themselves) must cover exactly the graph's nodes with unique
    integers in the int64 range, else
    :class:`~repro.util.errors.ConfigurationError`.
    """
    if tie_ids is None:
        tie_ids = dict(zip(csr.ids, csr.ids))
    return id_column(csr.ids, tie_ids, "tie_ids", unique=True)


def tie_ranks(tie):
    """Rank of every row's (unique) identifier, the smallest ranked 0."""
    rank = np.empty(len(tie), dtype=np.int64)
    rank[np.argsort(tie)] = np.arange(len(tie), dtype=np.int64)
    return rank


def greedy_priorities(metric, degrees, tie_rank):
    """One int64 priority per row (greater wins), unique by construction.

    ``-tie_rank`` for ``"lowest-id"``; ``(degree << 32) - tie_rank`` for
    ``"degree"``, which orders like the pair ``(degree, -tie_id)`` since
    every rank is below ``2**32``.
    """
    if metric == "degree":
        return (degrees << 32) - tie_rank
    if metric == "lowest-id":
        return -tie_rank
    raise ConfigurationError(
        f"unknown greedy metric {metric!r}; expected 'lowest-id' or 'degree'"
    )


def greedy_parent_rows(csr, prio):
    """``(heads, parent_rows)``: the greedy scan in decreasing ``prio``,
    then affiliation with the best adjacent head."""
    order = np.argsort(-prio, kind="stable")
    heads = greedy_heads(csr, order)
    return heads, affiliate(csr, heads, scan_rank(order))


def scan_rank(order):
    """Per-row rank under the scan order (greater = scanned earlier)."""
    n = len(order)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n - 1, -1, -1, dtype=np.int64)
    return rank


def greedy_heads(csr, order):
    """Boolean head mask from one covered-bitmask scan in ``order``."""
    n = len(csr)
    covered = np.zeros(n, dtype=bool)
    heads = np.zeros(n, dtype=bool)
    indptr = csr.indptr
    indices = csr.indices
    for row in order.tolist():
        if not covered[row]:
            heads[row] = True
            covered[row] = True
            start = indptr[row]
            stop = indptr[row + 1]
            covered[indices[start:stop]] = True
    return heads


def affiliate(csr, heads, rank):
    """Parent row per node: heads keep themselves, members join their
    maximum-priority adjacent head (one masked max-reduction over the
    CSR rows; every non-head is dominated by construction)."""
    n = len(csr)
    parent_rows = np.arange(n, dtype=np.int64)
    indices = csr.indices
    if not indices.size:
        return parent_rows
    indptr = csr.indptr.astype(np.int64)
    deg = np.diff(indptr)
    nonempty = deg > 0
    head_rank = np.where(heads[indices], rank[indices], -1)
    row_best = np.full(n, -1, dtype=np.int64)
    row_best[nonempty] = np.maximum.reduceat(head_rank, indptr[:-1][nonempty])
    members = ~heads & (row_best >= 0)
    rows = np.repeat(np.arange(n, dtype=np.int64), deg)
    hits = np.flatnonzero((head_rank == row_best[rows]) & members[rows])
    parent_rows[members] = indices[hits].astype(np.int64)
    return parent_rows
