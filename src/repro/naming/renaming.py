"""Round-based DAG renaming: algorithm ``N1`` and the Section 5 variant.

Algorithm ``N1`` (Section 4.1)::

    newId(Id_p) = Id_p                      if Id_p not in Cids_p
                  random(γ \\ Cids_p)        otherwise

    N1:  true  ->  Id_p := newId(Id_p)

where ``Cids_p`` is the cache of 1-neighbor names.  Every node re-evaluates
each round; conflicted nodes re-draw simultaneously (and may re-collide,
which the randomization resolves in expected constant time -- Theorem 1).

Section 5's simulations use a *polite* variant: when two neighbors collide,
only the one with the smaller "normal" identifier re-draws.  Both variants
are implemented here as synchronous round simulators over a global graph
view; the message-passing version lives in ``repro.protocols.naming`` and
reuses :func:`new_id`.

Both simulators share one array implementation over the graph's CSR
snapshot.  Names are one int64 column in row order (the order ``for
node in graph`` visits nodes), the initial draw is one ``rng.integers(|γ|,
size=n)`` call (the same stream, generator state included, as ``n``
scalar draws), collisions are one comparison over the edge arrays, and
a round walks only the rows that must re-draw, in row order, each
excluding its neighbors' names of the previous round.  The variants
differ only in which rows re-draw.  The test suite keeps the per-node
round loops as the oracle (``tests/oracles/naming.py``) and checks
names, round counts and the final generator state against it.
"""

from dataclasses import dataclass, field

import numpy as np

from repro.clustering.incremental import id_column
from repro.naming.namespace import NameSpace, recommended_size
from repro.util.errors import ConfigurationError, ConvergenceError
from repro.util.rng import as_rng

DEFAULT_MAX_ROUNDS = 1000


def new_id(current, neighbor_ids, namespace, rng):
    """The ``newId`` function of algorithm N1 for one node."""
    if current is not None and current in namespace and current not in set(neighbor_ids):
        return current
    return namespace.sample(rng, exclude=neighbor_ids)


def conflicting_edges(graph, ids):
    """Edges whose endpoints currently share a DAG name."""
    return [(u, v) for u, v in graph.edges if ids[u] == ids[v]]


def is_locally_unique(graph, ids):
    """True iff no two neighbors share a DAG name (the legitimacy predicate
    of the naming layer).

    Checked on the graph's CSR snapshot when available: one vectorized
    name comparison over the edge arrays instead of the per-edge Python
    scan of :func:`conflicting_edges`.  Non-integer names (the protocol
    simulations may hold any value) or graphs without a snapshot take
    that scan.
    """
    to_csr = getattr(graph, "to_csr", None)
    if to_csr is not None:
        csr = to_csr()
        # np.array (not fromiter) so nothing is silently cast: floats,
        # mixed types, and over-int64 names all land on a non-integer
        # dtype and take the reference scan instead.
        names = np.array([ids[node] for node in csr.ids])
        if names.dtype.kind in "iu":
            eu, ev = csr.edge_arrays()
            return not bool((names[eu] == names[ev]).any())
    return not conflicting_edges(graph, ids)


@dataclass
class RenamingResult:
    """Outcome of a renaming run.

    ``rounds`` counts broadcast rounds including the initial draw, i.e. the
    "number of steps needed to build the DAG" reported in Table 3.
    ``redraw_rounds`` counts only rounds in which some node re-drew.
    """

    ids: dict
    rounds: int
    redraw_rounds: int
    stable: bool
    history: list = field(default_factory=list)


class _RenamingBase:
    """Common driver: initial draw, then re-draw rounds until stable."""

    def __init__(self, namespace=None, max_rounds=DEFAULT_MAX_ROUNDS,
                 keep_history=False):
        self.namespace = namespace
        self.max_rounds = max_rounds
        self.keep_history = keep_history

    def _namespace_for(self, graph):
        if self.namespace is not None:
            return self.namespace
        return NameSpace(recommended_size(graph.max_degree()))

    def run(self, graph, rng=None, initial_ids=None, tie_ids=None):
        """Run to local uniqueness; raise ConvergenceError past the budget.

        ``initial_ids`` seeds the state (used by stabilization tests to
        start from corrupted configurations) and must map every node to
        an integer; when omitted every node draws uniformly, which counts
        as the first round.  ``tie_ids`` supplies integer normal
        identifiers for the polite variant (defaults to the nodes).
        """
        rng = as_rng(rng)
        namespace = self._namespace_for(graph)
        csr = graph.to_csr()
        nodes = csr.ids
        ties = self._tie_column(nodes, tie_ids)
        if initial_ids is None:
            names = rng.integers(namespace.size, size=len(nodes))
        else:
            names = _name_column(nodes, initial_ids)
        eu, ev = csr.edge_arrays()
        rounds = 1
        redraw_rounds = 0
        history = [dict(zip(nodes, names.tolist()))] if self.keep_history else []

        while True:
            clash = names[eu] == names[ev]
            if not clash.any():
                break
            if rounds >= self.max_rounds:
                raise ConvergenceError(
                    f"renaming did not stabilize within {self.max_rounds} "
                    "rounds", iterations=rounds)
            redraw = self._redraw_mask(names, eu[clash], ev[clash], ties,
                                       namespace)
            names = _redraw_rows(csr, names, np.flatnonzero(redraw),
                                 namespace, rng)
            rounds += 1
            redraw_rounds += 1
            if self.keep_history:
                history.append(dict(zip(nodes, names.tolist())))
        return RenamingResult(ids=dict(zip(nodes, names.tolist())),
                              rounds=rounds, redraw_rounds=redraw_rounds,
                              stable=True, history=history)

    def _tie_column(self, nodes, tie_ids):
        """The checked normal identifiers, or ``None`` if unused."""
        return None

    def _redraw_mask(self, names, cu, cv, ties, namespace):
        """Rows that re-draw, given the colliding edges ``(cu, cv)``."""
        raise NotImplementedError


def _name_column(nodes, initial_ids):
    """The checked int64 column of ``initial_ids``: integers (never
    bools, which are no names of ``γ``) in the int64 range."""
    if any(isinstance(name, (bool, np.bool_)) for name in initial_ids.values()):
        raise ConfigurationError("initial_ids must be integers, not bools")
    return id_column(nodes, initial_ids, "initial_ids")


def _redraw_rows(csr, names, rows, namespace, rng):
    """``names`` with each of ``rows`` (ascending) re-drawn outside its
    neighbors' current names."""
    updated = names.copy()
    indptr, indices = csr.indptr, csr.indices
    for row in rows.tolist():
        neighbor_names = names[indices[indptr[row]:indptr[row + 1]]]
        updated[row] = namespace.sample(rng, exclude=neighbor_names.tolist())
    return updated


class RandomizedRenaming(_RenamingBase):
    """Algorithm N1: every conflicted node re-draws simultaneously.

    Matches the guarded command ``true -> Id_p := newId(Id_p)`` evaluated
    synchronously: a node keeps its name iff no cached neighbor name equals
    it, else draws uniformly outside the cached names.  ``newId`` also
    replaces a name outside ``γ``, so in a round that re-draws at all,
    such a node re-draws too.  Normal identifiers play no part.
    """

    def _redraw_mask(self, names, cu, cv, ties, namespace):
        redraw = (names < 0) | (names >= namespace.size)
        redraw[cu] = True
        redraw[cv] = True
        return redraw


class PoliteRenaming(_RenamingBase):
    """Section 5 variant: on a collision, only the smaller normal identifier
    re-draws ("the node with the smallest normal Id chooses another DAG Id
    and so on until every node has a different DAG Id than its neighbors")."""

    def _tie_column(self, nodes, tie_ids):
        if tie_ids is None:
            tie_ids = dict(zip(nodes, nodes))
        return id_column(nodes, tie_ids, "tie_ids")

    def _redraw_mask(self, names, cu, cv, ties, namespace):
        redraw = np.zeros(len(names), dtype=bool)
        tu, tv = ties[cu], ties[cv]
        redraw[cu[tu < tv]] = True
        redraw[cv[tv < tu]] = True
        return redraw
