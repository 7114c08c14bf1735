"""Centralized fixpoint of the density-driven clustering.

The distributed protocol (``repro.protocols.clustering``) converges to a
unique fixpoint once every node's caches are accurate (Lemma 2: the
cluster-head value is deterministically determined by densities, local
topology, and the values of greater nodes).  This module computes that
fixpoint directly from a global view, which is what the paper's own
simulations measure in Tables 4 and 5 -- only the final structure matters
there, not the message schedule.

Both entry points rank every node once and run the array election of
:mod:`repro.clustering.incremental`: :func:`compute_clustering` under the
paper's ``≺`` orders, :func:`clustering_from_keys` under an arbitrary
per-node key.  Integration tests assert that the protocol's stable state
equals this fixpoint on the same topology.
"""

from repro.clustering.density import all_densities
from repro.clustering.incremental import IncrementalElection, elect, key_ranks
from repro.clustering.result import Clustering
from repro.util.errors import ConfigurationError


def compute_clustering(
    graph,
    tie_ids=None,
    dag_ids=None,
    order="basic",
    fusion=False,
    previous=None,
    densities=None,
):
    """Compute the stable clustering of ``graph``.

    Parameters
    ----------
    graph:
        The connectivity graph.
    tie_ids:
        ``dict[node, int]`` of globally unique "normal" identifiers used as
        the final tie-break; defaults to the nodes themselves (which must
        then be unique integers).
    dag_ids:
        Optional ``dict[node, int]`` of locally unique DAG names
        (Section 4.1).  When given, these dominate ``tie_ids`` in the order.
    order:
        ``"basic"`` (Section 4.2) or ``"incumbent"`` (Section 4.3, rule 1).
    fusion:
        Apply the 2-hop fusion rule of Section 4.3 (rule 2).
    previous:
        Who currently holds headship, consulted by the incumbent order:
        either a previous :class:`~repro.clustering.result.Clustering` or a
        plain set of head nodes.
    densities:
        Precomputed exact densities (``dict[node, Fraction]``); computed via
        :func:`~repro.clustering.density.all_densities` when omitted.

    Returns
    -------
    Clustering

    Raises
    ------
    ConfigurationError
        When ``tie_ids`` or ``dag_ids`` do not cover exactly the graph's
        nodes, hold non-integers or integers outside int64, or when
        ``tie_ids`` repeat a value.
    """
    if densities is None:
        densities = all_densities(graph, exact=True)
    if tie_ids is None:
        tie_ids = {node: node for node in graph}
    engine = IncrementalElection(order=order, fusion=fusion)
    return engine.update(graph, densities, tie_ids, dag_ids=dag_ids, previous=previous)


def clustering_from_keys(
    graph, keys, fusion=False, densities=None, dag_ids=None, order_name="custom"
):
    """Clustering fixpoint under an arbitrary per-node key.

    ``keys`` maps every node to a comparable value; greater key wins.
    Keys must be *globally distinct* (append a unique identifier component
    to guarantee it).  This is the extension point used by the
    energy-aware order (``repro.energy``) and any custom metric the
    conclusion of the paper contemplates ("our contribution regarding the
    self-stabilization could be applied to several clusterization
    metrics").
    """
    if set(keys) != set(graph.nodes):
        raise ConfigurationError("keys must cover exactly the graph's nodes")
    if len(set(keys.values())) != len(keys):
        raise ConfigurationError("keys must be globally distinct")
    csr = graph.to_csr()
    ranks = key_ranks([keys[node] for node in csr.ids])
    return Clustering(
        graph,
        elect(csr, ranks, fusion),
        densities=densities,
        dag_ids=dag_ids,
        order_name=order_name,
        fusion=fusion,
    )
