"""Per-node election oracle: the Section 4 rules, one node at a time.

The production election (:mod:`repro.clustering.incremental`) ranks
every node once and picks parents with array kernels.  This module keeps
the original formulation it must agree with: exact ``Fraction`` keys
built per node from the order's key function, the Section 4.2 parent
choice evaluated over each node's neighbor-key dict with the shared
per-node rules of :mod:`repro.clustering.heads`, and the Section 4.3
fusion greedy over ``Graph.k_neighborhood`` sets.  The tests compare
against it, and the mobility rebuild bench uses it as its speedup
baseline.
"""

from repro.clustering.density import all_densities
from repro.clustering.heads import choose_parent, is_local_max
from repro.clustering.order import NodeView, make_order
from repro.clustering.result import Clustering
from repro.experiments.mobility import _RebuildTraceEvaluator
from repro.mobility.trace import topology_at
from repro.naming.assign import assign_dag_ids


def compute_clustering_reference(graph, tie_ids=None, dag_ids=None,
                                 order="basic", fusion=False, previous=None,
                                 densities=None):
    """:func:`repro.clustering.oracle.compute_clustering`, node by node."""
    order_obj = make_order(order) if isinstance(order, str) else order
    if densities is None:
        densities = all_densities(graph, exact=True)
    if tie_ids is None:
        tie_ids = {node: node for node in graph}
    keys = {}
    for node in graph:
        view = NodeView(
            node=node,
            density=densities[node],
            tie_id=tie_ids[node],
            dag_id=None if dag_ids is None else dag_ids[node],
            is_head=_was_head(previous, node),
        )
        keys[node] = order_obj.key(view)
    return clustering_from_keys_reference(
        graph, keys, fusion=fusion, densities=densities, dag_ids=dag_ids,
        order_name=order_obj.name)


def clustering_from_keys_reference(graph, keys, fusion=False, densities=None,
                                   dag_ids=None, order_name="custom"):
    """:func:`repro.clustering.oracle.clustering_from_keys`, node by node."""
    if fusion:
        parents = parents_with_fusion(graph, keys)
    else:
        parents = parents_basic(graph, keys)
    return Clustering(graph, parents, densities=densities, dag_ids=dag_ids,
                      order_name=order_name, fusion=fusion)


def _was_head(previous, node):
    if previous is None:
        return False
    if isinstance(previous, (set, frozenset)):
        return node in previous
    return node in previous.head_of and previous.is_head(node)


def parents_basic(graph, keys):
    """F(p) = p if p is a 1-hop local maximum, else max≺ Np."""
    parents = {}
    for node in graph:
        neighbor_keys = {q: keys[q] for q in graph.neighbors(node)}
        parents[node] = choose_parent(node, keys[node], neighbor_keys)
    return parents


def parents_with_fusion(graph, keys):
    """Fusion rule: surviving heads form a 2-hop independent set.

    A local maximum keeps headship iff no already-confirmed head with a
    greater key sits within 2 hops (local maxima visited by decreasing
    key).  A deposed local maximum joins the strongest common neighbor
    it shares with its strongest dominating head.
    """
    local_maxima = {node for node in graph
                    if is_local_max(keys[node],
                                    (keys[q] for q in graph.neighbors(node)))}
    confirmed = set()
    for node in sorted(local_maxima, key=keys.get, reverse=True):
        two_hop = graph.k_neighborhood(node, 2)
        if not any(other in confirmed and keys[other] > keys[node]
                   for other in two_hop):
            confirmed.add(node)

    parents = {}
    for node in graph:
        neighbor_keys = {q: keys[q] for q in graph.neighbors(node)}
        if node in confirmed:
            parents[node] = node
        elif node in local_maxima:
            parents[node] = fusion_parent(graph, keys, node, confirmed)
        else:
            parents[node] = max(neighbor_keys, key=neighbor_keys.get)
    return parents


def fusion_parent(graph, keys, deposed, confirmed):
    """Parent of a deposed local maximum: strongest common neighbor shared
    with its strongest confirmed dominator within 2 hops."""
    two_hop = graph.k_neighborhood(deposed, 2)
    dominators = [h for h in two_hop
                  if h in confirmed and keys[h] > keys[deposed]]
    dominator = max(dominators, key=keys.get)
    common = graph.neighbors(deposed) & graph.closed_neighbors(dominator)
    return max(common, key=keys.get)


class RebuildTraceEvaluator(_RebuildTraceEvaluator):
    """The scratch per-window mobility pipeline with the per-node election.

    ``topology_at`` + persisted DAG-name repair + one
    :func:`compute_clustering_reference` per configuration, window by
    window: the ``dynamics="rebuild"`` loop with the per-node election in
    place of the array one.
    """

    def __call__(self, positions, state):
        topology = topology_at(positions, self.radius)
        self.dag_ids, _rounds = assign_dag_ids(topology, self.rng,
                                               initial_ids=self.dag_ids)
        for name, options in self.configurations.items():
            clustering = compute_clustering_reference(
                topology.graph, tie_ids=topology.ids, dag_ids=self.dag_ids,
                order=options["order"], fusion=options["fusion"],
                previous=state[name]["previous"])
            yield name, clustering
