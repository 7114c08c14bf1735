"""Per-node naming oracle: the Section 4.1 renaming, one node at a time.

The production renaming (:mod:`repro.naming.renaming`) holds names as
one int64 column over the CSR rows, finds collisions with one
vectorized edge comparison and re-draws only the colliding rows; its
sampler steps past the sorted exclusions instead of scanning ``γ``.
This module keeps the original formulation it must agree with, draw for
draw: ``random(γ \\ exclude)`` as the index-th free name of a full scan
of ``γ``, and each redraw round as a loop over every node of the graph
with per-node neighbor lists, stopping on the per-edge conflict scan.
The tests compare against it, and the naming floor bench uses it as its
speedup baseline.
"""

from repro.naming.namespace import NameSpace, recommended_size
from repro.naming.renaming import (
    DEFAULT_MAX_ROUNDS,
    RenamingResult,
    conflicting_edges,
)
from repro.util.errors import ConfigurationError, ConvergenceError
from repro.util.rng import as_rng


def sample_reference(namespace, rng, exclude=()):
    """:meth:`NameSpace.sample` by scanning every name of ``γ``."""
    rng = as_rng(rng)
    forbidden = {name for name in exclude if name in namespace}
    free = namespace.size - len(forbidden)
    if free <= 0:
        raise ConfigurationError(
            f"name space of size {namespace.size} exhausted by "
            f"{len(forbidden)} excluded names; increase |γ| above δ")
    index = int(rng.integers(free))
    count = -1
    for name in range(namespace.size):
        if name not in forbidden:
            count += 1
            if count == index:
                return name
    raise AssertionError("unreachable: free name accounting is wrong")


def new_id_reference(current, neighbor_ids, namespace, rng):
    """:func:`repro.naming.renaming.new_id` over the scanning sampler."""
    if (current is not None and current in namespace
            and current not in set(neighbor_ids)):
        return current
    return sample_reference(namespace, rng, exclude=neighbor_ids)


def randomized_round(graph, ids, namespace, tie_ids, rng):
    """One synchronous N1 round: every node re-evaluates ``newId``."""
    updated = {}
    for node in graph:
        neighbor_ids = [ids[q] for q in graph.neighbors(node)]
        updated[node] = new_id_reference(ids[node], neighbor_ids,
                                         namespace, rng)
    return updated


def polite_round(graph, ids, namespace, tie_ids, rng):
    """One polite round: a node re-draws iff it collides with a neighbor
    of larger normal identifier."""
    updated = {}
    for node in graph:
        colliders = [q for q in graph.neighbors(node) if ids[q] == ids[node]]
        if any(tie_ids[node] < tie_ids[q] for q in colliders):
            neighbor_ids = [ids[q] for q in graph.neighbors(node)]
            updated[node] = sample_reference(namespace, rng,
                                             exclude=neighbor_ids)
        else:
            updated[node] = ids[node]
    return updated


_ROUNDS = {"randomized": randomized_round, "polite": polite_round}


def renaming_reference(graph, variant="polite", rng=None, namespace=None,
                       initial_ids=None, tie_ids=None,
                       max_rounds=DEFAULT_MAX_ROUNDS, keep_history=False):
    """``PoliteRenaming``/``RandomizedRenaming(...).run``, node by node."""
    redraw_round = _ROUNDS[variant]
    rng = as_rng(rng)
    if namespace is None:
        namespace = NameSpace(recommended_size(graph.max_degree()))
    if tie_ids is None:
        tie_ids = {node: node for node in graph}
    if initial_ids is None:
        ids = {node: sample_reference(namespace, rng) for node in graph}
    else:
        ids = dict(initial_ids)
        if set(ids) != set(graph.nodes):
            raise ConfigurationError(
                "initial_ids must cover exactly the graph's nodes")
    rounds = 1
    redraw_rounds = 0
    history = [dict(ids)] if keep_history else []
    while conflicting_edges(graph, ids):
        if rounds >= max_rounds:
            raise ConvergenceError(
                f"renaming did not stabilize within {max_rounds} rounds",
                iterations=rounds)
        ids = redraw_round(graph, ids, namespace, tie_ids, rng)
        rounds += 1
        redraw_rounds += 1
        if keep_history:
            history.append(dict(ids))
    return RenamingResult(ids=ids, rounds=rounds, redraw_rounds=redraw_rounds,
                          stable=True, history=history)


def assign_dag_ids_reference(topology, rng=None, initial_ids=None,
                             namespace=None):
    """:func:`repro.naming.assign.assign_dag_ids` over the oracle."""
    result = renaming_reference(topology.graph, "polite", rng=rng,
                                namespace=namespace, initial_ids=initial_ids,
                                tie_ids=topology.ids)
    return result.ids, result.rounds
