"""Scalability experiment: routing state, flat vs hierarchical.

The paper's introduction motivates clustering with the scalability of
hierarchical routing; this experiment quantifies it on the reproduced
stack.  For growing deployments it reports the mean per-node routing
state under flat routing (``n - 1``) and under the cluster hierarchy, and
the path-stretch price paid for the savings.

The topology and hierarchy for each deployment size are built once in
the parent; the Monte-Carlo part -- sampling source/destination pairs
and routing them -- fans out as per-size *chunks* that each carry the
hierarchy and a pre-spawned generator.  On the pool backend the
hierarchy's physical graph therefore pickles as a shared-memory handle
(:mod:`repro.graph.shm`), not as an adjacency copy per task.  The
shipped hierarchy is built on a positions-free topology: routing and
stretch never read coordinates, so the per-task payload stays at the
clustering state rather than the geometry.
"""

import numpy as np

from repro.experiments.engine import ExperimentSpec, run_experiment
from repro.graph.generators import Topology, uniform_topology
from repro.graph.paths import connected_components
from repro.hierarchy.hierarchy import build_hierarchy
from repro.metrics.tables import Table
from repro.workload.serve import CachedRouter
from repro.util.rng import spawn_rngs

# Stretch sampling fans out over at most this many chunks per size; more
# would ship the hierarchy more often than the sampling is worth.
DEFAULT_CHUNKS = 4


def _largest_component_topology(topology):
    components = connected_components(topology.graph)
    largest = max(components, key=len)
    if len(largest) == len(topology.graph):
        return topology
    graph = topology.graph.induced_subgraph(largest)
    positions = {n: topology.positions[n] for n in largest} \
        if topology.positions else None
    ids = {n: topology.ids[n] for n in largest}
    return Topology(graph, positions=positions, ids=ids,
                    radius=topology.radius)


def _strip_positions(topology):
    """The same topology without coordinates (smaller task payloads)."""
    if not topology.positions:
        return topology
    return Topology(topology.graph, positions=None, ids=topology.ids,
                    radius=topology.radius)


def _run_one(task):
    """One chunk of sampled pairs; returns the list of their stretches.

    Stretch is computed through one :class:`CachedRouter` per chunk, so
    sub-CSR legs, overlay trees, and flat BFS answers are reused across
    the chunk's samples.
    """
    index, _prefix, hierarchy, count, chunk_rng = task
    nodes = list(hierarchy.physical.topology.graph.nodes)
    router = CachedRouter(hierarchy)
    stretches = []
    for _ in range(count):
        a, b = chunk_rng.choice(len(nodes), 2, replace=False)
        _, _, stretch = router.route_stretch(nodes[int(a)], nodes[int(b)])
        stretches.append(stretch)
    return stretches


def _build(preset, rng, options):
    sizes = options["sizes"]
    radius = options["radius"]
    pairs = options["pairs"]
    chunks = max(1, min(pairs, options.get("chunks") or DEFAULT_CHUNKS))
    tasks = []
    for index, (size, run_rng) in enumerate(
            zip(sizes, spawn_rngs(rng, len(sizes)))):
        topology = _strip_positions(_largest_component_topology(
            uniform_topology(size, radius, rng=run_rng)))
        hierarchy = build_hierarchy(topology, rng=run_rng)
        nodes = topology.graph.nodes
        flat_state = len(nodes) - 1
        hier_state = float(np.mean(
            [hierarchy.routing_state(n) for n in nodes]))
        prefix = [len(nodes), flat_state, hier_state,
                  flat_state / max(hier_state, 1e-9),
                  hierarchy.depth]
        counts = [pairs // chunks + (1 if c < pairs % chunks else 0)
                  for c in range(chunks)]
        for count, chunk_rng in zip(counts, spawn_rngs(run_rng, chunks)):
            tasks.append((index, prefix, hierarchy, count, chunk_rng))
    return tasks


def _reduce(preset, tasks, results, options):
    table = Table(
        title=("Scalability: per-node routing state, flat vs hierarchical "
               f"(R={options['radius']}, {options['pairs']} sampled pairs)"),
        headers=["nodes", "flat state", "hier state", "savings x",
                 "levels", "mean stretch"],
    )
    rows = {}
    order = []
    for task, stretches in zip(tasks, results):
        index, prefix = task[0], task[1]
        if index not in rows:
            rows[index] = (prefix, [])
            order.append(index)
        rows[index][1].extend(stretches)
    for index in order:
        prefix, stretches = rows[index]
        mean = float(np.mean(stretches)) if stretches else float("nan")
        table.add_row(list(prefix) + [mean])
    return table


SCALABILITY_SPEC = ExperimentSpec(name="scalability", build=_build,
                                  run=_run_one, reduce=_reduce)


def run_scalability(sizes=(200, 400, 800), radius=0.12, pairs=40, rng=None,
                    jobs=1, chunks=None):
    """Routing state and stretch per deployment size; returns a Table.

    ``chunks`` bounds how many stretch-sampling tasks each size fans out
    as (default :data:`DEFAULT_CHUNKS`, never more than ``pairs``).
    """
    return run_experiment(SCALABILITY_SPEC, rng=rng, jobs=jobs,
                          sizes=tuple(sizes), radius=radius, pairs=pairs,
                          chunks=chunks)
