"""The three benchmark workloads, composed from each layer's public calls.

Each workload is a function ``(trace, seed, seconds, ...) -> Outcome``.
It runs operations until ``seconds`` have passed (and at least its
fixed prefix of operations, which the result digest covers), records
every operation and layer call on ``trace``, and checks every output
outside the timed sections.  The calls follow the order the
experiments use, so each workload runs the program's own pipeline; the
self-test (``selftest.py``) shows that equality at reduced size.
"""

import copy
import math
import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

from checks import RouteChecker, check_hierarchy, digest
from repro.clustering.density import all_densities
from repro.clustering.engine import engine_for
from repro.clustering.oracle import compute_clustering
from repro.collectors import (
    CollectorProxy,
    HeadLoadCollector,
    LatencyCollector,
    LinkLoadCollector,
    StretchCollector,
)
from repro.graph.generators import Topology, poisson_topology
from repro.graph.geometry import unit_disk_graph
from repro.hierarchy.hierarchy import (
    DEFAULT_MAX_LEVELS,
    Hierarchy,
    HierarchyLevel,
    build_hierarchy,
)
from repro.hierarchy.overlay import overlay_topology
from repro.metrics.clusters import cluster_stats
from repro.mobility.random_direction import RandomDirectionModel
from repro.mobility.trace import window_stream
from repro.naming.assign import assign_dag_ids
from repro.util.rng import as_rng, spawn_rngs
from repro.workload.generators import ZipfPopularity, poisson_requests
from repro.workload.serve import (
    BATCH_REQUESTS,
    CachedRouter,
    RouterStatsCollector,
)

ZIPF_ALPHA = 0.8
SETUP_REPEATS = 3

# paper-montecarlo: the Table 4 cells, visited round-robin so any stop
# leaves every cell within one deployment of the others.
INTENSITY = 1000
TABLE4_CELLS = tuple((radius, use_dag) for radius in (0.05, 0.08, 0.1)
                     for use_dag in (True, False))
MONTECARLO_PREFIX = 24
MONTECARLO_MAX = 100_000

# deploy-serve: 20k uniform nodes at mean degree ~10; requests leave
# the members of the 64 largest clusters (hot gateways).
DEPLOY_NODES = 20_000
DEPLOY_RADIUS = math.sqrt(10.0 / (math.pi * DEPLOY_NODES))
HOT_CLUSTERS = 64
DEPLOYS = 5  # deploy_s is their median
SERVE_REQUESTS = 160 * BATCH_REQUESTS  # more than a run serves
FLAT_SAMPLES = 250
WARM_BATCHES = 2
SERVE_PREFIX_BATCHES = 2

# mobile-reconverge: the ``workload --kinds mobility`` window loop at
# 2000 nodes and mean degree ~10, pedestrian speed on a 1 km side.
MOBILE_NODES = 2000
MOBILE_RADIUS = math.sqrt(10.0 / (math.pi * MOBILE_NODES))
MOBILE_SPEED = (0.0, 1.6 / 1000.0)
WINDOW_SECONDS = 2.0
WINDOW_REQUESTS = 1000
MOBILE_PREFIX = 12
# Independent traces per run, so one run's figures do not hang on one
# deployment's shape.
MOBILE_TRACES = 3


@dataclass
class Outcome:
    """What one workload run produced, beyond its trace."""

    attempted: int = 0
    failed: int = 0
    samples: dict = field(default_factory=dict)  # name -> [(start, end, s)]
    requests: int = 0                            # measured, when served
    setup: list = field(default_factory=list)    # [(start, end, seconds)]
    prefix: list = field(default_factory=list)   # digest material
    digest: str = ""

    def record(self, ok):
        self.attempted += 1
        self.failed += 0 if ok else 1


def _setup(outcome, make, repeats=SETUP_REPEATS):
    """Generate inputs ``repeats`` times; record the median time and
    return the last result (``make`` is deterministic)."""
    times = []
    first = time.perf_counter()
    for _ in range(repeats):
        start = time.perf_counter()
        result = make()
        times.append(time.perf_counter() - start)
    outcome.setup.append((first, time.perf_counter(),
                          statistics.median(times)))
    return result


def _checked(check, *args):
    """Run an output check; ``False`` when it fails or raises."""
    try:
        check(*args)
    except Exception as error:  # noqa: BLE001 -- any raise is a failed check
        print(f"check failed: {type(error).__name__}: {error}")
        return False
    return True


def make_collectors(hierarchy):
    """The collector set the ``workload`` experiment serves into."""
    return CollectorProxy([
        LatencyCollector(),
        LinkLoadCollector(),
        HeadLoadCollector(hierarchy.physical.clustering.heads),
        StretchCollector(),
        RouterStatsCollector(),
    ])


def levels_above(trace, topology, clustering, rng):
    """Level 0 plus its overlay and every level above it.

    Equal to ``build_hierarchy(topology, rng, physical_clustering=
    clustering)`` level for level; the overlay is built here so the
    benchmark can time it on its own.
    """
    if clustering.cluster_count <= 1:
        return Hierarchy([HierarchyLevel(index=0, topology=topology,
                                         clustering=clustering,
                                         overlay=None)])
    with trace.layer("hierarchy.overlay"):
        overlay = overlay_topology(topology, clustering)
    with trace.layer("hierarchy.levels"):
        upper = build_hierarchy(overlay.topology, rng=rng,
                                max_levels=DEFAULT_MAX_LEVELS - 1)
    trace.count("hierarchy.overlay",
                edges=overlay.topology.graph.edge_count())
    trace.count("hierarchy.levels", depth=1 + upper.depth)
    level0 = HierarchyLevel(index=0, topology=topology,
                            clustering=clustering, overlay=overlay)
    return Hierarchy([level0] + [replace(level, index=level.index + 1)
                                 for level in upper.levels])


def name_and_cluster(trace, topology, rng, use_dag):
    """Densities, DAG names (when ``use_dag``) and the election of one
    static topology."""
    graph = topology.graph
    with trace.layer("clustering.density"):
        densities = all_densities(graph, exact=True)
    trace.count("clustering.density", nodes=len(densities))
    dag_ids = None
    if use_dag:
        with trace.layer("naming"):
            dag_ids, rounds = assign_dag_ids(topology, rng)
        trace.count("naming", nodes=len(dag_ids), rounds=rounds)
    with trace.layer("clustering"):
        clustering = compute_clustering(graph, tie_ids=topology.ids,
                                        dag_ids=dag_ids,
                                        densities=densities)
    trace.count("clustering", nodes=len(clustering.head_of),
                clusters=clustering.cluster_count)
    return clustering


# ----------------------------------------------------------------------
# paper-montecarlo
# ----------------------------------------------------------------------

def deployment(trace, radius, use_dag, rng):
    """One Table 4 run: ``(topology, clustering, stats, built)``, where
    ``built`` is the clock reading once the clustering exists."""
    with trace.layer("graph"):
        topology = poisson_topology(INTENSITY, radius, rng=rng)
    trace.count("graph", edges=topology.graph.edge_count())
    clustering = name_and_cluster(trace, topology, rng, use_dag=use_dag)
    built = time.perf_counter()
    with trace.layer("metrics"):
        stats = cluster_stats(clustering)
    return topology, clustering, stats, built


def paper_montecarlo(trace, seed, seconds, minimum=MONTECARLO_PREFIX):
    """Table 4 deployments, one per operation, until time is up."""
    outcome = Outcome()
    # Per-run RNGs as ``spawn_rngs(seed, MONTECARLO_MAX)`` draws them,
    # each built only when its deployment runs.
    run_seeds = _setup(outcome, lambda: as_rng(seed).integers(
        0, 2**63, size=MONTECARLO_MAX))
    deadline = time.perf_counter() + seconds
    latencies = outcome.samples.setdefault("deployment", [])
    builds = outcome.samples.setdefault("build", [])
    index = 0
    while (index < minimum or time.perf_counter() < deadline) \
            and index < MONTECARLO_MAX:
        radius, use_dag = TABLE4_CELLS[index % len(TABLE4_CELLS)]
        rng = np.random.default_rng(int(run_seeds[index]))
        with trace.op("deployment") as op:
            topology, clustering, stats, built = deployment(
                trace, radius, use_dag, rng)
        latencies.append((op.start, op.end, op.seconds))
        builds.append((op.start, op.end, built - op.start))
        ok = _checked(clustering.check_invariants)
        outcome.record(ok)
        if index < minimum:
            outcome.prefix.append([radius, use_dag, len(topology.graph),
                                   topology.graph.edge_count(),
                                   [repr(value) for value in stats.row()]])
        index += 1
    outcome.digest = digest(outcome.prefix)
    return outcome


# ----------------------------------------------------------------------
# deploy-serve
# ----------------------------------------------------------------------

def deploy_level0(trace, positions, radius, rng):
    """Positions to the level-0 ``(topology, clustering)``, as
    ``uniform_topology`` + ``build_hierarchy`` make them."""
    with trace.layer("graph"):
        graph, positions_by_id = unit_disk_graph(positions, radius)
        topology = Topology(graph, positions=positions_by_id, radius=radius)
    trace.count("graph", edges=graph.edge_count())
    # ``build_hierarchy`` names a level only when it has an edge.
    clustering = name_and_cluster(trace, topology, rng,
                                  use_dag=graph.edge_count() > 0)
    return topology, clustering


def deploy(trace, positions, rng):
    """Positions to a routable hierarchy (one ``deploy_s`` sample)."""
    topology, clustering = deploy_level0(trace, positions, DEPLOY_RADIUS,
                                         rng)
    return levels_above(trace, topology, clustering, rng)


def hot_sources(clustering, clusters=HOT_CLUSTERS):
    """Members of the largest clusters (size-descending, head-id ties)."""
    ranked = sorted(clustering.heads,
                    key=lambda head: (-len(clustering.members(head)), head))
    return sorted(node for head in ranked[:clusters]
                  for node in clustering.members(head))


def serve_requests(hierarchy, rng, count=SERVE_REQUESTS):
    """The Zipf(0.8)-destination stream from the hot clusters."""
    nodes = sorted(hierarchy.physical.topology.graph.nodes)
    return list(poisson_requests(
        hot_sources(hierarchy.physical.clustering), count, rng=rng,
        popularity=ZipfPopularity(nodes, ZIPF_ALPHA)))


def count_served(trace, router, served, flat_before):
    """Serving counters of one ``route_batch`` call (traced runs only)."""
    if not trace.enabled:
        return
    head_of = router.head_of
    trace.count(
        "workload.serve", requests=len(served),
        hops=sum(event.hops for event in served if event.hops is not None),
        groups=len({(head_of[event.request.source],
                     head_of[event.request.destination])
                    for event in served}),
        flat_hits=router.flat_hits - flat_before[0],
        flat_misses=router.flat_misses - flat_before[1])
    trace.count("collectors", events=len(served))


def serve_batches(trace, router, proxy, requests, flat_every):
    """One ``route_batch`` + ``process_batch`` operation per chunk, as
    ``serve_workload`` chunks a stream; yields ``(op span, served)``."""
    for begin in range(0, len(requests), BATCH_REQUESTS):
        batch = requests[begin:begin + BATCH_REQUESTS]
        flat_before = (router.flat_hits, router.flat_misses)
        with trace.op("batch") as op:
            with trace.layer("workload.serve"):
                served = router.route_batch(batch, flat_every=flat_every,
                                            first_index=begin)
            with trace.layer("collectors"):
                proxy.process_batch(served)
        count_served(trace, router, served, flat_before)
        yield op, served


def serve_hierarchy(trace, hierarchy, requests, flat_every, deadline,
                    outcome):
    """Serve ``requests`` through one warm router until ``deadline``
    (at least the warm-up and digest batches)."""
    with trace.op("warmup"):
        with trace.layer("workload.serve"):
            router = CachedRouter(hierarchy)
    proxy = make_collectors(hierarchy)
    checker = RouteChecker(hierarchy.physical.topology.graph)
    measured = outcome.samples.setdefault("batch", [])
    served_total = 0
    batches = serve_batches(trace, router, proxy, requests, flat_every)
    for number, (op, served) in enumerate(batches):
        outcome.record(_checked(checker.check, served))
        if number < SERVE_PREFIX_BATCHES:
            outcome.prefix.append([event.hops for event in served])
        if number >= WARM_BATCHES:
            measured.append((op.start, op.end, op.seconds))
            served_total += len(served)
            if time.perf_counter() >= deadline:
                break
    stats = router.flat_cache_stats()
    proxy["router"].absorb(stats["hits"], stats["misses"])
    outcome.requests = served_total


def deploy_serve(trace, seed, seconds, deploys=DEPLOYS):
    """Deploy ``deploys`` times from one position set, then serve."""
    outcome = Outcome()

    def positions_and_rng():  # as ``uniform_topology`` draws them
        rng = np.random.default_rng(seed)
        return rng.uniform(0.0, 1.0, size=(DEPLOY_NODES, 2)), rng

    positions, names_rng = _setup(outcome, positions_and_rng)
    deadline = time.perf_counter() + seconds
    for _ in range(deploys):
        rng = copy.deepcopy(names_rng)  # every deploy draws the same names
        with trace.op("deploy") as op:
            hierarchy = deploy(trace, positions, rng)
        outcome.samples.setdefault("deploy", []).append(
            (op.start, op.end, op.seconds))

    def hot_requests():
        with trace.layer("workload.generators", in_op=False):
            return serve_requests(hierarchy, rng)

    # One draw: generating 655k requests takes long enough to be steady.
    requests = _setup(outcome, hot_requests, repeats=1)
    serve_hierarchy(trace, hierarchy, requests,
                    max(1, len(requests) // FLAT_SAMPLES), deadline, outcome)
    # Checked only now: the invariant check fills the clustering's sweep
    # cache, which the router would otherwise reuse.
    outcome.record(_checked(check_hierarchy, hierarchy))

    outcome.prefix.append(
        [[level.clustering.cluster_count, level.topology.graph.edge_count(),
          sorted(level.clustering.heads)] for level in hierarchy.levels])
    outcome.prefix.append([repr(value) for value in
                           cluster_stats(hierarchy.physical.clustering).row()])
    outcome.digest = digest(outcome.prefix)
    return outcome


# ----------------------------------------------------------------------
# mobile-reconverge
# ----------------------------------------------------------------------

def mobile_windows(trace, rng, nodes=MOBILE_NODES, radius=MOBILE_RADIUS,
                   requests=WINDOW_REQUESTS, flat_every=0):
    """The ``workload --kinds mobility`` window loop, one window per
    ``next()``.  Yields ``(op span, reconverge seconds, hierarchy,
    served, proxy, update)``; consume each window before the next."""
    model = RandomDirectionModel(nodes, MOBILE_SPEED, rng=rng)
    engine = engine_for("density")
    feed = []

    def snapshots():  # one snapshot per window, pushed by the loop below
        while True:
            yield feed.pop()

    stream = window_stream(snapshots(), radius)
    first = True
    while True:
        with trace.op("window") as op:
            if not first:
                with trace.layer("mobility"):
                    model.advance(WINDOW_SECONDS)
            first = False
            snapshot = time.perf_counter()
            feed.append(model.positions.copy())
            with trace.layer("graph.dynamic"):
                update = next(stream)
            topology = update.topology
            dag_ids = None
            if topology.graph.edge_count() > 0:
                with trace.layer("naming"):
                    dag_ids, rounds = assign_dag_ids(topology, rng)
                trace.count("naming", nodes=len(dag_ids), rounds=rounds)
            with trace.layer("clustering.incremental"):
                clustering = engine.update(
                    topology.graph, update.densities, tie_ids=topology.ids,
                    dag_ids=dag_ids, density_changed=update.density_changed,
                    graph_changed=bool(update.delta), dag_changed=True)
            hierarchy = levels_above(trace, topology, clustering, rng)
            reconverge = time.perf_counter() - snapshot
            with trace.layer("workload.generators"):
                members = sorted(topology.graph.nodes)
                batch = list(poisson_requests(
                    members, requests, rng=rng,
                    popularity=ZipfPopularity(members, ZIPF_ALPHA)))
            proxy = make_collectors(hierarchy)
            with trace.layer("workload.serve"):
                router = CachedRouter(hierarchy)
                served = router.route_batch(batch, flat_every=flat_every)
                stats = router.flat_cache_stats()
            with trace.layer("collectors"):
                proxy.process_batch(served)
            proxy["router"].absorb(stats["hits"], stats["misses"])
        count_served(trace, router, served, (0, 0))
        if update.delta is not None:
            trace.count("graph.dynamic", delta_edges=update.delta.size)
        yield op, reconverge, hierarchy, served, proxy


def mobile_reconverge(trace, seed, seconds, minimum=MOBILE_PREFIX):
    """Windows of independent traces, taken in turn, until time is up;
    each window reconverges and serves."""
    outcome = Outcome()
    traces = [mobile_windows(trace, rng)
              for rng in spawn_rngs(seed, MOBILE_TRACES)]
    deadline = time.perf_counter() + seconds
    reconverge_s = outcome.samples.setdefault("reconverge", [])
    window_s = outcome.samples.setdefault("window", [])
    index = 0
    while index < minimum or time.perf_counter() < deadline:
        op, reconverge, hierarchy, served, _proxy = next(
            traces[index % MOBILE_TRACES])
        window_s.append((op.start, op.end, op.seconds))
        reconverge_s.append((op.start, op.end, reconverge))
        checker = RouteChecker(hierarchy.physical.topology.graph)
        outcome.record(_checked(check_hierarchy, hierarchy)
                       and _checked(checker.check, served))
        if index < minimum:
            outcome.prefix.append(
                [[sorted(level.clustering.heads)
                  for level in hierarchy.levels],
                 [event.hops for event in served]])
        index += 1
    for windows in traces:
        windows.close()
    outcome.digest = digest(outcome.prefix)
    return outcome


WORKLOADS = {
    "paper-montecarlo": paper_montecarlo,
    "deploy-serve": deploy_serve,
    "mobile-reconverge": mobile_reconverge,
}
