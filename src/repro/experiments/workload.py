"""The traffic-serving experiment family: ``repro workload``.

Serves large request workloads through the cluster hierarchy and
reports what a production deployment would ask of it: p50/p99 latency
(in hops), link load, per-cluster-head load balance, and path stretch
-- per workload shape.  The shapes cover the serving literature's axes:

* ``uniform`` -- Poisson arrivals, uniform destinations (the paper's
  homogeneous assumption);
* ``zipf`` / ``zipf-hot`` -- Zipf(0.8) / Zipf(1.2) destination
  popularity (skewed content/aggregator traffic; the *cluster-head
  load balance under skew* rows are a paper-extension result);
* ``ycsb`` -- the YCSB-B 95/5 read/write mix against node-owned
  objects with Zipf(0.8) key popularity;
* ``mobility`` -- the same Zipf traffic served over per-window
  delta-maintained topologies (:func:`~repro.mobility.trace.
  window_stream`), with the level-0 clustering maintained by the
  incremental density engine and the hierarchy and router rebuilt per
  2-second window (``dynamics="rebuild"`` forces the scratch path;
  identical output either way).

Execution rides the standard :class:`~repro.experiments.engine.
ExperimentSpec` engine: each static workload is split into a *fixed*
number of request chunks (independent of ``jobs``/backend), every chunk
carries its own pre-spawned RNG and returns a mergeable
:class:`~repro.collectors.base.CollectorProxy`, and the reducer folds
the chunks in submission order -- collector merge is associative and
order-independent, so the rendered tables are byte-identical for every
backend and worker count.  Chunk timestamps restart at zero (arrival
times order events within a chunk; no collector reads absolute time).
"""

from dataclasses import dataclass

import numpy as np

from repro.collectors import (
    CollectorProxy,
    HeadLoadCollector,
    LatencyCollector,
    LinkLoadCollector,
    StretchCollector,
)
from repro.clustering.engine import engine_for
from repro.experiments.common import get_preset, resolve_topology_spec
from repro.graph.models.registry import build_topology_spec
from repro.experiments.engine import ExperimentSpec, run_experiment
from repro.experiments.metric_windows import (
    METRIC_ENGINES,
    METRIC_SCRATCH,
    check_dynamics,
)
from repro.graph.generators import uniform_topology
from repro.hierarchy.hierarchy import build_hierarchy
from repro.metrics.tables import Table
from repro.mobility.random_direction import RandomDirectionModel
from repro.mobility.trace import topology_at, window_stream
from repro.naming.assign import assign_dag_ids
from repro.util.errors import ConfigurationError
from repro.util.rng import as_rng, spawn_rngs
from repro.workload.generators import (
    ZipfPopularity,
    poisson_requests,
    ycsb_requests,
)
from repro.workload.serve import RouterStatsCollector, serve_workload

#: Workload shapes in table order.
WORKLOAD_KINDS = ("uniform", "zipf", "zipf-hot", "ycsb", "mobility")

#: Clustering metrics the mobility shape can maintain per window:
#: CLI spelling -> the :mod:`~repro.experiments.metric_windows` name.
WORKLOAD_METRICS = {
    "density": "density",
    "degree": "degree",
    "lowest_id": "lowest-id",
    "maxmin": "max-min (d=2)",
}


def check_metric(metric):
    """Validate a workload clustering-metric name and return it."""
    if metric not in WORKLOAD_METRICS:
        raise ConfigurationError(
            f"unknown metric {metric!r}; expected one of "
            f"{tuple(WORKLOAD_METRICS)}")
    return metric


#: Requests *per workload shape* by preset name (quick totals 10^5 over
#: the five shapes -- the CI workload-smoke budget).
REQUESTS_BY_PRESET = {"paper": 200_000, "quick": 20_000, "smoke": 600}

ZIPF_ALPHA = 0.8
ZIPF_HOT_ALPHA = 1.2
YCSB_READ_FRACTION = 0.95

#: Static workloads split into this many engine tasks -- fixed, never a
#: function of jobs or backend, so chunk boundaries (and with them the
#: stretch sampling and every RNG stream) are identical everywhere.
CHUNKS = 8

#: Target stretch samples per chunk (``flat_every`` is derived from it).
FLAT_SAMPLES_PER_CHUNK = 250

#: Mobility shape: 2-second windows served per trace.
MOBILITY_WINDOWS = 12
MOBILITY_WINDOW_SECONDS = 2.0
MOBILITY_SPEED_RANGE_MPS = (0.0, 1.6)  # pedestrian
SQUARE_SIDE_METERS = 1000.0


def _requests_per_kind(preset, requests):
    if requests is not None:
        if requests < 1:
            raise ConfigurationError(
                f"requests must be >= 1, got {requests}")
        return int(requests)
    return REQUESTS_BY_PRESET.get(preset.name, max(500, preset.runs * 75))


def _split_evenly(total, parts):
    base, remainder = divmod(total, parts)
    return [base + (1 if i < remainder else 0) for i in range(parts)]


def _build(preset, rng, options):
    root = as_rng(rng)
    # One deployment seed shared by every chunk and every static shape,
    # so all shapes are measured against the same hierarchy.
    topo_seed = int(root.integers(0, 2**63))
    tasks = []
    for kind in options["kinds"]:
        if kind not in WORKLOAD_KINDS:
            raise ConfigurationError(
                f"unknown workload kind {kind!r}; expected a subset of "
                f"{WORKLOAD_KINDS}")
        count = options["requests"]
        chunks = 1 if kind == "mobility" else min(options["chunks"], count)
        counts = _split_evenly(count, chunks)
        topology = options.get("topology")
        if topology is not None and kind == "mobility":
            raise ConfigurationError(
                "the mobility workload needs geometric motion; it cannot "
                "run with --topology (drop the mobility kind or the "
                "topology override)")
        params = {
            "nodes": preset.mobility_nodes,
            "radius": options["radius"],
            "windows": options["mobility_windows"],
            "dynamics": check_dynamics(options.get("dynamics", "delta")),
            "metric": check_metric(options.get("metric", "density")),
            "topology": topology,
        }
        for chunk_rng, chunk_count in zip(spawn_rngs(root, chunks), counts):
            tasks.append((kind, params, topo_seed, chunk_count, chunk_rng))
    return tasks


# One hierarchy per (nodes, radius, seed), memoized per worker process:
# every chunk of every static shape shares the same deployment, so the
# build cost amortizes to once per worker instead of once per chunk.
_HIERARCHY_CACHE = {}


def _hierarchy_for(nodes, radius, topo_seed, spec=None):
    key = (nodes, radius, topo_seed, str(spec) if spec is not None else None)
    cached = _HIERARCHY_CACHE.get(key)
    if cached is None:
        build_rng = np.random.default_rng(topo_seed)
        if spec is not None:
            topology = build_topology_spec(spec, rng=build_rng)
        else:
            topology = uniform_topology(nodes, radius, rng=build_rng)
        hierarchy = build_hierarchy(topology, rng=build_rng)
        if len(_HIERARCHY_CACHE) >= 4:
            _HIERARCHY_CACHE.pop(next(iter(_HIERARCHY_CACHE)))
        cached = _HIERARCHY_CACHE[key] = (topology, hierarchy)
    return cached


def _make_collectors(hierarchy):
    return CollectorProxy([
        LatencyCollector(),
        LinkLoadCollector(),
        HeadLoadCollector(hierarchy.physical.clustering.heads),
        StretchCollector(),
        RouterStatsCollector(),
    ])


def _requests_for(kind, nodes, count, rng):
    if kind == "uniform":
        return poisson_requests(nodes, count, rng=rng)
    if kind == "zipf":
        return poisson_requests(nodes, count, rng=rng,
                                popularity=ZipfPopularity(nodes, ZIPF_ALPHA))
    if kind == "zipf-hot":
        return poisson_requests(
            nodes, count, rng=rng,
            popularity=ZipfPopularity(nodes, ZIPF_HOT_ALPHA))
    if kind == "ycsb":
        return ycsb_requests(nodes, count, rng=rng,
                             read_fraction=YCSB_READ_FRACTION,
                             alpha=ZIPF_ALPHA)
    raise ConfigurationError(f"unknown workload kind {kind!r}")


def _flat_every(count):
    return max(1, count // FLAT_SAMPLES_PER_CHUNK)


def _run_one(task):
    """Serve one request chunk; returns its mergeable collector proxy."""
    kind, params, topo_seed, count, chunk_rng = task
    if kind == "mobility":
        return _run_mobility(params, count, chunk_rng)
    _topology, hierarchy = _hierarchy_for(params["nodes"], params["radius"],
                                          topo_seed,
                                          spec=params.get("topology"))
    nodes = sorted(hierarchy.physical.topology.graph.nodes)
    proxy = _make_collectors(hierarchy)
    requests = _requests_for(kind, nodes, count, chunk_rng)
    return serve_workload(hierarchy, requests, proxy,
                          flat_every=_flat_every(count))


def _run_mobility(params, count, chunk_rng):
    """Serve Zipf traffic over delta-maintained mobility windows.

    One task (not chunked): the per-window topology is maintained
    incrementally across the whole trace, which is inherently
    sequential.  Each window rebuilds the hierarchy and router on the
    current snapshot and serves its share of the request budget; the
    per-window proxies merge into one, exercising the same merge path
    the chunked shapes use.

    With ``dynamics="delta"`` (the default) the level-0 clustering is
    maintained by the incremental density engine from the exact edge
    delta stream; the level-0 DAG names are drawn here -- under the
    same edge-count condition, in the same order -- so the RNG stream
    matches a full :func:`build_hierarchy` call draw for draw, and the
    served windows are bit-identical to ``dynamics="rebuild"``.

    ``params["metric"]`` selects which clustering maintains the
    physical level: ``density`` (the paper metric, the path above) or
    one of the baseline engines (``degree`` / ``lowest_id`` /
    ``maxmin``), maintained incrementally via ``apply_delta`` on the
    same exact delta stream -- so traffic can be served over every
    clustering family the repo implements, under identical mobility.
    """
    windows = params["windows"]
    dynamics = params.get("dynamics", "delta")
    metric = params.get("metric", "density")
    low, high = MOBILITY_SPEED_RANGE_MPS
    speed_range = (low / SQUARE_SIDE_METERS, high / SQUARE_SIDE_METERS)
    model = RandomDirectionModel(params["nodes"], speed_range, rng=chunk_rng)
    counts = _split_evenly(count, windows)

    def snapshots():
        for _ in range(windows):
            yield model.positions.copy()
            model.advance(MOBILITY_WINDOW_SECONDS)

    def hierarchies():
        if dynamics == "rebuild":
            for positions in snapshots():
                topology = topology_at(positions, params["radius"])
                if metric == "density":
                    yield build_hierarchy(topology, rng=chunk_rng)
                else:
                    scratch = METRIC_SCRATCH[WORKLOAD_METRICS[metric]]
                    yield build_hierarchy(
                        topology, rng=chunk_rng,
                        physical_clustering=scratch(topology))
            return
        if metric != "density":
            engine = METRIC_ENGINES[WORKLOAD_METRICS[metric]]()
            for update in window_stream(snapshots(), params["radius"],
                                        track_densities=False):
                yield build_hierarchy(
                    update.topology, rng=chunk_rng,
                    physical_clustering=engine.apply_delta(update))
            return
        engine = engine_for("density")
        for update in window_stream(snapshots(), params["radius"]):
            topology = update.topology
            dag_ids = None
            if topology.graph.edge_count() > 0:
                dag_ids, _rounds = assign_dag_ids(topology, chunk_rng)
            clustering = engine.update(
                topology.graph, update.densities, tie_ids=topology.ids,
                dag_ids=dag_ids, density_changed=update.density_changed,
                graph_changed=bool(update.delta), dag_changed=True)
            yield build_hierarchy(topology, rng=chunk_rng,
                                  physical_clustering=clustering)

    total = None
    for window_count, hierarchy in zip(counts, hierarchies()):
        topology = hierarchy.physical.topology
        nodes = sorted(topology.graph.nodes)
        proxy = _make_collectors(hierarchy)
        requests = poisson_requests(
            nodes, window_count, rng=chunk_rng,
            popularity=ZipfPopularity(nodes, ZIPF_ALPHA))
        serve_workload(hierarchy, requests, proxy,
                       flat_every=_flat_every(window_count))
        total = proxy if total is None else total.merge(proxy)
    return total


@dataclass
class WorkloadReport:
    """The three serving tables plus the raw per-shape collector results."""

    latency: Table
    links: Table
    heads: Table
    results: dict  # kind -> {collector name -> results dict}

    def __str__(self):
        return "\n\n".join(str(table)
                           for table in (self.latency, self.links, self.heads))


def _reduce(preset, tasks, results, options):
    merged = {}
    for task, proxy in zip(tasks, results):
        kind = task[0]
        if kind in merged:
            merged[kind].merge(proxy)
        else:
            merged[kind] = proxy
    kinds = [kind for kind in options["kinds"] if kind in merged]
    raw = {kind: merged[kind].results() for kind in kinds}
    scale = (f"{options['requests']} requests/shape, "
             f"{preset.mobility_nodes} nodes, R={options['radius']}")
    latency = Table(
        title=f"Serving latency & stretch ({scale}; latency in hops)",
        headers=["workload", "requests", "unroutable", "p50", "p99",
                 "mean", "mean stretch", "p99 stretch", "flat hit%"])
    links = Table(
        title=f"Link load ({scale})",
        headers=["workload", "links used", "traversals", "mean", "p99",
                 "max"])
    heads = Table(
        title=f"Cluster-head load ({scale}; max/mean = hot-spot factor)",
        headers=["workload", "heads", "handled", "mean", "max", "max/mean",
                 "jain"])
    for kind in kinds:
        lat = raw[kind]["latency"]
        stretch = raw[kind]["stretch"]
        link = raw[kind]["link_load"]
        head = raw[kind]["head_load"]
        router = raw[kind]["router"]
        latency.add_row([kind, lat["requests"], lat["unroutable"],
                         lat["p50"], lat["p99"], lat["mean"],
                         stretch["mean"], stretch["p99"],
                         router["flat_hit_ratio"]])
        links.add_row([kind, link["links_used"], link["traversals"],
                       link["mean"], link["p99"], link["max"]])
        heads.add_row([kind, head["heads"], head["handled"], head["mean"],
                       head["max"], head["imbalance"], head["jain"]])
    return WorkloadReport(latency=latency, links=links, heads=heads,
                          results=raw)


WORKLOAD_SPEC = ExperimentSpec(name="workload", build=_build, run=_run_one,
                               reduce=_reduce)


def run_workload(preset="quick", rng=None, jobs=1, kinds=None, radius=0.1,
                 requests=None, chunks=CHUNKS,
                 mobility_windows=MOBILITY_WINDOWS, dynamics="delta",
                 metric="density", topology=None):
    """Serve every workload shape; returns a :class:`WorkloadReport`.

    ``requests`` overrides the per-shape request budget (default by
    preset: quick = 20k/shape = 10^5 total).  ``dynamics`` selects how
    the mobility shape maintains its per-window clustering (engine
    deltas vs scratch rebuilds; identical output).  ``metric`` selects
    the clustering the mobility shape maintains (``density`` or one of
    the baseline engines -- ``degree``, ``lowest_id``, ``maxmin``).
    ``topology`` (a generator spec) replaces the static deployment; the
    mobility shape then drops out of the default kinds (motion needs
    geometry) and requesting it explicitly is an error.  Output is
    identical for every backend and worker count.
    """
    preset = get_preset(preset)
    if topology is not None:
        topology = resolve_topology_spec(
            topology, count=preset.mobility_nodes, radius=radius)
        if kinds is None:
            kinds = tuple(kind for kind in WORKLOAD_KINDS
                          if kind != "mobility")
    kinds = tuple(kinds) if kinds is not None else WORKLOAD_KINDS
    return run_experiment(
        WORKLOAD_SPEC, preset, rng=rng, jobs=jobs, kinds=kinds,
        radius=radius, requests=_requests_per_kind(preset, requests),
        chunks=chunks, mobility_windows=mobility_windows, dynamics=dynamics,
        metric=check_metric(metric), topology=topology)
