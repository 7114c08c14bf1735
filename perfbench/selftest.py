"""Show, at reduced size, that the benchmark runs the program's own pipeline.

    python3 perfbench/selftest.py

Run from the repository root.  Each check composes a workload's
pipeline from the layer calls the benchmark times and compares it with
the program's own entry point on the same seed:

* a Table 4 deployment equals the Table 4 experiment's per-run path;
* level 0 built from the layers, passed through ``build_hierarchy(...,
  physical_clustering=)``, equals ``build_hierarchy(topology, rng)``
  level for level, and so does the benchmark's own level assembly;
* the ``route_batch`` + ``process_batch`` loop leaves the collectors in
  the state ``serve_workload`` leaves them in;
* the mobile window loop serves exactly what the ``workload``
  experiment's mobility shape serves.

Exits non-zero when any check fails.
"""

import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from repro.experiments.common import build_topology, clustered  # noqa: E402
from repro.experiments.common import get_preset  # noqa: E402
from repro.experiments.workload import run_workload  # noqa: E402
from repro.graph.generators import uniform_topology  # noqa: E402
from repro.hierarchy.hierarchy import build_hierarchy  # noqa: E402
from repro.metrics.clusters import cluster_stats  # noqa: E402
from repro.util.rng import as_rng, spawn_rngs  # noqa: E402
from repro.workload.serve import serve_workload  # noqa: E402
from spans import Trace  # noqa: E402

SEED = 7
NODES = 1500
RADIUS = math.sqrt(10.0 / (math.pi * NODES))
REQUESTS = 6000
WINDOWS = 4
WINDOW_REQUESTS = 300


def signature(hierarchy):
    """Everything a level holds, in a comparable form."""
    return [(
        level.index,
        sorted(level.clustering.parents.items()),
        sorted(tuple(sorted(edge)) for edge in level.topology.graph.edges),
        sorted(level.topology.ids.items()),
        None if level.overlay is None else sorted(
            (tuple(sorted(key)), gateway)
            for key, gateway in level.overlay.gateways.items()),
    ) for level in hierarchy.levels]


def same(a, b):
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def check_montecarlo():
    for radius, use_dag in workloads.TABLE4_CELLS:
        seed = int(as_rng(SEED).integers(0, 2**63))
        _topology, _clustering, stats, _built = workloads.deployment(
            Trace(False), radius, use_dag, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        topology = build_topology("random", workloads.INTENSITY, radius, rng)
        clustering, _ = clustered(topology, rng=rng, use_dag=use_dag)
        if stats != cluster_stats(clustering):
            return f"Table 4 deployment differs at R={radius}"
    return None


def _after_positions():
    """An RNG in the state ``uniform_topology`` leaves its own in."""
    rng = np.random.default_rng(SEED)
    rng.uniform(0.0, 1.0, size=(NODES, 2))
    return rng


def check_hierarchy():
    rng = np.random.default_rng(SEED)
    program = build_hierarchy(uniform_topology(NODES, RADIUS, rng=rng),
                              rng=rng)
    positions = np.random.default_rng(SEED).uniform(0.0, 1.0,
                                                    size=(NODES, 2))
    trace = Trace(False)
    rng = _after_positions()
    level0 = workloads.deploy_level0(trace, positions, RADIUS, rng)
    passed = build_hierarchy(level0[0], rng=rng,
                             physical_clustering=level0[1])
    rng = _after_positions()
    topology, clustering = workloads.deploy_level0(trace, positions, RADIUS,
                                                   rng)
    assembled = workloads.levels_above(trace, topology, clustering, rng)
    if signature(passed) != signature(program):
        return "build_hierarchy(physical_clustering=) differs"
    if signature(assembled) != signature(program):
        return "the benchmark's level assembly differs"
    return None


def check_serving():
    rng = _after_positions()
    topology, clustering = workloads.deploy_level0(
        Trace(False), np.random.default_rng(SEED).uniform(
            0.0, 1.0, size=(NODES, 2)), RADIUS, rng)
    hierarchy = workloads.levels_above(Trace(False), topology, clustering,
                                       rng)
    requests = workloads.serve_requests(hierarchy, rng, count=REQUESTS)
    flat_every = max(1, REQUESTS // workloads.FLAT_SAMPLES)
    program = serve_workload(hierarchy, requests,
                             workloads.make_collectors(hierarchy),
                             flat_every=flat_every)
    router = workloads.CachedRouter(hierarchy)
    proxy = workloads.make_collectors(hierarchy)
    for _op, _served in workloads.serve_batches(
            Trace(False), router, proxy, requests, flat_every):
        pass
    stats = router.flat_cache_stats()
    proxy["router"].absorb(stats["hits"], stats["misses"])
    if not same(proxy.results(), program.results()):
        return "route_batch + process_batch differs from serve_workload"
    return None


def check_mobile():
    preset = get_preset("smoke", mobility_nodes=NODES)
    program = run_workload(
        preset, rng=SEED, kinds=("mobility",), radius=RADIUS,
        requests=WINDOWS * WINDOW_REQUESTS, mobility_windows=WINDOWS)
    # The experiment draws one deployment seed, then spawns the chunk RNG.
    root = as_rng(SEED)
    root.integers(0, 2**63)
    chunk_rng = spawn_rngs(root, 1)[0]
    windows = workloads.mobile_windows(
        Trace(False), chunk_rng, nodes=NODES, radius=RADIUS,
        requests=WINDOW_REQUESTS,
        flat_every=max(1, WINDOW_REQUESTS // workloads.FLAT_SAMPLES))
    total = None
    for _ in range(WINDOWS):
        proxy = next(windows)[4]
        total = proxy if total is None else total.merge(proxy)
    windows.close()
    if not same(total.results(), program.results["mobility"]):
        return "mobile window loop differs from the workload experiment"
    return None


def main():
    failures = 0
    for check in (check_montecarlo, check_hierarchy, check_serving,
                  check_mobile):
        problem = check()
        print(f"{check.__name__}: {'ok' if problem is None else problem}")
        failures += problem is not None
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
