"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper-montecarlo --seed 1 \\
        --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.
Workloads (``workloads.py``) are ``paper-montecarlo``, ``deploy-serve``
and ``mobile-reconverge``; ``selftest.py`` shows they run the program's
own pipeline.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``, the
same five on every workload:

* ``setup_s`` -- process start to the end of input generation: import
  time plus the median of repeated input generation;
* ``peak_rss_mb`` -- peak resident memory;
* ``ops_per_s`` -- deployments, requests served or windows per second
  of timed operation;
* ``op_p50_ms`` -- median time of one deployment, request batch or
  window;
* ``build_p50_ms`` -- median time from positions to the clustered
  structure: a deployment up to its clustering, a deploy up to its
  routable hierarchy, a window up to its reconverged hierarchy.

Operation and input generation times are scaled to the reference
machine speed (``calibrate.py``); import time is not, because it does
not follow the reference job.  The human-readable lines also give each
raw value, the sample count behind each percentile, the workload's own
metric names (``deployment_p90_ms``, ``deploy_s``, ``serve_req_per_s``,
``reconverge_p90_ms``, ...) and ``error_ratio``.

``--trace 1`` records a span around every layer call, reports the
per-layer metrics and writes every span to
``.perfbench/trace-<workload>-<seed>.json``.  Busy times there are raw;
counts (``naming.rounds``, ``clustering.clusters``, ``hierarchy.depth``,
``graph.dynamic.delta_edges``) are means per layer call;
``workload.serve.group_ratio`` is distinct (source head, destination
head) pairs per ``route_batch`` call over requests; a layer the
workload bypasses reads 0.

The last line is the JSON result.  The exit code is non-zero when an
output check, the digest (checked for the seed in ``digests.json``) or
the thread limit (``nproc``) fails; an operation that raises ends the
run with a traceback and no result.
"""

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
DIGESTS = os.path.join(HERE, "digests.json")

# Keeps the untraced/traced prefix pair of a traced run short.
PREFIX_OPTIONS = {"deploy-serve": {"deploys": 1}}

# Layers whose busy time every traced run reports, bypassed or not.
LAYERS = (
    "graph", "graph.dynamic", "clustering.density", "naming", "clustering",
    "clustering.incremental", "hierarchy.overlay", "hierarchy.levels",
    "workload.generators", "workload.serve", "collectors", "metrics",
    "mobility",
)


def process_age():
    """Seconds since this process started (kernel clock-tick resolution)."""
    with open("/proc/self/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def thread_count():
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def git_sha():
    """The checked-out commit, read from ``.git`` when there is one."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values, q):
    """Linear-interpolated percentile of a non-empty list."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def end_to_end(workload, outcome, import_s, calibration=None):
    """``{name: (value, unit, samples)}`` -- the gated metrics first,
    then the workload's own names for the same measurements.  With a
    ``calibration``, each operation and input generation time is
    divided by the speed factor measured around it; without, times are
    raw.  Import time stays raw either way: it does not follow the
    reference job."""
    def scaled(start, end, seconds):
        if calibration is None:
            return seconds
        return seconds / calibration.factor(start, end)

    samples = {name: [scaled(*sample) for sample in values]
               for name, values in outcome.samples.items()}
    setup_s = import_s + sum(scaled(*part) for part in outcome.setup)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {"setup_s": (setup_s, "s", None),
               "peak_rss_mb": (peak_rss_mb, "MB", None)}
    if workload == "paper-montecarlo":
        ops = samples["deployment"]
        builds = samples["build"]
        metrics.update(
            ops_per_s=(len(ops) / sum(ops), "1/s", len(ops)),
            op_p50_ms=(1e3 * percentile(ops, 50), "ms", len(ops)),
            build_p50_ms=(1e3 * percentile(builds, 50), "ms", len(builds)),
            deployments_per_s=(len(ops) / sum(ops), "1/s", len(ops)),
            deployment_p50_ms=(1e3 * percentile(ops, 50), "ms", len(ops)),
            deployment_p90_ms=(1e3 * percentile(ops, 90), "ms", len(ops)))
    elif workload == "deploy-serve":
        ops = samples["batch"]
        deploys = samples["deploy"]
        rate = outcome.requests / sum(ops)
        metrics.update(
            ops_per_s=(rate, "1/s", len(ops)),
            op_p50_ms=(1e3 * percentile(ops, 50), "ms", len(ops)),
            build_p50_ms=(1e3 * percentile(deploys, 50), "ms", len(deploys)),
            deploy_s=(percentile(deploys, 50), "s", len(deploys)),
            serve_req_per_s=(rate, "1/s", len(ops)))
    else:
        ops = samples["window"]
        builds = samples["reconverge"]
        metrics.update(
            ops_per_s=(len(ops) / sum(ops), "1/s", len(ops)),
            op_p50_ms=(1e3 * percentile(ops, 50), "ms", len(ops)),
            build_p50_ms=(1e3 * percentile(builds, 50), "ms", len(builds)),
            windows_per_s=(len(ops) / sum(ops), "1/s", len(ops)),
            reconverge_p50_ms=(1e3 * percentile(builds, 50), "ms",
                               len(builds)),
            reconverge_p90_ms=(1e3 * percentile(builds, 90), "ms",
                               len(builds)))
    metrics["error_ratio"] = (ratio(outcome.failed, outcome.attempted),
                              "ratio", outcome.attempted)
    return metrics


def per_layer(trace, overhead_ratio):
    """``{name: (value, unit, None)}`` from the traced run's spans."""
    layers = trace.layers()
    row = {layer: layers.get(layer, {}) for layer in LAYERS}
    busy = {layer: row[layer].get("busy_s", 0.0) for layer in LAYERS}
    serve = row["workload.serve"]
    calls = {layer: row[layer].get("calls", 0) for layer in LAYERS}
    metrics = {f"{layer}.busy_s": (busy[layer], "s", None)
               for layer in LAYERS}
    rates = {
        "graph.edges_per_s": ("graph", "edges"),
        "clustering.density.nodes_per_s": ("clustering.density", "nodes"),
        "naming.nodes_per_s": ("naming", "nodes"),
        "clustering.nodes_per_s": ("clustering", "nodes"),
        "hierarchy.overlay.edges_per_s": ("hierarchy.overlay", "edges"),
        "workload.serve.hops_per_s": ("workload.serve", "hops"),
        "collectors.events_per_s": ("collectors", "events"),
    }
    for name, (layer, key) in rates.items():
        metrics[name] = (ratio(row[layer].get(key, 0.0), busy[layer]),
                         "1/s", None)
    means = {  # per call of the layer
        "graph.dynamic.delta_edges": ("graph.dynamic", "delta_edges"),
        "naming.rounds": ("naming", "rounds"),
        "clustering.clusters": ("clustering", "clusters"),
        "hierarchy.depth": ("hierarchy.levels", "depth"),
    }
    for name, (layer, key) in means.items():
        metrics[name] = (ratio(row[layer].get(key, 0.0), calls[layer]),
                         "count", None)
    lookups = serve.get("flat_hits", 0.0) + serve.get("flat_misses", 0.0)
    metrics.update({
        "workload.serve.group_ratio": (
            ratio(serve.get("groups", 0.0), serve.get("requests", 0.0)),
            "ratio", None),
        "workload.serve.flat_hit_ratio": (
            ratio(serve.get("flat_hits", 0.0), lookups), "ratio", None),
        "workload.serve.flat_misses": (serve.get("flat_misses", 0.0),
                                       "count", None),
        "trace.overhead_ratio": (overhead_ratio, "ratio", None),
        "trace.covered_ratio": (trace.covered_ratio(), "ratio", None),
    })
    return metrics


def gated(names_file):
    with open(names_file) as handle:
        spec = json.load(handle)
    return ([entry["name"] for entry in spec["end_to_end"]],
            [entry["name"] for entry in spec["per_layer"]])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import numpy

    from calibrate import Calibration
    from repro.graph import kernels
    from spans import Trace
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of "
                     f"{sorted(WORKLOADS)}")
    kernels.warm_up()
    import_s = process_age()
    calibration = Calibration()

    run = WORKLOADS[args.workload]
    trace = Trace(enabled=bool(args.trace), calibration=calibration)
    outcome = run(trace, args.seed, args.seconds)
    overhead = None
    if args.trace:
        # The workload's fixed prefix, untraced and traced in the order
        # U T T U: the ratio of their speed-scaled operation time.
        totals = {False: 0.0, True: 0.0}
        for enabled in (False, True, True, False):
            pair = Trace(enabled=enabled, calibration=Calibration())
            run(pair, args.seed, 0, **PREFIX_OPTIONS.get(args.workload, {}))
            totals[enabled] += sum(
                span.seconds / pair.calibration.factor(span.start, span.end)
                for span in pair.spans if span.is_op)
        overhead = ratio(totals[True], totals[False])

    with open(DIGESTS) as handle:
        expected = json.load(handle)
    digest_ok = (args.seed != expected["seed"]
                 or expected["digests"].get(args.workload) == outcome.digest)
    nproc = len(os.sched_getaffinity(0))
    threads = thread_count()
    env = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "nproc": nproc,
        "threads": threads, "python": sys.version.split()[0],
        "numpy": numpy.__version__, "kernels": kernels.backend_info(),
        "git_sha": git_sha(), "digest": outcome.digest,
        "digest_checked": args.seed == expected["seed"],
        "digest_ok": digest_ok,
        "calibration_samples": len(calibration.samples),
        "run_speed_factor": calibration.factor(0.0, time.perf_counter()),
    }
    e2e_names, layer_names = gated(os.path.join(ROOT, "BENCHMARK.json"))
    if args.trace:
        metrics = per_layer(trace, overhead)
        names = layer_names
        os.makedirs(OUT, exist_ok=True)
        trace.dump(os.path.join(
            OUT, f"trace-{args.workload}-{args.seed}.json"),
            {"env": env, "metrics": {k: v[0] for k, v in metrics.items()}})
    else:
        metrics = end_to_end(args.workload, outcome, import_s, calibration)
        raw = end_to_end(args.workload, outcome, import_s)
        names = e2e_names
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit, count) in metrics.items():
        suffix = "" if count is None else f"  (n={count})"
        if not args.trace:
            suffix += f"  raw {raw[name][0]:.6g}"
        print(f"metric {name} = {value:.6g} {unit}{suffix}")
    if args.trace:
        for layer, row in sorted(trace.layers().items()):
            print(f"layer {layer}: " + " ".join(
                f"{key}={value:.6g}" for key, value in sorted(row.items())))
    if not digest_ok:
        print(f"digest mismatch: {outcome.digest} != "
              f"{expected['digests'].get(args.workload)}")
    correct = outcome.failed == 0 and digest_ok and threads <= nproc
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name][0],
                           "unit": metrics[name][1]} for name in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
