"""CI benchmark gate: completeness, speedup floors, and regressions.

Usage::

    python benchmarks/regression_gate.py BENCH_baseline.json BENCH_ci.json \
        [--threshold 0.25]

Four checks, all loud:

1. **Completeness** -- the fresh artifact must contain every required
   hot-path bench (an empty or silently truncated artifact fails).
2. **Speedup floors** -- structural ratios inside the fresh artifact
   (e.g. the 5000-node mobility delta path vs the rebuild reference)
   must hold regardless of machine speed.
3. **Regression gate** -- every required bench is compared against the
   committed baseline, *normalized by the calibration bench* recorded in
   both artifacts so a slower CI machine does not read as a code
   regression.  Any hot path more than ``--threshold`` (default 25%)
   slower than baseline fails the gate.
4. **Serving keys** -- every workload bench must carry the
   ``requests_per_sec`` and ``p99_latency_hops`` ``extra_info`` keys;
   throughput is gated calibration-normalized, p99 latency raw.  A
   missing key fails as loudly as a regressed one.
5. **Scale keys** -- the streaming-construction and 100k-window benches
   must carry ``nodes_per_sec_built`` / ``windows_per_sec_100k``, gated
   calibration-normalized like the serving throughput.

A sorted delta table is printed on every run so the bench trajectory is
visible in the CI log even when everything passes.
"""

import argparse
import json
import sys

CALIBRATION = "test_bench_machine_calibration"

# Hot paths every artifact must contain; these also feed the gate.
REQUIRED = [
    "test_bench_bulk_construction[5000]",
    "test_bench_all_densities_cold[5000]",
    "test_bench_dict_loop_construction_5000_reference",
    "test_bench_all_densities_dict_loop_5000_reference",
    "test_bench_bfs_distances[5000]",
    "test_bench_batched_head_eccentricity[5000]",
    "test_bench_connected_components[5000]",
    "test_bench_bfs_dict_loop_5000_reference",
    "test_bench_head_eccentricity_subgraph_5000_reference",
    "test_bench_components_dict_loop_5000_reference",
    "test_bench_assign_dag_ids[5000]",
    "test_bench_assign_dag_ids_5000_reference",
    "test_bench_mobility_windows_delta[1000]",
    "test_bench_mobility_windows_delta[5000]",
    "test_bench_mobility_windows_rebuild[1000]",
    "test_bench_mobility_windows_rebuild[5000]",
    "test_bench_sparse_movers_delta[1000]",
    "test_bench_sparse_movers_delta[5000]",
    "test_bench_sparse_movers_rebuild[1000]",
    "test_bench_sparse_movers_rebuild[5000]",
    "test_bench_baseline_windows_delta[1000-degree]",
    "test_bench_baseline_windows_delta[1000-lowest-id]",
    "test_bench_baseline_windows_delta[1000-max-min]",
    "test_bench_baseline_windows_delta[5000-degree]",
    "test_bench_baseline_windows_delta[5000-lowest-id]",
    "test_bench_baseline_windows_delta[5000-max-min]",
    "test_bench_baseline_windows_rebuild[1000-degree]",
    "test_bench_baseline_windows_rebuild[1000-lowest-id]",
    "test_bench_baseline_windows_rebuild[1000-max-min]",
    "test_bench_baseline_windows_rebuild[5000-degree]",
    "test_bench_baseline_windows_rebuild[5000-lowest-id]",
    "test_bench_baseline_windows_rebuild[5000-max-min]",
    "test_bench_workload_serve[1000-uniform]",
    "test_bench_workload_serve[1000-zipf]",
    "test_bench_workload_serve[5000-uniform]",
    "test_bench_workload_serve[5000-zipf]",
    "test_bench_workload_serve_floor[batch]",
    "test_bench_workload_serve_floor[request]",
    "test_bench_streaming_build[100000]",
    "test_bench_streaming_build[1000000]",
    "test_bench_model_build_100k[erdos_renyi]",
    "test_bench_model_build_100k[scale_free]",
    "test_bench_clustering_window_100k",
    "test_bench_route_batch_1m",
    "test_bench_route_stretch_1m",
    "test_bench_table4",
    "test_bench_table5",
    CALIBRATION,
]

# Serving benches must also carry these ``extra_info`` keys; both are
# gated against baseline.  ``requests_per_sec`` is throughput, so it is
# calibration-normalized before comparison; ``p99_latency_hops`` is a
# deterministic function of the seeded workload, so it is compared raw
# (any drift is a routing/serving change, never machine noise).
WORKLOAD_BENCHES = [name for name in REQUIRED
                    if name.startswith("test_bench_workload_serve")]
WORKLOAD_KEYS = ("requests_per_sec", "p99_latency_hops")

# The batched serving path must beat the per-request reference loop it
# replaced by this factor on the 5000-node Zipf floor pair (both
# benches serve the identical 20k-request stream through a fresh
# router to identical collector states; the ratio is pure batching).
BATCHED_SERVE_FLOOR = 3.0

# Scale benches must carry a throughput ``extra_info`` key; like the
# serving throughput it is calibration-normalized before the gate.
# The baseline-engine benches report ``windows_per_sec`` the same way.
SCALE_BENCHES = {
    "test_bench_streaming_build[100000]": "nodes_per_sec_built",
    "test_bench_streaming_build[1000000]": "nodes_per_sec_built",
    "test_bench_model_build_100k[erdos_renyi]": "nodes_per_sec_built",
    "test_bench_model_build_100k[scale_free]": "nodes_per_sec_built",
    "test_bench_clustering_window_100k": "windows_per_sec_100k",
    "test_bench_route_batch_1m": "route_hops_per_sec_1m",
    "test_bench_route_stretch_1m": "stretch_samples_per_sec_1m",
}
SCALE_BENCHES.update(
    {name: "windows_per_sec" for name in REQUIRED
     if name.startswith("test_bench_baseline_windows_")})

# (slow bench, fast bench, floor, description): slow/fast must stay >= floor.
SPEEDUP_FLOORS = [
    ("test_bench_mobility_windows_rebuild[5000]",
     "test_bench_mobility_windows_delta[5000]",
     3.0, "5000-node mobility window delta speedup"),
    ("test_bench_baseline_windows_rebuild[5000-lowest-id]",
     "test_bench_baseline_windows_delta[5000-lowest-id]",
     3.0, "5000-node lowest-ID engine per-window speedup"),
    ("test_bench_baseline_windows_rebuild[5000-degree]",
     "test_bench_baseline_windows_delta[5000-degree]",
     3.0, "5000-node degree engine per-window speedup"),
    ("test_bench_workload_serve_floor[request]",
     "test_bench_workload_serve_floor[batch]",
     BATCHED_SERVE_FLOOR, "5000-node Zipf batched serving speedup"),
    ("test_bench_assign_dag_ids_5000_reference",
     "test_bench_assign_dag_ids[5000]",
     10.0, "5000-node array DAG naming speedup"),
    ("test_bench_all_densities_dict_loop_5000_reference",
     "test_bench_all_densities_cold[5000]",
     10.0, "5000-node CSR exact densities speedup"),
]


def load_means(path):
    """``benchmark-json`` artifact -> ``{bench name: mean seconds}``."""
    with open(path) as handle:
        payload = json.load(handle)
    return {bench["name"]: bench["stats"]["mean"]
            for bench in payload.get("benchmarks", [])}


def load_extra(path):
    """``benchmark-json`` artifact -> ``{bench name: extra_info dict}``."""
    with open(path) as handle:
        payload = json.load(handle)
    return {bench["name"]: bench.get("extra_info", {})
            for bench in payload.get("benchmarks", [])}


def calibration_scale(baseline, current):
    """Current/baseline machine-speed ratio, 1.0 when uncalibratable."""
    if CALIBRATION in baseline and CALIBRATION in current:
        return current[CALIBRATION] / baseline[CALIBRATION]
    return 1.0


def check_completeness(means):
    """Error strings for an empty or hot-path-incomplete artifact."""
    if not means:
        return ["artifact contains no benchmarks"]
    missing = [name for name in REQUIRED if name not in means]
    if missing:
        return [f"artifact is missing hot paths: {missing}"]
    return []


def check_floors(means):
    errors = []
    for slow, fast, floor, description in SPEEDUP_FLOORS:
        if slow not in means or fast not in means:
            continue  # completeness already reported it
        ratio = means[slow] / means[fast]
        print(f"{description}: {ratio:.2f}x (floor {floor:.1f}x)")
        if ratio < floor:
            errors.append(f"{description} regressed: "
                          f"{ratio:.2f}x < {floor:.1f}x floor")
    return errors


def check_workload(baseline_extra, current_extra, scale, threshold):
    """Gate the serving ``extra_info`` keys; error strings when absent
    or regressed beyond ``threshold``.

    ``scale`` is the calibration ratio (current/baseline machine time;
    > 1 = slower CI machine), applied to the throughput expectation
    only -- the p99 latency is hop counts, machine-independent.
    """
    errors = []
    for name in WORKLOAD_BENCHES:
        base = baseline_extra.get(name, {})
        now = current_extra.get(name, {})
        missing = [key for key in WORKLOAD_KEYS if key not in now]
        if missing:
            errors.append(f"{name} is missing extra_info keys {missing} "
                          "in the fresh artifact")
            continue
        stale = [key for key in WORKLOAD_KEYS if key not in base]
        if stale:
            errors.append(f"{name} is missing extra_info keys {stale} "
                          "in the baseline; regenerate BENCH_baseline.json")
            continue
        expected_rps = base["requests_per_sec"] / scale
        rps = now["requests_per_sec"]
        print(f"{name} requests/sec: {rps:,.0f} "
              f"(expected >= {expected_rps * (1 - threshold):,.0f})")
        if rps < expected_rps * (1.0 - threshold):
            errors.append(
                f"{name} throughput regressed: {rps:,.0f} requests/sec "
                f"< {1 - threshold:.0%} of the calibrated "
                f"{expected_rps:,.0f} baseline")
        base_p99, p99 = base["p99_latency_hops"], now["p99_latency_hops"]
        print(f"{name} p99 latency: {p99:g} hops (baseline {base_p99:g})")
        if p99 > base_p99 * (1.0 + threshold):
            errors.append(
                f"{name} p99 latency regressed: {p99:g} hops "
                f"> {1 + threshold:.0%} of the {base_p99:g}-hop baseline")
    return errors


def check_scale(baseline_extra, current_extra, scale, threshold):
    """Gate the scale throughput keys; error strings when absent or
    regressed beyond ``threshold`` (calibration-normalized)."""
    errors = []
    for name, key in SCALE_BENCHES.items():
        now = current_extra.get(name, {})
        if key not in now:
            errors.append(f"{name} is missing extra_info key {key!r} "
                          "in the fresh artifact")
            continue
        base = baseline_extra.get(name, {})
        if key not in base:
            errors.append(f"{name} is missing extra_info key {key!r} "
                          "in the baseline; regenerate BENCH_baseline.json")
            continue
        expected = base[key] / scale
        rate = now[key]
        print(f"{name} {key}: {rate:,.1f} "
              f"(expected >= {expected * (1 - threshold):,.1f})")
        if rate < expected * (1.0 - threshold):
            errors.append(
                f"{name} {key} regressed: {rate:,.1f} "
                f"< {1 - threshold:.0%} of the calibrated "
                f"{expected:,.1f} baseline")
    return errors


def compare(baseline, current, threshold):
    """Print the sorted delta table; return error strings over threshold.

    Deltas are computed on calibration-normalized means when both
    artifacts carry the calibration bench (positive = slower than
    baseline).
    """
    scale = calibration_scale(baseline, current)
    if CALIBRATION in baseline and CALIBRATION in current:
        print(f"calibration scale (current/baseline machine speed): "
              f"{scale:.3f}")
    else:
        print("calibration bench absent from one artifact; "
              "comparing raw means")
    stale = [name for name in REQUIRED if name not in baseline]
    if stale:
        # A truncated/stale baseline must not make the gate vacuous.
        return [f"baseline artifact is missing hot paths: {stale}; "
                "regenerate BENCH_baseline.json"]
    rows = []
    for name in REQUIRED:
        if name == CALIBRATION or name not in current:
            continue
        delta = current[name] / (baseline[name] * scale) - 1.0
        rows.append((delta, name))
    rows.sort(reverse=True)
    width = max((len(name) for _, name in rows), default=10)
    print(f"{'bench'.ljust(width)}  {'delta':>8}  {'base ms':>10}  "
          f"{'now ms':>10}")
    errors = []
    for delta, name in rows:
        flag = " <-- REGRESSION" if delta > threshold else ""
        print(f"{name.ljust(width)}  {delta:+7.1%}  "
              f"{baseline[name] * 1e3:10.2f}  {current[name] * 1e3:10.2f}"
              f"{flag}")
        if delta > threshold:
            errors.append(f"{name} regressed {delta:+.1%} "
                          f"(> {threshold:.0%} threshold)")
    return errors


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed BENCH_baseline.json")
    parser.add_argument("current", help="freshly produced benchmark json")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="maximum tolerated normalized slowdown "
                             "(default 0.25 = 25%%)")
    args = parser.parse_args(argv)
    baseline = load_means(args.baseline)
    current = load_means(args.current)
    errors = check_completeness(current)
    if not errors:
        errors += check_floors(current)
        errors += compare(baseline, current, args.threshold)
        baseline_extra = load_extra(args.baseline)
        current_extra = load_extra(args.current)
        scale = calibration_scale(baseline, current)
        errors += check_workload(baseline_extra, current_extra, scale,
                                 args.threshold)
        errors += check_scale(baseline_extra, current_extra, scale,
                              args.threshold)
    if errors:
        for error in errors:
            print(f"FAIL: {error}", file=sys.stderr)
        return 1
    print(f"benchmark gate OK: {len(current)} benches, "
          f"{len(REQUIRED)} hot paths within {args.threshold:.0%} "
          "of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
