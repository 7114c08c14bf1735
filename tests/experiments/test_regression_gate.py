"""The benchmark regression gate: completeness, floors, normalization."""

import importlib.util
import json
import os

import pytest

GATE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, os.pardir, "benchmarks",
                         "regression_gate.py")
spec = importlib.util.spec_from_file_location("regression_gate", GATE_PATH)
gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gate)


def artifact(tmp_path, name, means, extras=None):
    if extras is None:
        extras = full_extras()
    path = tmp_path / name
    payload = {"benchmarks": [{"name": bench, "stats": {"mean": mean},
                               "extra_info": extras.get(bench, {})}
                              for bench, mean in means.items()]}
    path.write_text(json.dumps(payload))
    return str(path)


def full_means(scale=1.0, **overrides):
    means = {name: 0.010 * scale for name in gate.REQUIRED}
    # Keep every structural floor satisfied by default (slow at twice
    # its floor, and at least 5x, over fast).
    for slow, _fast, floor, _description in gate.SPEEDUP_FLOORS:
        means[slow] = 0.010 * max(5.0, 2 * floor) * scale
    means.update(overrides)
    return means


def full_extras(scale=1.0):
    # p99 latency is hop counts -- machine speed never moves it.
    extras = {name: {"requests_per_sec": 50_000.0 / scale,
                     "p99_latency_hops": 30.0}
              for name in gate.WORKLOAD_BENCHES}
    # Scale throughput keys normalize like the serving throughput.
    for name, key in gate.SCALE_BENCHES.items():
        extras.setdefault(name, {})[key] = 40_000.0 / scale
    return extras


class TestCompleteness:
    def test_empty_artifact_fails(self, tmp_path):
        current = artifact(tmp_path, "current.json", {})
        baseline = artifact(tmp_path, "base.json", full_means())
        assert gate.main([baseline, current]) == 1

    def test_missing_hot_path_fails(self, tmp_path):
        means = full_means()
        means.pop("test_bench_bfs_distances[5000]")
        current = artifact(tmp_path, "current.json", means)
        baseline = artifact(tmp_path, "base.json", full_means())
        assert gate.main([baseline, current]) == 1


class TestFloorsAndRegressions:
    def test_identical_artifacts_pass(self, tmp_path, capsys):
        baseline = artifact(tmp_path, "base.json", full_means())
        current = artifact(tmp_path, "current.json", full_means())
        assert gate.main([baseline, current]) == 0
        out = capsys.readouterr().out
        assert "delta" in out  # the sorted table printed

    def test_speedup_floor_violation_fails(self, tmp_path):
        means = full_means()
        means["test_bench_mobility_windows_delta[5000]"] = \
            means["test_bench_mobility_windows_rebuild[5000]"]
        baseline = artifact(tmp_path, "base.json", full_means())
        current = artifact(tmp_path, "current.json", means)
        assert gate.main([baseline, current]) == 1

    def test_naming_floor_violation_fails(self, tmp_path, capsys):
        means = full_means()
        means["test_bench_assign_dag_ids_5000_reference"] = \
            9 * means["test_bench_assign_dag_ids[5000]"]
        baseline = artifact(tmp_path, "base.json", full_means())
        current = artifact(tmp_path, "current.json", means)
        assert gate.main([baseline, current]) == 1
        assert "DAG naming speedup regressed" in capsys.readouterr().err

    def test_regression_over_threshold_fails(self, tmp_path, capsys):
        baseline = artifact(tmp_path, "base.json", full_means())
        current = artifact(tmp_path, "current.json", full_means(
            **{"test_bench_bfs_distances[5000]": 0.010 * 1.5}))
        assert gate.main([baseline, current]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_slow_machine_is_not_a_regression(self, tmp_path):
        """A uniformly 2x-slower machine scales the calibration bench
        too, so normalized deltas stay flat and the gate passes."""
        baseline = artifact(tmp_path, "base.json", full_means())
        current = artifact(tmp_path, "current.json", full_means(scale=2.0))
        assert gate.main([baseline, current]) == 0

    def test_code_regression_on_slow_machine_still_fails(self, tmp_path):
        means = full_means(scale=2.0)
        means["test_bench_bfs_distances[5000]"] *= 1.4
        baseline = artifact(tmp_path, "base.json", full_means())
        current = artifact(tmp_path, "current.json", means)
        assert gate.main([baseline, current]) == 1

    def test_stale_baseline_is_not_vacuous(self, tmp_path, capsys):
        """Hot paths missing from the *baseline* fail the gate instead of
        being silently skipped."""
        base_means = full_means()
        base_means.pop("test_bench_bfs_distances[5000]")
        baseline = artifact(tmp_path, "base.json", base_means)
        current = artifact(tmp_path, "current.json", full_means())
        assert gate.main([baseline, current]) == 1
        assert "baseline artifact is missing" in capsys.readouterr().err

    def test_threshold_is_configurable(self, tmp_path):
        baseline = artifact(tmp_path, "base.json", full_means())
        current = artifact(tmp_path, "current.json", full_means(
            **{"test_bench_bfs_distances[5000]": 0.010 * 1.2}))
        assert gate.main([baseline, current]) == 0  # 20% < default 25%
        assert gate.main([baseline, current, "--threshold", "0.1"]) == 1


class TestWorkloadKeys:
    def test_missing_extra_info_fails(self, tmp_path, capsys):
        baseline = artifact(tmp_path, "base.json", full_means())
        current = artifact(tmp_path, "current.json", full_means(),
                           extras={})
        assert gate.main([baseline, current]) == 1
        assert "missing extra_info" in capsys.readouterr().err

    def test_stale_baseline_extras_fail(self, tmp_path, capsys):
        baseline = artifact(tmp_path, "base.json", full_means(), extras={})
        current = artifact(tmp_path, "current.json", full_means())
        assert gate.main([baseline, current]) == 1
        assert "regenerate BENCH_baseline.json" in capsys.readouterr().err

    def test_throughput_regression_fails(self, tmp_path, capsys):
        extras = full_extras()
        bench = gate.WORKLOAD_BENCHES[0]
        extras[bench] = dict(extras[bench], requests_per_sec=25_000.0)
        baseline = artifact(tmp_path, "base.json", full_means())
        current = artifact(tmp_path, "current.json", full_means(),
                           extras=extras)
        assert gate.main([baseline, current]) == 1
        assert "throughput regressed" in capsys.readouterr().err

    def test_slow_machine_throughput_is_normalized(self, tmp_path):
        """Half the requests/sec on a calibrated 2x-slower machine is
        expected, not a regression."""
        baseline = artifact(tmp_path, "base.json", full_means())
        current = artifact(tmp_path, "current.json", full_means(scale=2.0),
                           extras=full_extras(scale=2.0))
        assert gate.main([baseline, current]) == 0

    def test_p99_latency_regression_fails(self, tmp_path, capsys):
        extras = full_extras()
        bench = gate.WORKLOAD_BENCHES[-1]
        extras[bench] = dict(extras[bench], p99_latency_hops=45.0)
        baseline = artifact(tmp_path, "base.json", full_means())
        current = artifact(tmp_path, "current.json", full_means(),
                           extras=extras)
        assert gate.main([baseline, current]) == 1
        assert "p99 latency regressed" in capsys.readouterr().err

    def test_p99_latency_is_compared_raw(self, tmp_path):
        """Machine speed must never excuse a latency (hop-count) change."""
        extras = full_extras(scale=2.0)
        bench = gate.WORKLOAD_BENCHES[0]
        extras[bench] = dict(extras[bench], p99_latency_hops=45.0)
        baseline = artifact(tmp_path, "base.json", full_means())
        current = artifact(tmp_path, "current.json", full_means(scale=2.0),
                           extras=extras)
        assert gate.main([baseline, current]) == 1


class TestScaleKeys:
    def test_missing_scale_key_fails(self, tmp_path, capsys):
        extras = full_extras()
        bench = next(iter(gate.SCALE_BENCHES))
        extras[bench] = {}
        baseline = artifact(tmp_path, "base.json", full_means())
        current = artifact(tmp_path, "current.json", full_means(),
                           extras=extras)
        assert gate.main([baseline, current]) == 1
        assert "missing extra_info key" in capsys.readouterr().err

    def test_throughput_regression_fails(self, tmp_path, capsys):
        extras = full_extras()
        bench, key = next(iter(gate.SCALE_BENCHES.items()))
        extras[bench] = dict(extras[bench], **{key: 20_000.0})
        baseline = artifact(tmp_path, "base.json", full_means())
        current = artifact(tmp_path, "current.json", full_means(),
                           extras=extras)
        assert gate.main([baseline, current]) == 1
        assert "regressed" in capsys.readouterr().err

    def test_slow_machine_build_rate_is_normalized(self, tmp_path):
        baseline = artifact(tmp_path, "base.json", full_means())
        current = artifact(tmp_path, "current.json", full_means(scale=2.0),
                           extras=full_extras(scale=2.0))
        assert gate.main([baseline, current]) == 0


def test_load_means_reads_benchmark_json(tmp_path):
    path = artifact(tmp_path, "a.json", {"x": 0.5})
    assert gate.load_means(path) == {"x": pytest.approx(0.5)}


def test_load_extra_reads_benchmark_json(tmp_path):
    path = artifact(tmp_path, "a.json", {"x": 0.5},
                    extras={"x": {"requests_per_sec": 9.0}})
    assert gate.load_extra(path) == {"x": {"requests_per_sec": 9.0}}
