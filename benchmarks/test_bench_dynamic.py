"""Bench: delta-maintained mobility windows vs full per-window rebuilds.

Two workload shapes at 1000 and 5000 nodes:

* **100% movers** -- a recorded pedestrian trace (every node drifts every
  2-second window, ~5% of edges flip): the full window evaluation
  (topology + DAG repair + both election configurations) through the
  delta pipeline vs the scratch rebuild pipeline with the per-node
  election oracle of ``tests/oracles/election.py``.  The acceptance target
  rides the 5000-node pair: delta >= 3x faster per steady-state window.
* **1% movers** -- a sparse teleport workload (the churn-adjacent shape):
  topology + exact-density maintenance only, delta vs rebuild.

Every bench asserts the delta outputs equal the rebuild outputs before
reporting, so the ratio in ``BENCH_ci.json`` is only recorded for
bit-identical work.
"""

import numpy as np
import pytest

from repro.clustering.density import all_densities
from repro.experiments.mobility import (
    CONFIGURATIONS,
    SPEED_REGIMES,
    _DeltaTraceEvaluator,
    speed_range_in_sides,
)
from repro.graph.dynamic import DynamicTopology
from repro.metrics.stability import RetentionSeries
from repro.mobility.random_direction import RandomDirectionModel
from repro.mobility.trace import topology_at
from repro.util.rng import as_rng
from tests.oracles.election import RebuildTraceEvaluator

SCALES = (1000, 5000)
RADIUS = 0.05
WINDOWS = 6


@pytest.fixture(scope="module")
def traces():
    """Recorded pedestrian position frames per scale (model physics out
    of the measurement)."""
    frames = {}
    for count in SCALES:
        model = RandomDirectionModel(
            count, speed_range_in_sides(SPEED_REGIMES["pedestrian"]),
            rng=as_rng(2024))
        frames[count] = [model.positions.copy()]
        for _ in range(WINDOWS):
            model.advance(2.0)
            frames[count].append(model.positions.copy())
    return frames


def _evaluate(frames, evaluator):
    """Replay the run_mobility_trace window loop over recorded frames."""
    state = {name: {"previous": None, "series": RetentionSeries()}
             for name in CONFIGURATIONS}
    for positions in frames:
        for name, clustering in evaluator(positions, state):
            run_state = state[name]
            if run_state["previous"] is not None:
                run_state["series"].observe(run_state["previous"].heads,
                                            clustering.heads)
            run_state["previous"] = clustering
    return {name: run_state["series"].percent
            for name, run_state in state.items()}


def _steady_windows(frames, evaluator_cls, rng_seed=99):
    """Prime on the first frame, then evaluate the remaining windows."""
    evaluator = evaluator_cls(RADIUS, CONFIGURATIONS, as_rng(rng_seed))
    state = {name: {"previous": None, "series": RetentionSeries()}
             for name in CONFIGURATIONS}
    for name, clustering in evaluator(frames[0], state):
        state[name]["previous"] = clustering

    def run():
        return _evaluate(frames[1:], evaluator)

    return run


@pytest.mark.parametrize("count", SCALES)
def test_bench_mobility_windows_rebuild(benchmark, traces, count):
    """The scratch per-window pipeline (speedup baseline)."""
    run = _steady_windows(traces[count], RebuildTraceEvaluator)
    outcome = benchmark.pedantic(run, rounds=1, iterations=1)
    assert set(outcome) == set(CONFIGURATIONS)


@pytest.mark.parametrize("count", SCALES)
def test_bench_mobility_windows_delta(benchmark, traces, count):
    """The delta pipeline over the same windows (>= 3x at 5000 nodes)."""
    run = _steady_windows(traces[count], _DeltaTraceEvaluator)
    outcome = benchmark.pedantic(run, rounds=1, iterations=1)
    # Steady-state continuation stays bit-identical to a rebuild replay
    # of the same remaining windows seeded with the same first window.
    reference = _steady_windows(traces[count], RebuildTraceEvaluator)()
    assert outcome == reference


def _sparse_frames(count, movers, windows=WINDOWS, seed=7):
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0, 1, size=(count, 2))
    frames = [positions.copy()]
    for _ in range(windows):
        chosen = rng.choice(count, size=movers, replace=False)
        positions[chosen] = np.clip(
            positions[chosen] + rng.uniform(-0.01, 0.01, size=(movers, 2)),
            0, 1)
        frames.append(positions.copy())
    return frames


@pytest.mark.parametrize("count", SCALES)
def test_bench_sparse_movers_rebuild(benchmark, count):
    """1% movers, scratch: full join + global density recount per window."""
    frames = _sparse_frames(count, movers=max(count // 100, 1))

    def run():
        totals = 0
        for positions in frames[1:]:
            topology = topology_at(positions, RADIUS)
            totals += len(all_densities(topology.graph, exact=True))
        return totals

    assert benchmark.pedantic(run, rounds=1, iterations=1) > 0


@pytest.mark.parametrize("count", SCALES)
def test_bench_sparse_movers_delta(benchmark, count):
    """1% movers, delta: per-window cost proportional to the movers."""
    frames = _sparse_frames(count, movers=max(count // 100, 1))
    dynamic = DynamicTopology(frames[0], RADIUS)

    def run():
        totals = 0
        for positions in frames[1:]:
            update = dynamic.move(positions)
            totals += len(update.topology.graph)
        return totals

    assert benchmark.pedantic(run, rounds=1, iterations=1) > 0
    final = topology_at(frames[-1], RADIUS)
    assert dynamic.densities == all_densities(final.graph, exact=True)
