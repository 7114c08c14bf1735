"""Incremental-vs-scratch equivalence under randomized dynamics.

The delta subsystem must be observationally identical to the rebuild
pipeline after *any* sequence of moves, joins, and leaves: same edge
sets, bit-identical exact densities (same Fractions from the same
machine integers), same cluster-heads under every order/fusion
configuration, and the same DAG-repair decisions (the repair inputs the
mobility loop feeds the renamer).  Hypothesis drives small adversarial
sequences -- including the all-nodes-moved and empty-delta edge cases --
and seeded medium-size walks cover the drift-triggered grid re-joins.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.density import all_densities
from repro.clustering.incremental import IncrementalElection
from repro.graph.dynamic import DynamicTopology, DynamicUnitDisk
from repro.graph.geometry import pairs_within_range
from repro.mobility.trace import topology_at
from repro.naming.renaming import conflicting_edges, is_locally_unique
from tests.oracles.election import compute_clustering_reference

CONFIGS = [("basic", False), ("basic", True),
           ("incumbent", False), ("incumbent", True)]


@st.composite
def move_sequences(draw):
    """A deployment plus a short sequence of per-window actions."""
    n = draw(st.integers(2, 14))
    radius = draw(st.sampled_from([0.15, 0.3, 0.6]))
    coord = st.floats(0, 1, allow_nan=False, width=32)
    positions = [(draw(coord), draw(coord)) for _ in range(n)]
    actions = draw(st.lists(st.sampled_from(
        ["move-all", "move-one", "move-none", "jitter"]), min_size=1,
        max_size=5))
    return n, radius, positions, actions


def apply_action(rng, action, positions):
    positions = positions.copy()
    if action == "move-all":
        positions = rng.uniform(0, 1, size=positions.shape)
    elif action == "move-one" and len(positions):
        positions[int(rng.integers(len(positions)))] = rng.uniform(0, 1,
                                                                   size=2)
    elif action == "jitter":
        positions = np.clip(
            positions + rng.uniform(-0.02, 0.02, size=positions.shape), 0, 1)
    return positions  # "move-none" falls through unchanged


def assert_state_matches_scratch(dynamic, positions):
    scratch = topology_at(positions, dynamic.radius,
                          ids=dynamic.graph.nodes)
    assert {frozenset(e) for e in dynamic.graph.edges} == \
        {frozenset(e) for e in scratch.graph.edges}
    assert dynamic.graph.nodes == scratch.graph.nodes
    expected = all_densities(scratch.graph, exact=True)
    assert dynamic.densities == expected
    assert all(isinstance(v, Fraction) for v in dynamic.densities.values())
    # The adopted CSR snapshot equals the scratch-built one.
    ours, theirs = dynamic.graph.to_csr(), scratch.graph.to_csr()
    assert ours.ids == theirs.ids
    assert np.array_equal(ours.indptr, theirs.indptr)
    assert np.array_equal(ours.indices, theirs.indices)


@settings(max_examples=40, deadline=None)
@given(case=move_sequences())
def test_moves_keep_topology_and_densities_bit_identical(case):
    n, radius, start, actions = case
    rng = np.random.default_rng(12345)
    positions = np.asarray(start, dtype=float)
    dynamic = DynamicTopology(positions, radius)
    assert_state_matches_scratch(dynamic, positions)
    for action in actions:
        positions = apply_action(rng, action, positions)
        update = dynamic.move(positions)
        if action == "move-none":
            assert not update.delta
        assert_state_matches_scratch(dynamic, positions)


@settings(max_examples=25, deadline=None)
@given(case=move_sequences(),
       churns=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                       min_size=1, max_size=4))
def test_churn_sequences_keep_state_bit_identical(case, churns):
    n, radius, start, actions = case
    rng = np.random.default_rng(54321)
    positions = np.asarray(start, dtype=float)
    dynamic = DynamicTopology(positions, radius)
    next_id = n
    for (leavers, joiners), action in zip(churns, actions * 4):
        nodes = dynamic.graph.nodes
        departed = [int(x) for x in
                    rng.choice(nodes, size=min(leavers, len(nodes) - 1),
                               replace=False)] if len(nodes) > 1 else []
        arrivals = []
        for _ in range(joiners):
            arrivals.append((next_id, tuple(rng.uniform(0, 1, size=2))))
            next_id += 1
        dynamic.apply_churn(departed, arrivals)
        survivors = dynamic.graph.nodes
        positions = np.array([dynamic.topology.positions[node]
                              for node in survivors]).reshape(-1, 2)
        assert_state_matches_scratch(dynamic, positions)
        # Interleave a move window between churn epochs.
        positions = apply_action(rng, action, positions)
        dynamic.move(positions)
        assert_state_matches_scratch(dynamic, positions)


@settings(max_examples=20, deadline=None)
@given(case=move_sequences())
def test_elections_match_oracle_under_dynamics(case):
    n, radius, start, actions = case
    rng = np.random.default_rng(999)
    positions = np.asarray(start, dtype=float)
    dynamic = DynamicTopology(positions, radius)
    tie_ids = dynamic.topology.ids
    dag_ids = {node: int(rng.integers(100)) for node in dynamic.graph}
    engines = {cfg: IncrementalElection(order=cfg[0], fusion=cfg[1])
               for cfg in CONFIGS}
    previous = {cfg: (None, None) for cfg in CONFIGS}
    density_changed = None
    graph_changed = True
    for action in actions + ["move-none"]:
        for cfg, engine in engines.items():
            prev_fast, prev_oracle = previous[cfg]
            fast = engine.update(dynamic.graph, dynamic.densities,
                                 tie_ids=tie_ids, dag_ids=dag_ids,
                                 previous=prev_fast,
                                 density_changed=density_changed,
                                 graph_changed=graph_changed,
                                 dag_changed=False)
            oracle = compute_clustering_reference(
                dynamic.graph, tie_ids=tie_ids, dag_ids=dag_ids, order=cfg[0],
                fusion=cfg[1], previous=prev_oracle,
                densities=dynamic.densities)
            assert fast.heads == oracle.heads
            assert fast.parents == oracle.parents
            assert fast.densities == oracle.densities
            previous[cfg] = (fast, oracle)
        positions = apply_action(rng, action, positions)
        update = dynamic.move(positions)
        density_changed = update.density_changed
        graph_changed = bool(update.delta)


@settings(max_examples=30, deadline=None)
@given(case=move_sequences(), namespace=st.integers(2, 6))
def test_dag_repair_inputs_match_scratch_legitimacy(case, namespace):
    """The delta loop's conflict trigger == the scratch legitimacy check.

    The mobility driver re-runs the renamer iff an added edge collides
    two persisted names; the scratch path re-runs it iff
    ``is_locally_unique`` fails.  With names locally unique at the
    previous window, the two predicates must agree after any move.
    A tiny namespace makes collisions likely.
    """
    n, radius, start, actions = case
    rng = np.random.default_rng(777)
    positions = np.asarray(start, dtype=float)
    dynamic = DynamicTopology(positions, radius)
    for action in actions:
        # Draw names locally unique for the *current* window, mimicking a
        # repaired state (skip shapes the tiny namespace cannot color).
        names = {}
        for node in dynamic.graph:
            used = {names[q] for q in dynamic.graph.neighbors(node)
                    if q in names}
            free = [c for c in range(namespace) if c not in used]
            if not free:
                return
            names[node] = free[int(rng.integers(len(free)))]
        assert is_locally_unique(dynamic.graph, names)
        positions = apply_action(rng, action, positions)
        update = dynamic.move(positions)
        trigger = any(names[u] == names[v]
                      for u, v in update.delta.added.tolist())
        assert trigger == (not is_locally_unique(dynamic.graph, names))


@pytest.mark.parametrize("seed,count,radius,step", [
    (1, 150, 0.1, 0.004),   # pedestrian-like: tiny steps, no re-join
    (2, 150, 0.1, 0.05),    # fast: drift bound trips, grid re-joins
    (3, 200, 0.05, 0.02),
    (4, 80, 0.3, 0.1),
])
def test_seeded_walks_stay_exact(seed, count, radius, step):
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0, 1, size=(count, 2))
    disk = DynamicUnitDisk(positions, radius)
    for _ in range(10):
        positions = np.clip(
            positions + rng.uniform(-step, step, size=positions.shape), 0, 1)
        disk.move(positions)
        expected = {frozenset(p) for p in
                    pairs_within_range(positions, radius).tolist()}
        got = {frozenset(p) for p in disk.edge_index_pairs().tolist()}
        assert got == expected


def test_vectorized_legitimacy_check_matches_reference():
    rng = np.random.default_rng(5)
    for _ in range(20):
        topo = topology_at(rng.uniform(0, 1, size=(40, 2)), 0.2)
        names = {node: int(rng.integers(6)) for node in topo.graph}
        assert is_locally_unique(topo.graph, names) == \
            (not conflicting_edges(topo.graph, names))


def test_legitimacy_check_falls_back_for_exotic_names():
    topo = topology_at([(0.0, 0.0), (0.05, 0.0)], 0.2)
    # Distinct floats that int64 truncation would collide.
    floats = {0: 1.5, 1: 1.25}
    assert is_locally_unique(topo.graph, floats)
    # Over-int64 names must not overflow the vectorized path.
    huge = {0: 2 ** 80, 1: 2 ** 80}
    assert not is_locally_unique(topo.graph, huge)
    assert is_locally_unique(topo.graph, {0: 2 ** 80, 1: 2 ** 80 + 1})
