"""Bulk-built graphs stay CSR-only through the whole paper path.

``Graph.from_pair_array`` builds only the CSR snapshot; the dict
adjacency is materialized on the first dict-shaped access.  The paper's
Table 4 pipeline -- Poisson deployment, exact densities, DAG naming,
the election, the cluster statistics and the invariant check -- must
never make that access, so its cost stays on arrays.
"""

import numpy as np
import pytest

from repro.clustering.density import all_densities
from repro.clustering.oracle import compute_clustering
from repro.graph.generators import poisson_topology
from repro.metrics.clusters import cluster_stats
from repro.naming.assign import assign_dag_ids


@pytest.mark.parametrize("radius", [0.05, 0.1])
@pytest.mark.parametrize("order", ["basic", "incumbent"])
def test_paper_path_never_materializes_the_dict(radius, order):
    rng = np.random.default_rng(17)
    topology = poisson_topology(500, radius, rng=rng)
    graph = topology.graph
    densities = all_densities(graph, exact=True)
    dag_ids, _rounds = assign_dag_ids(topology, rng)
    clustering = compute_clustering(graph, tie_ids=topology.ids,
                                    dag_ids=dag_ids, order=order,
                                    densities=densities)
    cluster_stats(clustering)
    clustering.check_invariants()
    assert graph._adj_map is None
