"""Per-edge density oracle: Definition 1 without NumPy.

The production :func:`repro.clustering.density.all_densities` counts
triangles on the CSR snapshot.  :func:`all_densities_reference` keeps
the original dict-backend scan it must agree with; the property tests
compare against it, and the density floor bench uses it as its speedup
baseline.
"""

from fractions import Fraction

from repro.clustering.density import ISOLATED_DENSITY


def all_densities_reference(graph, exact=False):
    """:func:`repro.clustering.density.all_densities`, edge by edge.

    One pass over edges with a common-neighbor scan: each edge between
    two neighbors of ``w`` is a triangle through ``w``.  ``O(m * delta)``
    total time.
    """
    triangles = {node: 0 for node in graph}
    for u, v in graph.edges:
        nu = graph.neighbors(u)
        nv = graph.neighbors(v)
        if len(nu) > len(nv):
            nu, nv = nv, nu
        for w in nu:
            if w in nv:
                # w sees edge (u, v) inside its neighborhood.
                triangles[w] += 1
    result = {}
    for node in graph:
        deg = graph.degree(node)
        if deg == 0:
            result[node] = Fraction(0) if exact else ISOLATED_DENSITY
            continue
        value = Fraction(deg + triangles[node], deg)
        result[node] = value if exact else float(value)
    return result
