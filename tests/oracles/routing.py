"""Per-request routing oracle: one route at a time, full-graph legs.

The production router (:meth:`repro.hierarchy.routing.CachedRouter.
route_batch`) groups requests by head pair and unwinds intra-cluster
legs from per-cluster dense distance matrices.  :class:`ReferenceRouter`
keeps the per-request loop it must agree with: walk the overlay head
path request by request and route every intra-cluster leg with a
label-constrained BFS over the *whole* graph (``kernels.bfs_parents``,
cached per leg source), unwinding the path per target.
:func:`serve_workload_reference` is the matching per-request serving
loop; the batched-serving floor bench measures against it.
"""

from repro.graph import kernels
from repro.hierarchy.routing import CachedRouter, ServedRequest
from repro.util.errors import TopologyError
from repro.workload.serve import _router_stats_sink


class ReferenceRouter(CachedRouter):
    """:class:`CachedRouter` routing one request at a time."""

    def __init__(self, hierarchy, flat_cache=256):
        super().__init__(hierarchy, flat_cache=flat_cache)
        self._leg_parents = {}  # (head, source) -> full-graph BFS parents

    def _leg_reference(self, head, source, target):
        """Shortest same-cluster path via a full-graph labelled BFS."""
        key = (head, source, target)
        path = self._leg_paths.get(key)
        if path is None:
            src_row = self.index_of[source]
            parents = self._leg_parents.get((head, source))
            if parents is None:
                parents, _dist = kernels.bfs_parents(
                    self.csr.indptr, self.csr.indices, src_row,
                    labels=self.labels)
                self._leg_parents[(head, source)] = parents
            tgt_row = self.index_of[target]
            rows = kernels.unwind_path(parents, src_row, tgt_row)
            if rows.size == 0 and src_row != tgt_row:
                raise TopologyError(
                    f"cluster of {head!r} is internally disconnected")
            ids = self.ids
            path = tuple(ids[row] for row in rows)
            self._leg_paths[key] = path
        return path

    def route_reference(self, source, destination):
        """``(route, head_path)`` for one pair; ``(None, None)`` when
        unroutable."""
        leg = self._leg_reference
        head_src = self.head_of[source]
        head_dst = self.head_of[destination]
        if head_src == head_dst:
            return list(leg(head_src, source, destination)), (head_src,)
        if self.overlay is None:
            return None, None
        head_path = self.overlay_path(head_src, head_dst)
        if head_path is None:
            return None, None
        route = [source]
        current = source
        for hop in range(len(head_path) - 1):
            here, there = head_path[hop], head_path[hop + 1]
            exit_node, entry_node = self._gateway(here, there)
            route.extend(leg(here, current, exit_node)[1:])
            route.append(entry_node)
            current = entry_node
        route.extend(leg(head_path[-1], current, destination)[1:])
        return route, head_path

    def serve_reference(self, request, with_flat=False):
        """Route one request into a :class:`ServedRequest`."""
        route, head_path = self.route_reference(request.source,
                                                request.destination)
        if route is None:
            return ServedRequest(request=request, route=None, head_path=None,
                                 hops=None)
        flat = None
        if with_flat:
            flat = self.flat_hops(request.source, request.destination)
        return ServedRequest(request=request, route=route,
                             head_path=head_path, hops=len(route) - 1,
                             flat_hops=flat)


def serve_workload_reference(hierarchy, requests, collector, flat_every=1):
    """:func:`repro.workload.serve.serve_workload`, one request at a time.

    Every request goes through :meth:`ReferenceRouter.serve_reference` and
    the collector's per-event ``process``; router counters are absorbed
    the same way.  Returns the collector.
    """
    router = ReferenceRouter(hierarchy)
    sink = _router_stats_sink(collector)
    for index, request in enumerate(requests):
        with_flat = bool(flat_every) and index % flat_every == 0
        collector.process(router.serve_reference(request, with_flat=with_flat))
    if sink is not None:
        sink.absorb(router.flat_hits, router.flat_misses)
    return collector
