"""Request serving: the collector loop over the cached router.

Routing lives in :mod:`repro.hierarchy.routing`, whose
:meth:`~repro.hierarchy.routing.CachedRouter.route_batch` is the one
routing implementation.  :func:`serve_workload` consumes a request
generator in :data:`BATCH_REQUESTS` chunks, routes each chunk with one
``route_batch`` call, and hands the resulting
:class:`~repro.hierarchy.routing.ServedRequest` batch to the collector
pipeline's ``process_batch``.  :class:`RouterStatsCollector` reports the
router's flat-distance cache counters next to the request statistics.
"""

import math
from itertools import islice

from repro.collectors.base import DataCollector, register_collector
from repro.hierarchy.routing import CachedRouter, ServedRequest

__all__ = [
    "BATCH_REQUESTS",
    "CachedRouter",
    "RouterStatsCollector",
    "ServedRequest",
    "serve_workload",
]

#: Requests pulled from the generator per :meth:`CachedRouter.route_batch`
#: call (bounds per-batch memory at any stream length).
BATCH_REQUESTS = 4096


@register_collector
class RouterStatsCollector(DataCollector):
    """Router cache effectiveness: flat-BFS LRU hits over lookups.

    Not fed by the request stream -- :func:`serve_workload` absorbs the
    router's counters after each serving pass -- so ``process`` is a
    no-op and the partial state (two integers) merges exactly.
    """

    name = "router"

    def __init__(self):
        self.flat_hits = 0
        self.flat_misses = 0

    def process(self, served):
        return

    def process_batch(self, batch):
        return

    def absorb(self, hits, misses):
        self.flat_hits += hits
        self.flat_misses += misses

    def merge(self, other):
        self._check_mergeable(other)
        self.flat_hits += other.flat_hits
        self.flat_misses += other.flat_misses
        return self

    def results(self):
        lookups = self.flat_hits + self.flat_misses
        return {
            "flat_lookups": lookups,
            "flat_hits": self.flat_hits,
            "flat_misses": self.flat_misses,
            "flat_hit_ratio": self.flat_hits / lookups if lookups
            else math.nan,
        }


def _router_stats_sink(collector):
    """The :class:`RouterStatsCollector` inside ``collector``, if any."""
    if isinstance(collector, RouterStatsCollector):
        return collector
    members = getattr(collector, "collectors", None)
    if members is not None:
        for member in members:
            if isinstance(member, RouterStatsCollector):
                return member
    return None


def serve_workload(hierarchy, requests, collector, flat_every=1,
                   router=None, batch_size=BATCH_REQUESTS):
    """Serve a request stream through ``hierarchy`` into ``collector``.

    ``flat_every=k`` computes the flat shortest-path length (the
    path-stretch denominator) for every ``k``-th request only --
    stretch is a sampled statistic, latency/load are exact over all
    requests.  ``flat_every=0`` disables stretch accounting entirely.

    The generator is consumed in ``batch_size`` chunks, each routed by
    one :meth:`CachedRouter.route_batch` call and handed to the
    collectors' ``process_batch``.  ``router`` reuses a warm router
    (a fresh one is built otherwise).  Returns the collector.
    """
    if router is None:
        router = CachedRouter(hierarchy)
    sink = _router_stats_sink(collector)
    hits0, misses0 = router.flat_hits, router.flat_misses
    index = 0
    stream = iter(requests)
    while True:
        batch = list(islice(stream, batch_size))
        if not batch:
            break
        served = router.route_batch(batch, flat_every=flat_every,
                                    first_index=index)
        collector.process_batch(served)
        index += len(batch)
    if sink is not None:
        sink.absorb(router.flat_hits - hits0, router.flat_misses - misses0)
    return collector
