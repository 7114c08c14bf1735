"""Traffic-serving workloads over the cluster hierarchy.

Request *generators* (:mod:`repro.workload.generators`) produce lazy
streams of :class:`~repro.workload.generators.Request` events -- Poisson
arrivals with Zipf destination popularity, trace replay, YCSB-style
read/write mixes -- so a million-event schedule never materializes in
RAM.  The *serving* side (:mod:`repro.workload.serve`) routes request
chunks through the hierarchy with
:meth:`~repro.hierarchy.routing.CachedRouter.route_batch` (the one
routing implementation, amortized across requests) and feeds the
outcomes to a :class:`~repro.collectors.base.DataCollector` pipeline.
"""

from repro.workload.generators import (
    Request,
    ZipfPopularity,
    poisson_requests,
    trace_requests,
    ycsb_requests,
)
from repro.workload.serve import CachedRouter, ServedRequest, serve_workload

__all__ = [
    "CachedRouter",
    "Request",
    "ServedRequest",
    "ZipfPopularity",
    "poisson_requests",
    "serve_workload",
    "trace_requests",
    "ycsb_requests",
]
