"""Spans recorded by the benchmark around its calls into each layer.

Operation spans (one deployment, request batch or window) are always
recorded: the end-to-end percentiles are read from them.  Layer spans
and their counters are recorded only when tracing is on; otherwise
``layer`` hands back one shared no-op context, so an untraced run pays
a method call per layer call and nothing else.

Spans live in memory and are written out once, by :meth:`Trace.dump`,
when the run ends.  A :class:`~calibrate.Calibration`, when given, runs
its reference job after each operation span closes, outside it.
"""

import json
import time
from collections import defaultdict

_clock = time.perf_counter


class _Span:
    __slots__ = ("trace", "name", "is_op", "op", "parent", "start", "end")

    def __init__(self, trace, name, is_op, op, parent):
        self.trace = trace
        self.name = name
        self.is_op = is_op
        self.op = op
        self.parent = parent
        self.start = self.end = None

    def __enter__(self):
        self.start = _clock()
        return self

    def __exit__(self, *exc):
        self.end = _clock()
        self.trace.spans.append(self)
        if self.is_op and self.trace.calibration is not None:
            self.trace.calibration.after(self.seconds)
        return False

    @property
    def seconds(self):
        return self.end - self.start


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class Trace:
    """In-memory span recorder for one benchmark run."""

    def __init__(self, enabled, calibration=None):
        self.enabled = enabled
        self.calibration = calibration
        self.spans = []
        self.counters = defaultdict(lambda: defaultdict(float))
        self._op = None
        self._op_count = 0

    def op(self, kind):
        """Span of one operation; its layer spans become its children."""
        self._op_count += 1
        self._op = _Span(self, kind, True, self._op_count, None)
        return self._op

    def layer(self, name, in_op=True):
        """Span of one call into layer ``name`` (no-op when untraced).

        ``in_op=False`` marks a call made outside any operation, such
        as generating inputs during set-up.
        """
        if not self.enabled:
            return _NULL
        if not in_op:
            return _Span(self, name, False, None, None)
        return _Span(self, name, False, self._op.op, self._op)

    def count(self, layer, **values):
        """Add to ``layer``'s counters (no-op when untraced)."""
        if self.enabled:
            counters = self.counters[layer]
            for key, value in values.items():
                counters[key] += value

    def layers(self):
        """``{layer: {busy_s, self_s, calls, **counters}}``.

        Busy time is the summed span duration; self time subtracts the
        part covered by child spans.
        """
        child_time = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[id(span.parent)] += span.seconds
        summary = {}
        for span in self.spans:
            if span.is_op:
                continue
            row = summary.setdefault(
                span.name, {"busy_s": 0.0, "self_s": 0.0, "calls": 0})
            row["busy_s"] += span.seconds
            row["self_s"] += span.seconds - child_time[id(span)]
            row["calls"] += 1
        for layer, counters in self.counters.items():
            summary.setdefault(
                layer, {"busy_s": 0.0, "self_s": 0.0, "calls": 0}
            ).update(counters)
        return summary

    def covered_ratio(self):
        """Share of operation wall time spent inside layer spans."""
        timed = sum(span.seconds for span in self.spans if span.is_op)
        covered = sum(span.seconds for span in self.spans
                      if span.parent is not None and span.parent.is_op)
        return covered / timed if timed else 0.0

    def dump(self, path, header):
        """Write every span, the layer summary and ``header`` as JSON."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        spans = [{
            "name": span.name,
            "kind": "op" if span.is_op else "layer",
            "start": span.start,
            "end": span.end,
            "parent": (None if span.parent is None
                       else index.get(id(span.parent))),
            "op": span.op,
        } for span in self.spans]
        with open(path, "w") as handle:
            json.dump(dict(header, layers=self.layers(), spans=spans),
                      handle, indent=1)
