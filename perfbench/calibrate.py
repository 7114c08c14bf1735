"""How fast the machine runs right now, measured beside the workload.

On a shared host, such as the 2-vCPU VM this benchmark was calibrated
on, the same job runs 1.3-1.6x slower for seconds to minutes at a
time, and process CPU time slows with it (the contention is in the
host, not in stolen time).  So after every timed operation the
benchmark runs a fixed reference job -- interpreter loops, set algebra
and a numpy sort, the kinds of work the program does -- for a tenth of
the operation's duration.  An operation's speed factor is the median
reference job time around it over :data:`REFERENCE_S`, and its time is
divided by that factor; rates and percentiles are then taken over the
scaled times, which reports the run as if the machine had run at the
reference speed throughout.  The reference job never calls the
program, so a faster program cannot move the factor.
"""

import bisect
import statistics
import time

import numpy as np

#: Typical reference job time on the calibration machine (2-vCPU Intel
#: Xeon VM at 2.0 GHz, Python 3.11, numpy 2.4), so scaled figures read
#: close to raw ones there.
REFERENCE_S = 0.0038

#: Reference job time per second of timed operation.
SHARE = 0.1

#: An operation's speed is read from samples taken this close to it:
#: the machine switches speed within seconds.
WINDOW_S = 1.0

_ARRAY = np.random.default_rng(0).random(50_000)


def reference_job():
    """One fixed slice of interpreter, set and numpy work; its seconds."""
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    groups = {}
    for i in range(6_000):
        groups.setdefault(i % 600, set()).add(i)
    for key, members in groups.items():
        total += len(members & groups.get(key + 1, set()))
    np.sort(_ARRAY)
    return time.perf_counter() - start


class Calibration:
    """Reference job samples taken in proportion to timed work."""

    def __init__(self):
        self.ends = []     # clock reading at the end of each sample
        self.samples = []  # reference job seconds

    def run(self, count):
        """Take ``count`` samples now."""
        for _ in range(count):
            self._sample()

    def _sample(self):
        spent = reference_job()
        self.ends.append(time.perf_counter())
        self.samples.append(spent)
        return spent

    def after(self, seconds):
        """Sample for about ``SHARE * seconds``, at least once."""
        owed = SHARE * seconds
        while owed > 0:
            owed -= self._sample()

    def factor(self, start, end):
        """Speed around ``[start, end]`` relative to the reference: the
        median sample within :data:`WINDOW_S` of the interval over
        :data:`REFERENCE_S`.  Above 1 means the machine ran slower."""
        lo = bisect.bisect_left(self.ends, start - WINDOW_S)
        hi = bisect.bisect_right(self.ends, end + WINDOW_S)
        near = self.samples[lo:hi] or self.samples
        return statistics.median(near) / REFERENCE_S
