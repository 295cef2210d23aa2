"""A gauge of the machine's speed, read between operations.

The shared host this benchmark was written on switches between a fast and a
slow state (a pure-Python loop takes about 1.8 times as long in the slow
one) in phases of 50 ms to a few seconds, and the mix of the two changes
from minute to minute.  CPU time moves with wall time, so neither clock
repeats from run to run.  The gauge
times a fixed pure-Python reference loop (``reference_loop``, independent of
spindual) at least every ``EVERY_NS`` of a run, between operations.  The
machine's speed at a sample is ``NOMINAL_NS / (time of the loop)``; an
interval's wall time is scaled by the mean speed of the samples around it:

    scaled = wall * mean(NOMINAL_NS / sample)

which is the time the interval would take on a machine on which the
reference loop takes ``NOMINAL_NS``.  A change to spindual moves the scaled
times in the same proportion as the wall times, since the reference loop
does not change; a change of the machine's speed moves both the operation
and the loop and cancels out.
"""

import bisect
import json
import statistics
from fractions import Fraction
from time import perf_counter_ns

# a round figure near the reference loop's median time on the 2-CPU host the
# figures in README.md come from (0.46 to 0.76 ms from run to run there);
# scaled times are wall times at that speed
NOMINAL_NS = 600_000
# a state lasts 50 ms or more; a reading every 10 ms costs 3% to 5% of a run
EVERY_NS = 10_000_000
# samples taken on each side of an interval beyond the nearest one
SPREAD = 1


def reference_loop():
    """A fixed mix of what spindual spends its time on: Fraction arithmetic,
    small tuples, sorting, dicts and JSON text."""
    acc = Fraction(0)
    rows = []
    seen = {}
    for i in range(1, 61):
        acc += Fraction(i % 13 - 6, i % 7 + 1)
        row = tuple(sorted(((i * k) % 17, -k) for k in range(6)))
        rows.append(row)
        seen[row[0]] = seen.get(row[0], 0) + 1
    rows.sort(reverse=True)
    return acc, len(json.dumps([list(r[0]) for r in rows])), len(seen)


class Gauge:
    def __init__(self):
        self.at = []    # midpoint of each reference sample, ns
        self.ns = []    # its duration, ns
        self._last = 0

    def sample(self, times=1):
        for _ in range(times):
            t0 = perf_counter_ns()
            reference_loop()
            t1 = perf_counter_ns()
            self.at.append((t0 + t1) // 2)
            self.ns.append(t1 - t0)
            self._last = t1

    def maybe_sample(self):
        """Sample when EVERY_NS has passed since the last sample."""
        if perf_counter_ns() - self._last >= EVERY_NS:
            self.sample()

    def speed(self, t0, t1):
        """Mean speed (NOMINAL_NS / sample) of the samples taken from t0 to
        t1, and of the SPREAD + 1 nearest samples before and after."""
        lo = max(0, bisect.bisect(self.at, t0) - 1 - SPREAD)
        hi = bisect.bisect(self.at, t1) + 1 + SPREAD
        return statistics.fmean(NOMINAL_NS / ns for ns in self.ns[lo:hi])

    def scaled(self, start_ns, elapsed_ns):
        """elapsed_ns at the nominal speed, for an interval from start_ns."""
        return elapsed_ns * self.speed(start_ns, start_ns + elapsed_ns)

    def median_ns(self):
        return statistics.median(self.ns)
