"""The machine's speed, gauged with a fixed piece of pure-Python work.

On a shared host the processor's speed drifts, in CPU time as in wall time:
a fixed `check` pass timed in 4-second windows read anywhere from 0.28 to
0.45 s, and one sample of the work below read 0.8 to 2.5 ms within seconds.
That drift is common to all Python code, so the benchmark samples it right
before every timed operation, and once after the last, with work that gfinv
cannot change: big-number `Fraction` sums, dictionary updates and tuple
hashing, the staples of gfinv's own algebra.  Each operation's time is then
scaled to a fixed reference speed:

    scaled = measured * REFERENCE_S / (median of the samples just before
                                       and just after the operation)

The samples are never inside a timed interval.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# The time of one sample at the reference speed, about the median on a 2-vCPU
# Intel Xeon VM with Python 3.11.7.  A scaled time reads as the time the
# operation would take on that machine when one sample takes this long.
REFERENCE_S = 0.0014
BURST = 2


def sample() -> float:
    """Seconds taken by one fixed piece of work."""
    t0 = time.perf_counter()
    total, buckets = Fraction(0), {}
    for i in range(1, 320):
        total += Fraction(1, i)
        key = (i % 37, i % 5)
        buckets[key] = buckets.get(key, 0) + i
    if total <= 0 or len(buckets) != 185:
        raise AssertionError("calibration work went wrong")
    return time.perf_counter() - t0


class Gauge:
    """Bursts of samples taken between timed operations."""

    def __init__(self):
        self.bursts = []

    def mark(self) -> int:
        """Take a burst; call it right before a timed operation, and once
        after the last.  Returns the burst's index."""
        self.bursts.append([sample() for _ in range(BURST)])
        return len(self.bursts) - 1

    def scale(self, mark: int) -> float:
        """The factor that takes the time of the operation after burst
        `mark` to the reference speed."""
        return REFERENCE_S / statistics.median(self.bursts[mark] + self.bursts[mark + 1])

    def median_sample_s(self) -> float:
        return statistics.median(s for b in self.bursts for s in b)
