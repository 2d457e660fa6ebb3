"""Reference seconds: item times scaled by a fixed computation timed beside them.

The host this benchmark runs on changes speed by up to a third over a minute
or so, in CPU time as well as wall time (other guests share its cores).  A
fixed pure-Python computation, timed in short bursts between items, slows
and speeds up with it.  An item's time in reference seconds is its CPU time
times REFERENCE_S over the mean of the NEAREST timings of that computation
around the item, less the highest and lowest tenth of them.  The host's
speed often switches between two levels for seconds at a time; a mean
follows the share of time spent at each level, where a median would jump
from one level to the other.  The computation uses only the benchmark's own
oracle code, so no change to the program can move it.
"""

from __future__ import annotations

import bisect
import statistics
import time

import oracle

#: the kernel's CPU time on the machine the bounds were set on (2 vCPU
#: Xeon, Python 3.11.7), so that reference seconds read about as seconds
REFERENCE_S = 0.004
#: a burst follows the first item that ends this long after the last burst
EVERY_S = 0.1
BURST = 2
#: items are scaled by this many kernel timings nearest to them in time:
#: about a second of a construct run, a few seconds of certify or reformulate
NEAREST = 20

_P = oracle.poly("(3*x^2 - 5/7*x*y + 2*y^3 - 11/3)^3")
_Q = oracle.poly("(x - 2/5*y^2 + 7)^2")


def kernel():
    """Dict-of-monomials products with Fraction coefficients, the same kind
    of work as the program's polynomial arithmetic."""
    r = _P
    for _ in range(2):
        r = oracle.pmul(r, _Q)
    return r


class Calibration:
    def __init__(self, clock=time.thread_time):
        self.clock = clock
        self.at: list[float] = []  # wall time of each sample
        self.seconds: list[float] = []  # CPU time of each kernel run
        self.last = None

    def burst(self, size: int = BURST) -> None:
        now = time.perf_counter()
        for _ in range(size):
            start = self.clock()
            kernel()
            self.at.append(now)
            self.seconds.append(self.clock() - start)
        self.last = now

    def maybe(self) -> None:
        if self.last is None or time.perf_counter() - self.last >= EVERY_S:
            self.burst()

    def scale(self, at: float | None = None) -> float:
        """REFERENCE_S over the kernel's trimmed mean time: over the NEAREST
        timings to wall time `at`, or over every timing."""
        samples = self.seconds
        if at is not None:
            i = bisect.bisect_left(self.at, at)
            lo = max(min(i - NEAREST // 2, len(samples) - NEAREST), 0)
            samples = samples[lo:lo + NEAREST]
        cut = len(samples) // 10
        return REFERENCE_S / statistics.fmean(sorted(samples)[cut:len(samples) - cut])
