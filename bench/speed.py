"""Host speed, measured alongside the calls so that wall times can be scaled.

The benchmark's host is shared with other tenants.  Its speed drifts by a
third over tens of seconds to minutes, in CPU time as much as in wall time,
with no steal time, so two runs of the same code minutes apart differ by that
much.  A Meter times a fixed probe, exact rational arithmetic and a sort like
the CLI's own work and independent of echcap, every EVERY_S seconds between
calls.  Meter.scale(t) is REFERENCE_S over the probe's median time within
WINDOW_S of t: a call's wall time times that is the time it would take at the
host speed at which the probe takes REFERENCE_S.
"""

from __future__ import annotations

import bisect
import statistics
from fractions import Fraction
from time import perf_counter
from typing import List

# About the probe's median time on the baseline host (2 vCPU, Python 3.11.7).
REFERENCE_S = 0.0015
EVERY_S = 0.25
WINDOW_S = 2.0


def probe() -> Fraction:
    values = sorted(Fraction(i * 7919 % 1009, i % 97 + 1) for i in range(1, 200))
    return sum(values[::7], Fraction(0))


class Meter:
    def __init__(self) -> None:
        self.at: List[float] = []
        self.took: List[float] = []

    def tick(self) -> None:
        """Time the probe if EVERY_S has passed since it last ran."""
        now = perf_counter()
        if not self.at or now - self.at[-1] >= EVERY_S:
            probe()
            self.at.append(now)
            self.took.append(perf_counter() - now)

    def scale(self, t: float) -> float:
        lo = bisect.bisect_left(self.at, t - WINDOW_S)
        hi = bisect.bisect_right(self.at, t + WINDOW_S)
        near = self.took[lo:hi] or [self.took[min(lo, len(self.took) - 1)]]
        return REFERENCE_S / statistics.median(near)
