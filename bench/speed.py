"""Machine-speed sampling, for timings that stay steady on a shared host.

On a host whose cores are shared with other tenants, the same code runs at
one speed for a few milliseconds or for minutes and at about half that
speed at other times, so the wall time of identical passes can differ by
2x between runs.  To take that out, a SIGALRM timer runs a fixed stdlib
work unit every INTERVAL_S of wall time and records how long it took.  A
timed interval's steady time is its wall time minus the time the sampler
itself took, scaled by the mean, over the units run inside the interval,
of REFERENCE_UNIT_S/unit: the time the interval would have taken on a
machine where the unit takes REFERENCE_UNIT_S.  That is about the
uncontended unit time on a 2-vCPU Xeon VM with CPython 3.11, so there
steady times read close to uncontended wall times.  The work unit shares
no code with robustagg, so a change to the program cannot move the
yardstick.
"""

from __future__ import annotations

import bisect
import hashlib
import signal
from array import array
from time import perf_counter

INTERVAL_S = 0.002
REFERENCE_UNIT_S = 40e-6


def _unit() -> int:
    acc = 0
    for i in range(60):
        acc += hashlib.sha256(i.to_bytes(2, "big")).digest()[0]
    return acc


class SpeedSampler:
    """Context manager: samples machine speed while it is active."""

    def __init__(self) -> None:
        self.starts = array("d")
        self.durations = array("d")
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        _unit()
        self.starts.append(t0)
        self.durations.append(perf_counter() - t0)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def steady(self, start: float, end: float) -> float:
        """Steady seconds of the wall interval [start, end)."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        if lo == hi:
            return end - start  # too short to hold a sample
        inside = self.durations[lo:hi]
        speed = sum(REFERENCE_UNIT_S / d for d in inside) / len(inside)
        return (end - start - sum(inside)) * speed
