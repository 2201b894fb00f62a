"""A clock that advances at the speed of a fixed reference kernel.

On a shared virtual machine the speed of one CPU can change by a factor
of two within seconds: a fixed pure-Python loop was measured at anywhere
from 21 to 39 ms per call on a 2-CPU machine, with no CPU steal
reported.  Wall-clock times of
identical work then differ by more than the benchmark's bounds.

While running, a SIGALRM handler times one call of a fixed kernel
(stdlib Fractions, tuples and a dict, nothing from tropgen) every
INTERVAL seconds, in the benchmark's own thread.  After a sample the
clock advances by the wall time elapsed times KERNEL_S over that sample's
kernel time, so work that runs at the kernel's pace reads the same
whether the machine is fast or slow at that moment.  The rate changes
only at a sample, which keeps the clock continuous and monotonic.  One
reference second is the time in which the kernel runs 1 / KERNEL_S times.
The handler's own time is left out of the clock.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

INTERVAL = 0.2
KERNEL_S = 0.0025  # kernel time that makes a reference second a wall second


def kernel():
    acc = Fraction(0)
    seen = {}
    for i in range(1, 300):
        f = Fraction(i % 97 + 1, i % 89 + 1)
        acc += f * f
        seen[(i % 13, i % 7, i % 5)] = acc
    return acc


def _time_kernel():
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class ReferenceClock:
    """Use as a context manager; call now() for reference seconds."""

    def __init__(self):
        self.samples = 0
        # (reference seconds, wall time of the last sample's end, its kernel time);
        # replaced as one tuple so that now() never sees a half-updated state
        self._state = (0.0, time.perf_counter(), _time_kernel())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _tick(self, signum, frame):
        start = time.perf_counter()
        k = _time_kernel()
        ref, last, k_last = self._state
        self._state = (ref + (start - last) * KERNEL_S / k_last, time.perf_counter(), k)
        self.samples += 1

    def now(self):
        ref, last, k_last = self._state
        return ref + (time.perf_counter() - last) * KERNEL_S / k_last
