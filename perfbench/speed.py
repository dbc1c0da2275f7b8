"""Measure how fast the shared machine runs while a run goes on.

The benchmark's CPUs are shared with work outside it. Their speed drifts by
a quarter or more within a minute, and by more than half over an hour.
Every TICK_S, a SIGALRM handler times a short fixed loop and records when
it ran and how long the loop took. The loop does what the library's
arithmetic does, in code of its own: it builds 500 ``__slots__`` pairs of
ints of about 300 bits, multiplies and adds neighbours, and sorts and
indexes rows made from them, a working set of about 100 KiB. So its
time tracks how fast the machine runs Python code like gmlucas at that
moment, and it never changes when gmlucas does.

``scale(start, end)`` turns a time measured between start and end into a
time at the reference speed: it multiplies by PROBE_REF_S over the median
loop time of the ticks within MARGIN_S of that interval. Correcting each
request by the ticks around it, rather than a whole run by one figure,
follows the drift within a run too. ``run_scale()`` is the one figure, for
times taken while the probe was not ticking. ``clock()`` is ``perf_counter`` less
the time spent in ticks, so a latency timed with it excludes the loop.
Nothing here changes what the library does or where it runs.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time

TICK_S = 0.2
MARGIN_S = 1.0
PROBE_REF_S = 1.3e-3  # about the loop's time on an uncontended 2.0 GHz Xeon vCPU
_BASE = 3**190  # a 302-bit int


class _Pair:
    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int = 0):
        if num and exp and not num & 1:
            cancel = min((num & -num).bit_length() - 1, exp)
            num >>= cancel
            exp -= cancel
        self.num = num
        self.exp = exp

    def __add__(self, other):
        if self.exp >= other.exp:
            return _Pair(self.num + (other.num << (self.exp - other.exp)), self.exp)
        return _Pair((self.num << (other.exp - self.exp)) + other.num, other.exp)

    def __mul__(self, other):
        return _Pair(self.num * other.num, self.exp + other.exp)


def _probe_s() -> float:
    start = time.perf_counter()
    pairs = [_Pair(_BASE + i * 0x9E3779B97F4A7C15, i & 15) for i in range(500)]
    acc = _Pair(0)
    for a, b in zip(pairs, pairs[1:]):
        acc = acc + a * b
    rows = sorted([p.num & 0xFFFF, p.exp] for p in pairs)
    {tuple(row): row for row in rows}
    return time.perf_counter() - start


class SpeedProbe:
    def __init__(self):
        self.at: list[float] = []       # clock() time of each tick
        self.probe_s: list[float] = []  # the loop's time at that tick
        self._spent_s = 0.0

    def clock(self) -> float:
        """perf_counter seconds, less the time spent in ticks."""
        return time.perf_counter() - self._spent_s

    def tick(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        self.at.append(start - self._spent_s)
        self.probe_s.append(_probe_s())
        self._spent_s += time.perf_counter() - start

    def scale(self, start: float, end: float) -> float:
        """Multiply a time measured from start to end (clock() times) by
        this to get it at the reference speed."""
        lo = bisect.bisect_left(self.at, start - MARGIN_S)
        hi = bisect.bisect_right(self.at, end + MARGIN_S)
        near = self.probe_s[lo:hi]
        return PROBE_REF_S / statistics.median(near) if near else self.run_scale()

    def run_scale(self) -> float:
        """The same factor from every tick so far."""
        return PROBE_REF_S / statistics.median(self.probe_s)

    @contextlib.contextmanager
    def ticking(self):
        """Tick every TICK_S until the block ends."""
        previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            self.tick()
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
