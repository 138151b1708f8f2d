"""Pass times at a fixed reference speed, on a machine whose speed moves.

On a shared host the same work runs up to twice as slow from one second to
the next, and CPU time slows with it, so a timed pass measures the
neighbours as much as the program.  `SpeedMeter` times a fixed
interpreter loop every `INTERVAL` seconds from a SIGALRM handler, on the
same CPU and thread as the program, and rescales each stretch of the
program between two ticks by how long its closing tick took:

    reference seconds = elapsed seconds * REFERENCE_S / loop seconds

A reference second is a second of a machine on which the loop takes
`REFERENCE_S`: about the loop's time on an idle 2-vCPU Xeon host with
Python 3.11, so reference times read close to that host's best wall
times.  The loop's own time is left out of every figure.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL = 0.02
REFERENCE_S = 0.00028


def _loop() -> None:
    d: dict = {}
    for i in range(1500):
        d[i & 127] = d.get(i & 127, 0) + i * 3 // 7


def rescale(start: float, end: float, ticks, reference: float = REFERENCE_S):
    """(wall seconds, reference seconds) of [start, end], loop time left out.

    `ticks` is a sorted list of (tick start, loop seconds).  A stretch is
    scaled by the tick that closes it; the stretch after the last tick by
    the next tick after `end`, or the last one if there is none.
    """
    i = bisect.bisect_left(ticks, start, key=lambda tick: tick[0])
    wall = ref = 0.0
    prev = start
    while i < len(ticks) and ticks[i][0] < end:
        t, d = ticks[i]
        wall += t - prev
        ref += (t - prev) * reference / d
        prev = min(t + d, end)
        i += 1
    if end > prev:
        d = ticks[min(i, len(ticks) - 1)][1] if ticks else reference
        wall += end - prev
        ref += (end - prev) * reference / d
    return wall, ref


class SpeedMeter:
    """Context manager: ticks the loop every INTERVAL while it is open."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.ticks: list[tuple[float, float]] = []

    def _tick(self, signum, frame) -> None:
        t0 = self.clock()
        _loop()
        self.ticks.append((t0, self.clock() - t0))

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def slowdown(self) -> float:
        """Median loop time over REFERENCE_S: how slow the machine ran."""
        loops = sorted(d for _, d in self.ticks)
        return loops[len(loops) // 2] / REFERENCE_S if loops else 1.0
