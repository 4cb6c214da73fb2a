"""Host pace: a fixed pure-Python probe, timed every few milliseconds of a pass.

On a shared host the same pass can take 1.7 times as long from one minute to
the next, because other tenants slow the core down, for milliseconds or for
minutes at a time.  A probe of fixed work slows down with the program: its
duration next to a stretch of the program tells how fast the host ran that
stretch.  run.py divides every stretch between two probes by the probe
durations around it and multiplies it by a fixed nominal probe duration,
which rescales the pass to one fixed host speed.

The probe runs from a SIGALRM handler, so it needs nothing from the program.
Python runs the handler between bytecodes, so a probe can come late but never
splits a C call.  Its own time is left out of the program's time.
"""

from __future__ import annotations

import signal
from array import array
from time import perf_counter

INTERVAL_S = 0.025


def probe_work() -> int:
    """About 0.4 ms of dict and integer work, the kind the interpreter spends the program's time on."""
    s = 0
    d = {}
    for i in range(3000):
        s += i * i % 7
        d[i & 255] = (s, i)
    return s


class Pace:
    def __init__(self):
        self.starts = array("d")
        self.ends = array("d")
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        probe_work()
        t1 = perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)

    def install(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def uninstall(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def since(self, t0: float) -> list[list[float]]:
        """[start, end] of every probe, relative to t0."""
        return [[s - t0, e - t0] for s, e in zip(self.starts, self.ends)]
