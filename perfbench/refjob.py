"""The reference job: a fixed unit of work that does not use ds4.

On a small shared machine the CPU speed a process gets moves by tens of
percent from one run to the next, and within a run it switches between a
fast and a slow state many times a second.  The benchmark therefore
measures ds4's work in "refs" rather than seconds.  One ref is one pass of
this job.  The job mixes what ds4 spends its time on: interpreted float
arithmetic on small named tuples, and numpy calls on 4x4 complex and
length-3 arrays.  Its work is fixed here and must not change, or figures
measured before and after stop being comparable.

The job runs in PROBES_PER_REF equal probes.  While `Probes` is entered, a
SIGALRM handler runs one probe every INTERVAL_S seconds in the main
thread, in between ds4's own bytecodes, and logs its duration.  `clock`
is a clock that stops while a probe runs, and `refs` turns a span of that
clock into the passes the CPU could have run in it, taking the speed of
each stretch from the probe that opened it.  `timed_pass` runs a whole
pass at once, for spans too short to hold many probes.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import NamedTuple

import numpy as np


class _Q(NamedTuple):
    s: float
    x: float
    y: float
    z: float

    def __mul__(p, q):
        return _Q(p.s * q.s - p.x * q.x - p.y * q.y - p.z * q.z,
                  p.s * q.x + q.s * p.x + p.y * q.z - p.z * q.y,
                  p.s * q.y + q.s * p.y + p.z * q.x - p.x * q.z,
                  p.s * q.z + q.s * p.z + p.x * q.y - p.y * q.x)


_M = (np.array([[1.0, 0.2, 0.1, 0.0], [0.0, 1.1, 0.3, 0.2],
                [0.1, 0.0, 0.9, 0.4], [0.2, 0.1, 0.0, 1.2]]) + 0.1j)
#: One pass is PROBES_PER_REF probes of this many products and numpy rounds:
#: 3000 products and 300 rounds in all.
_PRODUCTS = 150
_NUMPY_ROUNDS = 15
PROBES_PER_REF = 20
#: Seconds between probes; a probe takes about 1 ms on the README's machine.
INTERVAL_S = 0.020
#: Duration of one pass that set-up times are scaled to: roughly a pass on
#: the 2-core machine the README's reference figures come from.
NOMINAL_S = 0.020


def probe() -> float:
    """Run one probe and return a checksum of its work."""
    q, r = _Q(0.6, 0.0, 0.8, 0.0), _Q(0.0, 0.6, 0.0, 0.8)
    acc = 0.0
    for _ in range(_PRODUCTS):
        q = q * r
        acc += q.s
    for _ in range(_NUMPY_ROUNDS):
        acc += abs(np.linalg.det(_M)) + float(np.abs(_M).max())
        acc += float(np.cross(_M[0, :3].real, _M[1, :3].real)[0])
    return acc


class Probes:
    """Probes run from SIGALRM while entered; see the module docstring."""

    def __init__(self):
        self.log: list[tuple[float, float]] = []  # (clock at start, duration)
        self.spent = 0.0
        self._previous = None

    def clock(self) -> float:
        """Seconds of perf_counter, less the time spent in probes."""
        return time.perf_counter() - self.spent

    def _probe(self, *_) -> None:
        t = time.perf_counter()
        probe()
        took = time.perf_counter() - t
        self.log.append((t - self.spent, took))
        self.spent += took

    def __enter__(self) -> "Probes":
        probe()  # the first call also pays numpy's lazy set-up
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed_pass(self) -> float:
        """Run one pass as back-to-back probes; its duration, from the
        median probe."""
        for _ in range(PROBES_PER_REF):
            self._probe()
        return statistics.median(took for _, took in self.log[-PROBES_PER_REF:]) * PROBES_PER_REF

    def refs(self, start: float, end: float) -> float:
        """Passes of the job the CPU could have run from clock `start` to `end`."""
        i = max(0, bisect.bisect_right(self.log, start, key=lambda e: e[0]) - 1)
        work, t = 0.0, start
        while True:
            took = self.log[i][1]
            nxt = self.log[i + 1][0] if i + 1 < len(self.log) else end
            nxt = min(nxt, end)
            work += (nxt - t) / took
            if nxt >= end:
                return work / PROBES_PER_REF
            t, i = nxt, i + 1

    def pass_s(self) -> float:
        """Median duration of one pass over the probes so far."""
        return statistics.median(took for _, took in self.log) * PROBES_PER_REF
