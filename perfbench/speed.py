"""Machine speed probe: the time of a fixed pure-Python loop.

The benchmark's host shares its cores, and the same job runs up to 1.6
times slower from one minute to the next (CPU time too, not only wall).
Every timing the benchmark reports is therefore scaled to a reference
speed: measured seconds times REF_S / (mean loop time around and during
that job).  The loop does the kind of work the program does (Fraction
arithmetic, tuple keys, dict inserts), so both slow down together: over
24 repeats of each job in five minutes, the log of a job's solve time
followed the log of the loop time sampled inside it with slope 0.95-1.09
(r^2 0.89-0.97) for every job longer than 0.1 s.  Loop times taken
between jobs track less well (slope 0.5-1.0), so they only fill in for
short jobs.

`probe(k)` times the loop k times in the calling process.  `Sampler` times
it from a SIGALRM handler every PERIOD_S seconds while a job runs, so a
long job is sampled throughout; the handler's own time is recorded so the
caller can take it out of the job's times.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

# a typical loop time (s) inside a job on the reference machine (2-vCPU
# Xeon VM, Python 3.11.7); reported seconds are seconds at that speed
REF_S = 0.001
PERIOD_S = 0.025


def loop(n: int = 200) -> int:
    acc = Fraction(0)
    table = {}
    for i in range(1, n):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        table[(i % 17, i % 5, i)] = acc
    return len(table)


def _timed() -> float:
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.monotonic()
    loop()
    t = time.monotonic() - t0
    if enabled:
        gc.enable()
    return t


def probe(k: int) -> list[float]:
    return [_timed() for _ in range(k)]


class Sampler:
    """Times the loop every PERIOD_S seconds of wall time, from a signal."""

    def __init__(self):
        self.samples: list[list[float]] = []  # [start, loop s, handler s]

    def _tick(self, signum, frame):
        t0 = time.monotonic()
        t = _timed()
        self.samples.append([t0, t, time.monotonic() - t0])

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False
