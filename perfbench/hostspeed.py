"""Host speed sampling, to scale measured times to a reference speed.

The speed of a shared host drifts by tens of percent within seconds: on a
shared 2-CPU Intel Xeon virtual machine each CPU switched, every few seconds,
between a fast and a slow state in which the same first-route search took
1.65 times as long, and the same run of the planner to its fixpoint took 6.5 s
in one run and 14 s in another. ``HostSpeed`` times a fixed piece of
reference work every ``PERIOD_S`` from a ``SIGALRM`` handler. An operation's
scale is ``REFERENCE_S`` over the mean reference time sampled during the
operation, or over the last ``MIN_SAMPLES`` samples when it is shorter, so
``seconds * scale`` is the time the operation would take at the speed at
which the reference work takes ``REFERENCE_S``. The reference work never
calls the package, so a change to the package cannot change it. Time spent
sampling inside an operation is not counted.

The reference work is a small local search in pure Python: list copies,
slice reversals, random draws and a generator sum over nested lists, like
the solver's GA moves and the planner's per-node loops. It was chosen on
that host by repeating, in turn for 7 minutes, a 600-node planner run to its
fixpoint, ten 2 000-node first-route searches and three solves, while
sampling three candidates. Scaled by this one, the means of the four
100-second stretches of the experiment differed by 0.03-0.04 (standard
deviation over mean; 0.11-0.14 unscaled), and single operations varied by
0.07-0.14 (0.21-0.24 unscaled). A Dijkstra search over a 500-node graph
left 0.05-0.06 between stretches, and one over a 100 000-node graph
0.05-0.065.
"""

from __future__ import annotations

import bisect
import math
import random
import signal
import statistics
import time
from contextlib import contextmanager
from typing import Iterator, NamedTuple

clock = time.perf_counter

REFERENCE_S = 1e-3  # about the reference work's time on an idle host
PERIOD_S = 0.1
MIN_SAMPLES = 3

_CITIES = 12
_MOVES = 120
_rng = random.Random(0)
_WEIGHTS = [[_rng.random() for _ in range(_CITIES)] for _ in range(_CITIES)]


def reference_work() -> float:
    """A fixed local search: ``_MOVES`` random segment reversals of a tour over ``_WEIGHTS``."""
    rng = random.Random(1)
    tour = list(range(_CITIES))
    best = math.inf
    for _ in range(_MOVES):
        i, j = sorted(rng.sample(range(1, _CITIES - 1), 2))
        cand = tour[:]
        cand[i:j] = reversed(cand[i:j])
        cost = sum(_WEIGHTS[cand[k]][cand[k + 1]] for k in range(_CITIES - 1))
        if cost < best:
            best, tour = cost, cand
    return best


class Mark(NamedTuple):
    paused: float
    start: float


class HostSpeed:
    def __init__(self) -> None:
        self.times: list[float] = []  # when each sample ended, ascending
        self.loops: list[float] = []  # seconds the reference work took
        self.paused = 0.0

    def _sample(self) -> None:
        t0 = clock()
        reference_work()
        t1 = clock()
        self.times.append(t1)
        self.loops.append(t1 - t0)

    def _on_alarm(self, signum: int, frame: object) -> None:
        t0 = clock()
        self._sample()
        self.paused += clock() - t0

    @contextmanager
    def sampling(self) -> Iterator["HostSpeed"]:
        """Sample every ``PERIOD_S`` while the block runs."""
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def start(self) -> Mark:
        """Begin timing an operation."""
        return Mark(self.paused, clock())

    def elapsed(self, mark: Mark) -> float:
        """Seconds since ``mark``, less the time spent sampling."""
        return clock() - mark.start - (self.paused - mark.paused)

    def stop(self, mark: Mark) -> tuple[float, float]:
        """(seconds since ``mark`` less sampling time, scale to the reference speed)."""
        seconds = self.elapsed(mark)
        first = min(bisect.bisect_left(self.times, mark.start), len(self.loops) - MIN_SAMPLES)
        return seconds, REFERENCE_S / statistics.fmean(self.loops[max(first, 0) :])
