"""In-run host calibration: the denominator of ``wall_norm``.

This host's speed moves by 1.5x on a timescale of seconds (README.md,
*Why not raw seconds*), so a calibration taken before and after a run
says little about the host *during* it -- measured here, bracketing
made the spread worse than raw seconds.  Instead an interval timer
interrupts the benchmarked call every :data:`PERIOD_S` and executes one
slice of a fixed, repo-independent pure-Python kernel (heap push/pop,
dict store, float math: the interpreter operations the simulator's hot
paths are made of) inside the signal handler, on the same core, while
the run is suspended.  Each stretch of the run is then divided by the
local slice duration (the mean of the slices within :data:`SMOOTH`
ticks of it, ~50 ms: wide enough to average out a preempted slice,
narrow enough to follow the host):

    wall_norm = sum_i  run_stretch_i / local_slice_i     [kernel slices]

i.e. how many kernel slices the host could have executed in the time
the run took, at the speed the host had while the run was executing.
The time spent inside slices is not part of any stretch, so it never
counts as run time.

The kernel imports nothing from the repo: no change to ``src/`` can
move it.  :data:`PERIOD_S`, :data:`SLICE_STEPS` and :data:`SMOOTH` are
part of the unit's definition; changing one rescales every recorded
value.  They were chosen by replaying recorded tick marks of 16 runs
through the candidate estimators: a global mean had a quartile spread
of 1.5 % but a range of 8 %, the single adjacent slice 2.7 %, and
+-5 ticks 1.4 % with a range of 5.7 %, while raw seconds spread 9.5 %
with a range of 79 %.
"""

from __future__ import annotations

import math
import signal
from heapq import heappop, heappush
from time import perf_counter
from typing import Callable, List, Optional, Tuple

__all__ = ["PERIOD_S", "SLICE_STEPS", "SMOOTH", "kernel", "InRunCalibration"]

#: Timer period.  With ~1.4 ms slices this costs ~22 % of the wall time.
PERIOD_S = 0.005
#: Loop trips of one kernel slice (~1.4 ms on the reference host).
SLICE_STEPS = 1750
#: A stretch is priced with the mean of the slices this many ticks
#: either side of it.
SMOOTH = 5


def kernel(steps: int = SLICE_STEPS) -> float:
    """Run the fixed loop; the checksum makes the work observable."""
    heap: list = []
    table: dict = {}
    x = 0.5
    acc = 0.0
    for i in range(steps):
        x = 3.9 * x * (1.0 - x)  # logistic map: cheap, never settles
        heappush(heap, (x, i))
        table[i & 4095] = x
        # A bounded heap: the kernel must not move the child's peak RSS.
        if len(heap) > 1024:
            t, j = heappop(heap)
            acc += math.sqrt(t) + table.get(j & 4095, 0.0)
    return acc


class InRunCalibration:
    """Context manager sampling the kernel while its block executes.

    After the block: :attr:`wall_s` is the block's wall time *without*
    the slices, :attr:`units` the locally normalised time (see module
    docstring), :attr:`slices` how many slices ran and
    :attr:`slice_s` their mean duration.  ``wrap`` lets a tracer take
    the slices out of the enclosing span's self time.
    """

    def __init__(self, wrap: Optional[Callable[[Callable], Callable]] = None) -> None:
        self._marks: List[Tuple[float, float]] = []
        self._handler = wrap(self._tick) if wrap is not None else self._tick
        self.wall_s = self.units = self.slice_s = 0.0
        self.slices = 0

    def _tick(self, signum=None, frame=None) -> None:
        t0 = perf_counter()
        kernel()
        self._marks.append((t0, perf_counter()))

    def __enter__(self) -> "InRunCalibration":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        self._start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        end = perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        if not self._marks:
            # A block shorter than one period: price it with one slice
            # taken right after it.
            self._tick()
            t0, t1 = self._marks[0]
            self.wall_s = end - self._start
            self.units = self.wall_s / (t1 - t0)
            self.slices, self.slice_s = 1, t1 - t0
            return
        durations = [t1 - t0 for t0, t1 in self._marks]
        n = len(durations)
        cursor = self._start
        local = 0.0
        for i, (t0, t1) in enumerate(self._marks):
            window = durations[max(0, i - SMOOTH) : i + SMOOTH + 1]
            local = sum(window) / len(window)
            self.units += (t0 - cursor) / local
            self.wall_s += t0 - cursor
            cursor = t1
        # The stretch after the last slice is priced like the one before.
        self.units += (end - cursor) / local
        self.wall_s += end - cursor
        self.slices = n
        self.slice_s = sum(durations) / n
