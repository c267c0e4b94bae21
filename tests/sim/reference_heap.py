"""Reference model for :class:`repro.sim.scheduler.Simulator`.

A flat binary heap, kept as the oracle
``tests/properties/test_scheduler_props.py`` compares the event queue
against: one ``heapq`` of ``[time, seq, kind, cancelled, lazy]`` entries
popped in ``(time, seq)`` order.  It has no windows, no now-buffer, no
lazy source and no staging area, and shares no code with the engine it
checks -- a
lazy event is an ordinary entry that remembers it was scheduled lazily,
because two engine behaviours depend on that and nothing else does.

Two accounting behaviours of the engine are pinned here on purpose:

* ``Simulator.cancel`` does not look whether the event is still queued,
  so cancelling an *already delivered* eager event still counts one
  cancelled-pending and ``live_pending`` can read one low (even -1).
  ``cancel_lazy`` does look: a delivered lazy event is a normal race.
* ``Simulator.restore`` recounts cancelled-pending from the restored
  queue, which drops that skew; cancelled lazy tombstones are not part
  of a snapshot at all, cancelled eager ones are.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import List, Optional

__all__ = ["ReferenceHeap"]

TIME, SEQ, KIND, CANCELLED, LAZY = range(5)


class ReferenceHeap:
    """A flat-heap event queue with the scheduler's observable surface."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = start
        self.heap: List[list] = []
        self.next_seq = 0
        self.events_processed = 0
        self.cancelled_pending = 0
        self.delivered = set()
        self.log = []

    @property
    def live_pending(self) -> int:
        return len(self.heap) - self.cancelled_pending

    def schedule_at(self, time: float, kind: str, lazy: bool = False) -> list:
        assert time >= self.now
        entry = [time, self.next_seq, kind, False, lazy]
        self.next_seq += 1
        heappush(self.heap, entry)
        return entry

    def cancel(self, entry: list) -> bool:
        if entry[CANCELLED] or (entry[LAZY] and entry[SEQ] in self.delivered):
            return False
        entry[CANCELLED] = True
        self.cancelled_pending += 1
        return True

    def _pop(self) -> Optional[list]:
        """Pop the head; deliver it unless it is a tombstone."""
        entry = heappop(self.heap)
        if entry[CANCELLED]:
            self.cancelled_pending -= 1
            return None
        self.now = entry[TIME]
        self.events_processed += 1
        self.delivered.add(entry[SEQ])
        self.log.append((entry[TIME], entry[SEQ], entry[KIND]))
        return entry

    def step(self) -> Optional[list]:
        while self.heap:
            entry = self._pop()
            if entry is not None:
                return entry
        return None

    def run(self, until: Optional[float] = None) -> None:
        while self.heap and (until is None or self.heap[0][TIME] <= until):
            self._pop()
        if until is not None and self.now < until and self.live_pending == 0:
            self.now = until

    def queue(self) -> list:
        """The canonical queue: ``Simulator.snapshot()["queue"]``."""
        return [
            (e[TIME], e[SEQ], e[KIND], None, e[CANCELLED])
            for e in sorted(self.heap)
            if not (e[CANCELLED] and e[LAZY])
        ]

    def restore(self) -> None:
        """Become what restoring :meth:`queue` into a fresh engine gives."""
        self.heap = [e for e in self.heap if not (e[CANCELLED] and e[LAZY])]
        heapify(self.heap)
        self.cancelled_pending = sum(e[CANCELLED] for e in self.heap)
