"""The death ledger: peer deaths as a store column, not Event objects.

At the million-peer scale the pending-event heap used to hold one
scheduled ``PEER_LEAVE`` Event per live peer -- ~200MB of Event objects
and heap entries, almost all of them far in the future (heavy-tailed
session times make distant deaths the common case).  The ledger keeps
each pending death as two scalars in the :class:`PeerStore` columns
instead:

* ``dv`` (float64) -- the death time; ``+inf`` means "no unmaterialized
  death pending for this slot" (none scheduled, already harvested into
  the active window, or cancelled).
* ``dseq`` (int64) -- the scheduler seq reserved for the death at
  schedule time; ``-1`` means none.  The seq is allocated by
  :meth:`Simulator.schedule_lazy` exactly where the old eager
  ``schedule_at`` allocated it, so trajectories (and checkpoint bytes)
  are identical to eager scheduling.

The ledger is the simulator's :class:`LazyEventSource`: the calendar
engine asks it for the earliest pending death when picking the next
window to open and *harvests* the rows falling inside that window, at
which point real Events exist -- briefly, in the active heap -- until
delivery.  Cancellation (churn replacement kills, injected failures) is
a column write while unmaterialized, and falls through to
:meth:`Simulator.cancel_lazy` once harvested.
"""

from __future__ import annotations

from math import inf

import numpy as np

from ..overlay.peerstore import PeerStore
from ..sim.events import EventKind
from ..sim.scheduler import Simulator

__all__ = ["DeathLedger"]


class DeathLedger:
    """Columnar lazy-event source for scheduled peer deaths."""

    #: The kind every harvested row materializes as.
    kind = EventKind.PEER_LEAVE

    def __init__(self, sim: Simulator, store: PeerStore) -> None:
        self.sim = sim
        self.store = store
        #: Unmaterialized deaths (rows with ``dv < inf``); kept as a
        #: counter so ``lazy_count`` is O(1).
        self._pending = 0
        sim.set_lazy_source(self)

    # -- driver-facing API -------------------------------------------------
    def schedule(self, slot: int, pid: int, time: float) -> None:
        """Reserve the death of ``pid`` at ``time`` (lazily if far)."""
        seq, materialized = self.sim.schedule_lazy(time, self.kind, pid)
        store = self.store
        store.dseq[slot] = seq
        if not materialized:
            store.dv[slot] = time
            self._pending += 1

    def cancel(self, slot: int) -> bool:
        """Cancel the slot's pending death (a column write when lazy).

        Returns False when nothing was pending -- including the normal
        case of a peer dying from its own (already delivered) death
        event.
        """
        store = self.store
        seq = int(store.dseq[slot])
        if seq < 0:
            return False
        store.dseq[slot] = -1
        if store.dv[slot] != inf:
            store.dv[slot] = inf
            self._pending -= 1
            return True
        return self.sim.cancel_lazy(seq)

    def adopt(self, slot: int, seq: int, sim: Simulator) -> None:
        """Re-own a checkpointed death after :meth:`Simulator.restore`.

        Pulls the staged entry straight back into the columns (no Event
        is built) unless its time falls inside the restored active
        window, in which case the engine rematerializes it.
        """
        time, _payload, rematerialized = sim.reclaim_lazy(seq)
        store = self.store
        store.dseq[slot] = seq
        if not rematerialized:
            store.dv[slot] = time
            self._pending += 1

    # -- LazyEventSource protocol ------------------------------------------
    def lazy_count(self) -> int:
        return self._pending

    def next_lazy_time(self) -> float:
        if not self._pending:
            return inf
        store = self.store
        return float(store.dv[: store._size].min())

    def harvest(self, t_end: float):
        """Remove and return rows with ``dv < t_end`` as engine tuples.

        ``dseq`` is deliberately kept: it is how a later kill finds the
        materialized event (via ``cancel_lazy``) and how the driver's
        checkpoint snapshot enumerates pending deaths.
        """
        if not self._pending:
            return ()
        store = self.store
        n = store._size
        dv = store.dv[:n]
        slots = np.nonzero(dv < t_end)[0]
        if not len(slots):
            return ()
        dseq = store.dseq
        pid = store.pid
        out = [
            (float(dv[s]), int(dseq[s]), int(pid[s])) for s in slots
        ]
        dv[slots] = inf
        self._pending -= len(slots)
        return out

    def pending_lazy(self):
        """Non-destructive enumeration of unmaterialized rows (snapshot)."""
        if not self._pending:
            return ()
        store = self.store
        n = store._size
        dv = store.dv[:n]
        slots = np.nonzero(dv < inf)[0]
        dseq = store.dseq
        pid = store.pid
        return [(float(dv[s]), int(dseq[s]), int(pid[s])) for s in slots]
