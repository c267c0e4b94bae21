"""Recurring-process helpers built on the event scheduler.

Two patterns recur throughout the experiments:

* **Periodic processes** -- metrics sampling every ``interval`` units, the
  periodic variant of DLM's information exchange, the per-unit overhead
  ledger rollover for Table 3.
* **Renewal (arrival) processes** -- query issuance and, during warm-up,
  peer arrivals, where the gap to the next firing is redrawn each time.

Both are expressed as small driver objects that reschedule themselves.

Checkpointing notes:

* Each process owns a :meth:`Simulator.next_process_token` integer and
  stamps it into its event payloads.  Tokens are allocated in wiring
  order, so a system re-wired from the same config gives every process
  the same token -- which is how a restored queue's pending periodic
  events find their owners again (``id(self)`` would be a fresh address
  in every process/run).
* The *next* firing is scheduled **before** the action runs.  A snapshot
  taken from inside an action (the checkpoint writer is itself a periodic
  process) therefore always sees its own next event already in the queue
  with a definite seq, instead of a dangling reference to the event
  currently being delivered.
"""

from __future__ import annotations

from typing import Callable, Optional

from .events import Event
from .scheduler import Simulator

__all__ = ["PeriodicProcess", "RenewalProcess"]


class PeriodicProcess:
    """Invoke ``action(sim, time)`` every ``interval`` time units.

    The first firing is at ``start`` (default: one interval from now).
    Call :meth:`stop` to cancel future firings.
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        action: Callable[[Simulator, float], None],
        *,
        start: Optional[float] = None,
        kind: str = "periodic_process",
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self._sim = sim
        self._interval = float(interval)
        self._action = action
        self._kind = kind
        self._stopped = False
        self._token = sim.next_process_token()
        self._payload = {"process": self._token}  # read-only, shared by firings
        self._pending: Optional[Event] = None
        sim.on(kind, self._fire)
        first = sim.now + self._interval if start is None else float(start)
        self._pending = sim.schedule_at(first, kind, self._payload)

    @property
    def interval(self) -> float:
        """The firing period."""
        return self._interval

    def _fire(self, sim: Simulator, event: Event) -> None:
        if self._stopped or event.payload.get("process") != self._token:
            return
        # Reschedule first: the action may snapshot the system (checkpoint
        # writer) or stop() this process (stop cancels the event just made).
        self._pending = sim.schedule(self._interval, self._kind, self._payload)
        self._action(sim, sim.now)

    def stop(self) -> None:
        """Cancel all future firings."""
        self._stopped = True
        if self._pending is not None:
            self._sim.cancel(self._pending)
            self._pending = None

    def snapshot(self) -> dict:
        """Capture the recurrence state (token, stopped flag, pending seq)."""
        return {
            "token": self._token,
            "stopped": self._stopped,
            "pending": None if self._pending is None else self._pending.seq,
        }

    def restore(self, state: dict, sim: Simulator) -> None:
        """Adopt the pending event from a restored queue by seq."""
        if state["token"] != self._token:
            raise ValueError(
                f"process token mismatch: snapshot has {state['token']}, "
                f"re-wired process got {self._token}; the restored system "
                "was wired with a different process structure"
            )
        self._stopped = state["stopped"]
        if self._pending is not None:
            # The wiring-scheduled first firing: sim.restore() already
            # discarded it from the queue, so flag the orphan Event
            # directly -- sim.cancel() would corrupt the live_pending
            # accounting with a tombstone that never pops.
            self._pending.cancel()
        self._pending = sim.restored_event(state["pending"])


class RenewalProcess:
    """Invoke ``action`` at gaps drawn from ``gap_sampler()`` each firing.

    ``gap_sampler`` returns the next inter-event time; non-positive samples
    are clamped to a tiny epsilon so a degenerate sampler cannot wedge the
    clock.
    """

    _EPS = 1e-9

    def __init__(
        self,
        sim: Simulator,
        gap_sampler: Callable[[], float],
        action: Callable[[Simulator, float], None],
        *,
        kind: str = "renewal_process",
    ) -> None:
        self._sim = sim
        self._gap_sampler = gap_sampler
        self._action = action
        self._kind = kind
        self._stopped = False
        self._token = sim.next_process_token()
        self._payload = {"process": self._token}  # see PeriodicProcess
        self._pending: Optional[Event] = None
        sim.on(kind, self._fire)
        self._schedule_next()

    def _schedule_next(self) -> None:
        gap = max(float(self._gap_sampler()), self._EPS)
        self._pending = self._sim.schedule(gap, self._kind, self._payload)

    def _fire(self, sim: Simulator, event: Event) -> None:
        if self._stopped or event.payload.get("process") != self._token:
            return
        # Reschedule first (see PeriodicProcess._fire): the next gap is
        # drawn before the action's own draws, keeping the stream's sample
        # path well-defined at any snapshot boundary.
        self._schedule_next()
        self._action(sim, sim.now)

    def stop(self) -> None:
        """Cancel all future firings."""
        self._stopped = True
        if self._pending is not None:
            self._sim.cancel(self._pending)
            self._pending = None

    def snapshot(self) -> dict:
        """Capture the recurrence state (token, stopped flag, pending seq)."""
        return {
            "token": self._token,
            "stopped": self._stopped,
            "pending": None if self._pending is None else self._pending.seq,
        }

    def restore(self, state: dict, sim: Simulator) -> None:
        """Adopt the pending event from a restored queue by seq."""
        if state["token"] != self._token:
            raise ValueError(
                f"process token mismatch: snapshot has {state['token']}, "
                f"re-wired process got {self._token}; the restored system "
                "was wired with a different process structure"
            )
        self._stopped = state["stopped"]
        if self._pending is not None:
            # Orphan wiring event, already discarded by sim.restore();
            # see PeriodicProcess.restore.
            self._pending.cancel()
        self._pending = sim.restored_event(state["pending"])
