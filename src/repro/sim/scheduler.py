"""The discrete-event scheduler: one event queue, one pop loop.

The engine delivers events in ``(time, seq)`` order -- global FIFO
within a timestamp.  Pending events live in three places:

* **Heap** -- every event scheduled ahead of the clock is a ``(time,
  seq, event)`` tuple in one binary heap, popped in exact ``(time,
  seq)`` order.
* **Now-buffer** -- events scheduled at exactly the current time
  (zero-delay follow-ups, the dominant pattern: DLM evaluation requests
  fired from connection events) bypass the heap into a FIFO deque.  The
  buffer stays sorted by ``(time, seq)`` by construction -- appends
  carry a monotone seq at a monotone clock -- and any heap entry with
  the same timestamp was necessarily scheduled earlier (smaller seq), so
  a plain tuple comparison between the buffer front and the heap top
  reproduces the exact global FIFO order at O(1).
* **Lazy sources** -- future events whose parameters live in an
  external *source*, one per event kind (peer death times in the
  PeerStore ``dv`` column, transport timeouts in per-attempt FIFOs), are
  never materialized at schedule time: :meth:`schedule_lazy` reserves a
  seq (keeping trajectories bit-identical to eager scheduling) and the
  source hands back ``(time, seq, payload)`` rows one *window* at a time
  via ``harvest``, at which point the engine builds the Event.  A
  million pending peer deaths therefore cost two store columns, not a
  million Event objects on a heap, and a timeout answered in time costs
  no Event at all.

Windows are ``bucket_width`` wide and exist only for the sources: every
source row due before the current window's end has been harvested into
the heap, so a heap head inside the window is the true next event.  A
head at or past the end opens the next window that holds an event
(:meth:`_advance`) and harvests the sources up to its end first.

Snapshots are canonical (sorted by ``(time, seq)``, unmaterialized lazy
entries folded in), so the serialized state does not depend on where the
windows fall.  An independent flat-heap model lives in
``tests/sim/reference_heap.py``, which the property tests hold the
engine's pop order, counters and snapshots against.

Handlers are callables ``handler(sim, event)`` registered per event
kind; multiple handlers per kind fire in registration order.  The
registry maps kind -> tuple of handlers; ``on``/``off`` replace the
tuple, so the dispatch loop always iterates an immutable snapshot and a
handler may deregister (or register) handlers for its own kind without
skipping or double-firing anything mid-dispatch.  Handlers may schedule
further events (at or after the current time).

Hot-path notes (dispatch profiled inside a real run with
``repro profile figure6``):

* Queue entries are ``(time, seq, event)`` tuples with unique seqs, so
  comparisons run in C and never reach the Event.
* :meth:`run` inlines the pop/dispatch loop with the structures, clock,
  and handler registry bound to locals; handler tuples are resolved
  with one dict lookup per event.
* The clock is advanced by direct assignment: events pop in
  nondecreasing time order and :meth:`schedule_at` rejects past times,
  so the monotonicity check in :meth:`SimClock.advance_to` is provably
  redundant on this path.
* Payload-less events share one immutable empty mapping instead of
  allocating a fresh dict each (payloads are read-only by contract).
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from math import inf
from types import MappingProxyType
from typing import Any, Callable, Dict, List, Mapping, Optional, Set, Tuple

from .clock import SimClock
from .events import Event
from .rng import RngStreams

__all__ = ["Simulator", "Handler", "LazyEventSource", "StopSimulation"]

Handler = Callable[["Simulator", Event], None]

#: Shared payload for events scheduled without one (read-only mapping).
_EMPTY_PAYLOAD: Mapping[str, Any] = MappingProxyType({})


class StopSimulation(Exception):
    """Raised by a handler to terminate the run immediately."""


class LazyEventSource:
    """Protocol for a columnar store of unmaterialized future events.

    A source owns the ``(time, payload)`` rows of events whose seqs were
    reserved through :meth:`Simulator.schedule_lazy` but whose Event
    objects do not exist yet.  The engine calls:

    * ``kind`` (attribute) -- the event kind every lazy row materializes
      as; :meth:`Simulator.schedule_lazy` routes a kind to its source
      and refuses kinds no source owns.
    * ``lazy_count() -> int`` -- number of unmaterialized rows.
    * ``next_lazy_time() -> float`` -- earliest pending time (``inf``
      when empty); used to pick the next window to open.
    * ``harvest(t_end) -> list[(time, seq, payload)]`` -- remove and
      return every row with ``time < t_end``; the engine materializes
      them into its heap.
    * ``pending_lazy() -> list[(time, seq, payload)]`` -- non-destructive
      enumeration for :meth:`Simulator.snapshot` (order irrelevant; the
      snapshot sorts).

    Cancellation of an unmaterialized row is the source's own business
    (a column write); once a row has been harvested the source must
    route cancellation through :meth:`Simulator.cancel_lazy`.
    """

    kind: str

    def lazy_count(self) -> int:  # pragma: no cover - protocol
        raise NotImplementedError

    def next_lazy_time(self) -> float:  # pragma: no cover - protocol
        raise NotImplementedError

    def harvest(self, t_end: float):  # pragma: no cover - protocol
        raise NotImplementedError

    def pending_lazy(self):  # pragma: no cover - protocol
        raise NotImplementedError


def _staged_event(entry: tuple) -> Event:
    """The Event of a queue entry ``(time, seq, kind, payload, cancelled)``."""
    t, seq, kind, payload, cancelled = entry
    if payload is None:
        payload = _EMPTY_PAYLOAD
    return Event(t, kind, payload, seq, cancelled)


def _plain_payload(payload):
    """Serialize a payload: dict copies (None when empty), scalars as-is."""
    if isinstance(payload, Mapping):
        return dict(payload) or None
    return payload


class Simulator:
    """Discrete-event simulator over one event queue.

    Parameters
    ----------
    seed:
        Root seed for :class:`~repro.sim.rng.RngStreams`; all stochastic
        subsystems must draw from ``sim.rng``.
    start:
        Initial clock value (time units).
    bucket_width:
        Width in time units of the window at which lazy sources are
        harvested.  Pop order is width-independent; width only trades
        harvest calls against materialized lazy events.
    """

    def __init__(
        self,
        seed: int = 0,
        start: float = 0.0,
        *,
        bucket_width: float = 1.0,
    ) -> None:
        if bucket_width <= 0:
            raise ValueError(f"bucket_width must be positive, got {bucket_width}")
        self.clock = SimClock(start)
        self.rng = RngStreams(seed)
        self._width = bucket_width
        #: Every queued event ahead of the clock: heap of (time, seq, Event).
        self._heap: List[Tuple[float, int, Event]] = []
        self._now_buffer: "deque[Tuple[float, int, Event]]" = deque()
        #: End of the current window: every source row due before it
        #: has been harvested into the heap.
        self._active_end = (self._bucket_of(start) + 1) * bucket_width
        #: Attached lazy sources, one per event kind (peer deaths,
        #: transport timeouts).
        self._sources: Dict[str, LazyEventSource] = {}
        #: Materialized-but-undelivered lazy events, by seq (cancel path).
        self._lazy_events: Dict[int, Event] = {}
        #: Seqs of cancelled lazy events still sitting in the heap
        #: as tombstones; snapshots skip them so the canonical queue does
        #: not depend on whether a cancelled row had been materialized
        #: (one cancelled while still in the source is simply gone).
        self._cancelled_lazy: Set[int] = set()
        #: Cancelled events still queued (drained as tombstones pop).
        self._cancelled_pending = 0
        self._handlers: Dict[str, Tuple[Handler, ...]] = {}
        self._events_processed = 0
        self._running = False
        self._next_seq = 0
        self._next_token = 0
        #: Post-restore staging: seq -> plain queue entry, materialized
        #: on demand (restored_event / reclaim_lazy) and finalized into
        #: the live structures at the first run().
        self._staging: Optional[Dict[int, tuple]] = None
        self._restored_events: Dict[int, Event] = {}

    # -- introspection -----------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.clock.now

    @property
    def events_processed(self) -> int:
        """Number of events delivered to handlers so far."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of events still queued, **including** cancelled
        tombstones and unmaterialized lazy entries.  For the count of
        events that will actually fire, see :attr:`live_pending`.
        """
        n = len(self._heap) + len(self._now_buffer)
        if self._staging:
            n += len(self._staging)
        for source in self._sources.values():
            n += source.lazy_count()
        return n

    @property
    def live_pending(self) -> int:
        """Queued events that will actually fire (pending minus cancelled).

        Exact when cancellations are routed through :meth:`cancel` /
        :meth:`cancel_lazy` (every built-in subsystem does); a direct
        ``Event.cancel()`` on a queued event bypasses the counter and
        makes this an overestimate until the tombstone pops.  The other
        way round, :meth:`cancel` does not check that its event is still
        queued: cancelling one that was already delivered counts a
        tombstone that will never pop, so this reads one low (as low as
        -1) until the next :meth:`restore`, which recounts the cancelled
        entries from the restored queue.
        """
        return self.pending - self._cancelled_pending

    def queued_events(self):
        """Iterate the queued events (cancelled included).

        Introspection helper for tests and debugging -- heap array
        order, then the now-buffer, then each source's rows.
        Unmaterialized lazy rows are yielded as freshly built throwaway
        Events (identity is not stable for those).  A pending
        post-restore staging area is finalized first.
        """
        if self._staging is not None:
            self._finalize_restore()
        for entry in self._heap:
            yield entry[2]
        for entry in self._now_buffer:
            yield entry[2]
        for kind, source in self._sources.items():
            for t, seq, payload in sorted(source.pending_lazy()):
                yield _staged_event((t, seq, kind, payload, False))

    # -- wiring --------------------------------------------------------------
    def on(self, kind: str, handler: Handler) -> None:
        """Register ``handler`` for events of ``kind`` (in order).

        The registration is visible from the next event on; the dispatch
        loop iterates an immutable snapshot of the handler tuple, so a
        registration made mid-dispatch never affects the event being
        delivered.
        """
        self._handlers[kind] = self._handlers.get(kind, ()) + (handler,)

    def off(self, kind: str, handler: Handler) -> None:
        """Remove a previously registered handler (first occurrence).

        Safe to call from inside a handler -- even for the handler's own
        kind: the event being dispatched still sees the old tuple, so no
        sibling handler is skipped.  Raises ``ValueError`` if the
        handler was not registered.
        """
        current = self._handlers.get(kind, ())
        try:
            i = current.index(handler)
        except ValueError:
            raise ValueError(f"handler not registered for kind {kind!r}") from None
        self._handlers[kind] = current[:i] + current[i + 1 :]

    def set_lazy_source(self, source: LazyEventSource) -> None:
        """Attach the source that owns unmaterialized events of its kind.

        One source per event kind; the engine harvests every source's
        rows per window.  Re-attaching the same object is a no-op; attaching
        a second source for a kind is a wiring bug and raises.
        """
        owner = self._sources.get(source.kind)
        if owner is not None and owner is not source:
            raise RuntimeError(
                f"a lazy event source for kind {source.kind!r} is already attached"
            )
        self._sources[source.kind] = source

    # -- scheduling ----------------------------------------------------------
    def schedule(
        self,
        delay: float,
        kind: str,
        payload: Optional[Mapping[str, Any]] = None,
    ) -> Event:
        """Schedule an event ``delay`` time units from now; returns it.

        A zero delay is allowed (the event fires after the current one, in
        FIFO order).  Negative delays are rejected.
        """
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        return self.schedule_at(self.clock._now + delay, kind, payload)

    def schedule_at(
        self,
        time: float,
        kind: str,
        payload: Optional[Mapping[str, Any]] = None,
    ) -> Event:
        """Schedule an event at absolute simulated ``time``; returns it."""
        now = self.clock._now
        if time < now:
            raise ValueError(f"cannot schedule in the past: {time} < {now}")
        seq = self._next_seq
        self._next_seq = seq + 1
        ev = Event(time, kind, _EMPTY_PAYLOAD if payload is None else payload, seq)
        if time == now:
            self._now_buffer.append((time, seq, ev))
        else:
            heappush(self._heap, (time, seq, ev))
        return ev

    def schedule_lazy(
        self,
        time: float,
        kind: str,
        payload: Any = None,
    ) -> Tuple[int, Optional[Event]]:
        """Reserve a seq for an event the attached source may own.

        Returns ``(seq, event)``.  The seq is allocated exactly where
        :meth:`schedule_at` would have allocated it, so a run that
        schedules lazily is trajectory-identical to one that schedules
        eagerly.  If ``time`` falls inside the current window the Event
        is materialized immediately and returned -- the caller must not
        record the row in the source, and may still set the event's
        payload, which nothing reads before it fires.  Otherwise
        ``event`` is None and the caller owns the ``(time, payload)``
        row until the engine harvests it (or the source cancels it).
        """
        now = self.clock._now
        if time < now:
            raise ValueError(f"cannot schedule in the past: {time} < {now}")
        seq = self._next_seq
        self._next_seq = seq + 1
        if time == now or time < self._active_end:
            ev = Event(
                time, kind, _EMPTY_PAYLOAD if payload is None else payload, seq
            )
            self._lazy_events[seq] = ev
            if time == now:
                self._now_buffer.append((time, seq, ev))
            else:
                heappush(self._heap, (time, seq, ev))
            return seq, ev
        if kind not in self._sources:
            raise RuntimeError(
                "schedule_lazy beyond the current window needs a lazy source "
                f"registered for kind {kind!r} (set_lazy_source)"
            )
        return seq, None

    # -- cancellation --------------------------------------------------------
    def cancel(self, ev: Optional[Event]) -> bool:
        """Cancel a queued event, keeping :attr:`live_pending` exact.

        Prefer this over ``Event.cancel()`` for events that are still in
        the queue.  None-safe; returns False for None or an
        already-cancelled event.
        """
        if ev is None or ev.cancelled:
            return False
        ev.cancelled = True
        self._cancelled_pending += 1
        return True

    def cancel_lazy(self, seq: int) -> bool:
        """Cancel a lazily scheduled event that was already materialized.

        The source calls this when its own row for ``seq`` is gone
        (harvested).  Returns False if the event is not pending anymore
        -- already delivered or already cancelled -- which is a normal
        race (e.g. a peer killed from its own death event).
        """
        ev = self._lazy_events.pop(seq, None)
        if ev is None or ev.cancelled:
            return False
        ev.cancelled = True
        self._cancelled_pending += 1
        self._cancelled_lazy.add(seq)
        return True

    def next_process_token(self) -> int:
        """Allocate a deterministic identity token for a recurring process.

        Tokens are handed out in wiring order, so a system rebuilt from the
        same config allocates the same token to each process -- which is
        what lets a restored event queue re-associate pending periodic
        events with their owning processes (payloads carry the token, never
        a memory address).
        """
        token = self._next_token
        self._next_token = token + 1
        return token

    # -- windows ---------------------------------------------------------------
    def _bucket_of(self, t: float) -> int:
        """Absolute window index of ``t``, robust to float rounding.

        ``t // width`` is exact for the default width 1.0; for other
        widths the one-ulp fixups guarantee ``idx*width <= t <
        (idx+1)*width``, which is what window-advance progress and
        pop-order correctness rely on.
        """
        w = self._width
        idx = int(t // w)
        if t < idx * w:
            idx -= 1
        elif t >= (idx + 1) * w:
            idx += 1
        return idx

    def _advance(self, until: Optional[float]) -> bool:
        """Open the next window that holds an event; False when none is due.

        The window is the earliest of the heap head's and each lazy
        source's earliest row; every source row due before its end is
        harvested into the heap.  Windows only move forward.
        """
        width = self._width
        heap = self._heap
        best: Optional[int] = None
        if heap:
            best = self._bucket_of(heap[0][0])
        sources = self._sources
        for source in sources.values():
            t = source.next_lazy_time()
            if t != inf:
                b = self._bucket_of(t)
                if best is None or b < best:
                    best = b
        if best is None:
            return False
        start = best * width
        if until is not None and start > until:
            return False
        end = start + width
        self._active_end = end
        for kind, source in sources.items():
            harvested = source.harvest(end)
            if harvested:
                lazy = self._lazy_events
                for t, seq, payload in harvested:
                    ev = Event(
                        t, kind, _EMPTY_PAYLOAD if payload is None else payload, seq
                    )
                    lazy[seq] = ev
                    heappush(heap, (t, seq, ev))
        return True

    # -- execution -----------------------------------------------------------
    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Run until the queue drains, the clock passes ``until``, or
        ``max_events`` further events have been delivered.

        Events scheduled exactly at ``until`` are delivered (the horizon is
        inclusive), matching the "run to time T" convention the experiment
        harness uses for its final metrics sample.  The run stops as soon
        as the last allowed event is delivered, so ``run(max_events=1)``
        delivers exactly the next live event and pops no tombstone after it.
        """
        if self._staging is not None:
            self._finalize_restore()
        self._running = True
        delivered = 0
        heap = self._heap
        buffer = self._now_buffer
        registry = self._handlers
        clock = self.clock
        try:
            while True:
                if max_events is not None and delivered >= max_events:
                    break
                if buffer and (not heap or buffer[0] < heap[0]):
                    use_buffer = True
                    head = buffer[0]
                elif heap and heap[0][0] < self._active_end:
                    use_buffer = False
                    head = heap[0]
                else:
                    if self._advance(until):
                        continue
                    break
                if until is not None and head[0] > until:
                    break
                if use_buffer:
                    buffer.popleft()
                else:
                    heappop(heap)
                ev = head[2]
                if ev.cancelled:
                    if self._cancelled_pending:
                        self._cancelled_pending -= 1
                    if self._cancelled_lazy:
                        self._cancelled_lazy.discard(head[1])
                    continue
                clock._now = head[0]
                self._events_processed += 1
                if self._lazy_events:
                    self._lazy_events.pop(head[1], None)
                handlers = registry.get(ev.kind)
                if handlers:
                    for handler in handlers:
                        handler(self, ev)
                delivered += 1
        except StopSimulation:
            pass
        finally:
            self._running = False
        if until is not None and clock._now < until and self.live_pending == 0:
            # Drained early: jump the clock to the horizon so that metric
            # timestamps computed from `now` are well defined.  Live
            # emptiness, not physical emptiness: a cancelled tombstone
            # beyond the horizon still sits in the queue if it had been
            # materialized but is already gone if it was a source row,
            # and the clock must not depend on which (the old core purged
            # tombstones first and jumped, so live emptiness is also the
            # seed semantics).
            clock._now = until

    # -- checkpointing -------------------------------------------------------
    def snapshot(self) -> dict:
        """Capture the engine state (clock, queue, counters, RNG streams).

        The queue is serialized canonically: plain ``(time, seq, kind,
        payload, cancelled)`` tuples sorted by ``(time, seq)``, with
        unmaterialized lazy rows folded in from the source and cancelled
        lazy tombstones skipped.  The bytes therefore do not depend on
        the window width or on which rows had been materialized, and a
        sorted array is a valid heap for the restore path.  Payloads
        must be plain data (ints/floats/strings and dicts thereof),
        which every built-in subsystem honors.
        Handler wiring is deliberately *not* captured: the composition
        root re-derives it by re-wiring the system from config.
        """
        skip = self._cancelled_lazy
        entries = []
        for queued in (self._heap, self._now_buffer):
            for t, seq, ev in queued:
                if seq not in skip:
                    entries.append(
                        (t, seq, ev.kind, _plain_payload(ev.payload), ev.cancelled)
                    )
        if self._staging:
            entries.extend(self._staging.values())
        for kind, source in self._sources.items():
            for t, seq, payload in source.pending_lazy():
                entries.append((t, seq, kind, payload, False))
        entries.sort(key=lambda e: (e[0], e[1]))
        return {
            "clock": self.clock._now,
            "events_processed": self._events_processed,
            "next_seq": self._next_seq,
            "next_token": self._next_token,
            "queue": entries,
            "rng": self.rng.snapshot(),
        }

    def restore(self, state: dict) -> None:
        """Replace the engine state with a :meth:`snapshot`.

        Any events scheduled during re-wiring (first periodic firings,
        scenario shifts, populate bursts) are discarded wholesale: the
        restored queue *is* the complete pending-event set.  The queue
        is *staged*, not materialized: components holding references
        into it re-link via :meth:`restored_event` (materializing just
        their own entries), the churn driver and the transport hand their
        pending deaths and timeouts straight back to their lazy sources
        via :meth:`reclaim_lazy` (never building their Events at all),
        and whatever remains is
        finalized into the heap at the first :meth:`run`.
        """
        self.clock._now = state["clock"]
        self._events_processed = state["events_processed"]
        self._next_seq = state["next_seq"]
        self._next_token = state["next_token"]
        self._heap = []
        self._now_buffer.clear()
        self._lazy_events = {}
        self._cancelled_lazy = set()
        self._active_end = (self._bucket_of(self.clock._now) + 1) * self._width
        staging: Dict[int, tuple] = {}
        cancelled = 0
        for entry in state["queue"]:
            staging[entry[1]] = tuple(entry)
            if entry[4]:
                cancelled += 1
        self._staging = staging
        self._cancelled_pending = cancelled
        self._restored_events = {}
        self.rng.restore(state["rng"])

    def restored_event(self, seq: Optional[int]) -> Optional[Event]:
        """Look up a queue event by seq after :meth:`restore` (None-safe).

        Materializes the staged entry on first access (idempotent: later
        calls return the same object).  Raises ``KeyError`` for a seq
        that was not in the restored queue -- a component trying to
        adopt an event that no longer exists is a checkpoint-consistency
        bug, not a condition to paper over.
        """
        if seq is None:
            return None
        ev = self._restored_events.get(seq)
        if ev is not None:
            return ev
        if self._staging is None:
            raise KeyError(seq)
        entry = self._staging.pop(seq)
        # Never the now-buffer: an entry at exactly the restored clock
        # goes to the heap, where the (time, seq) merge rule pops it
        # identically.
        ev = self._restored_events[seq] = _staged_event(entry)
        heappush(self._heap, (entry[0], seq, ev))
        return ev

    def reclaim_lazy(self, seq: int) -> Tuple[float, Any, bool]:
        """Hand a staged entry back to the lazy source after restore.

        Returns ``(time, payload, rematerialized)``.  When the entry's
        time falls inside the current window it is materialized into the
        heap instead -- ``rematerialized`` is True and the caller
        must not record the row in the source.
        Raises ``KeyError`` for an unknown seq and ``RuntimeError`` once
        the staging area has been finalized.
        """
        if self._staging is None:
            raise RuntimeError("reclaim_lazy after the restore was finalized")
        entry = self._staging.pop(seq)
        t, payload = entry[0], entry[3]
        if t < self._active_end:
            ev = self._lazy_events[seq] = _staged_event(entry)
            heappush(self._heap, (t, seq, ev))
            return t, payload, True
        return t, payload, False

    def _finalize_restore(self) -> None:
        """Materialize whatever is still staged and resume normal service.

        By the time this runs (first ``run()`` after a restore) the
        churn driver and the transport have reclaimed every lazy death
        and timeout, so what remains is the small eager set: periodic
        firings, scenario shifts, messages in flight.
        """
        staging = self._staging
        self._staging = None
        if not staging:
            return
        restored = self._restored_events
        heap = self._heap
        for entry in staging.values():
            ev = restored[entry[1]] = _staged_event(entry)
            heap.append((entry[0], entry[1], ev))
        heapify(heap)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self.now:.3f}, "
            f"pending={self.pending}, processed={self._events_processed})"
        )
