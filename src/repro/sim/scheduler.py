"""The discrete-event scheduler: a calendar-queue engine.

The engine orders events by ``(time, seq)`` -- global FIFO within a
timestamp -- exactly as the original binary-heap core did, but the
backing structure is a calendar queue (hashed timing wheel) so that the
hot operations are O(1) instead of O(log n):

* **Active window** -- events due inside the current time window
  (``[start, start + bucket_width)``) live in a small binary heap of
  ``(time, seq, event)`` tuples, popped in exact ``(time, seq)`` order.
* **Now-buffer** -- events scheduled at exactly the current time
  (zero-delay follow-ups, the dominant pattern: DLM evaluation requests
  fired from connection events) bypass the heap into a FIFO deque.  The
  buffer stays sorted by ``(time, seq)`` by construction -- appends
  carry a monotone seq at a monotone clock -- and any heap entry with
  the same timestamp was necessarily scheduled earlier (smaller seq), so
  a plain tuple comparison between the buffer front and the heap top
  reproduces the exact global FIFO order at O(1).
* **Buckets** -- events beyond the active window are appended to a
  per-window list (``dict[int, list]`` keyed by absolute window index);
  scheduling is one dict lookup + append.  When the active window
  drains, the next occupied window's bucket is merged into the active
  heap (:meth:`_advance`).  Each event is touched O(1) times amortized.
* **Lazy events** -- far-future events whose parameters live in an
  external columnar *source* (peer death times in the PeerStore ``dv``
  column) are never materialized at schedule time: :meth:`schedule_lazy`
  reserves a seq (keeping trajectories bit-identical to eager
  scheduling) and the source hands back ``(time, seq, payload)`` rows
  per window via ``harvest``, at which point the engine builds the
  Event.  A million pending peer deaths therefore cost two numpy
  columns, not a million Event objects on a heap.

Snapshots are canonical (sorted by ``(time, seq)``, unmaterialized lazy
entries folded in), so the serialized state does not depend on where the
windows fall.  The flat heap survives as an independent model in
``tests/sim/reference_heap.py``, which the property tests hold the
engine's pop order, counters and snapshots against.

Handlers are callables ``handler(sim, event)`` registered per event
kind; multiple handlers per kind fire in registration order.  The
registry maps kind -> tuple of handlers; ``on``/``off`` replace the
tuple, so the dispatch loop always iterates an immutable snapshot and a
handler may deregister (or register) handlers for its own kind without
skipping or double-firing anything mid-dispatch.  Handlers may schedule
further events (at or after the current time).

Hot-path notes (profiled with ``python -m repro.profile scheduler``):

* Heap and bucket entries are ``(time, seq, event)`` tuples, not
  events, so comparisons run in C instead of dispatching
  ``Event.__lt__``.
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
from heapq import heappop, heappush
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
      as; :meth:`Simulator.schedule_lazy` refuses other kinds.
    * ``lazy_count() -> int`` -- number of unmaterialized rows.
    * ``next_lazy_time() -> float`` -- earliest pending time (``inf``
      when empty); used to pick the next window to open.
    * ``harvest(t_end) -> list[(time, seq, payload)]`` -- remove and
      return every row with ``time < t_end``; the engine materializes
      them into the active window.
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


def _plain_payload(payload):
    """Serialize a payload: dict copies (None when empty), scalars as-is."""
    if isinstance(payload, Mapping):
        return dict(payload) or None
    return payload


class Simulator:
    """Calendar-queue discrete-event simulator.

    Parameters
    ----------
    seed:
        Root seed for :class:`~repro.sim.rng.RngStreams`; all stochastic
        subsystems must draw from ``sim.rng``.
    start:
        Initial clock value (time units).
    bucket_width:
        Calendar window width in time units.  Pop order is
        width-independent; width only trades bucket count against
        active-heap size.
    """

    def __init__(
        self,
        seed: int = 0,
        start: float = 0.0,
        *,
        rng_domain: int = 0,
        bucket_width: float = 1.0,
    ) -> None:
        if bucket_width <= 0:
            raise ValueError(f"bucket_width must be positive, got {bucket_width}")
        self.clock = SimClock(start)
        self.rng = RngStreams(seed, domain=rng_domain)
        self._width = bucket_width
        #: Active window: heap of (time, seq, Event) due before _active_end.
        self._active: List[Tuple[float, int, Event]] = []
        self._now_buffer: "deque[Tuple[float, int, Event]]" = deque()
        #: Future windows: absolute window index -> list of entries.
        self._buckets: Dict[int, List[Tuple[float, int, Event]]] = {}
        self._bucket_heap: List[int] = []  # occupied window indices
        self._bucket_count = 0
        self._active_end = (self._bucket_of(start) + 1) * bucket_width
        #: The single attached lazy source (peer deaths), if any.
        self._source: Optional[LazyEventSource] = None
        self._source_kind: Optional[str] = None
        #: Materialized-but-undelivered lazy events, by seq (cancel path).
        self._lazy_events: Dict[int, Event] = {}
        #: Seqs of cancelled lazy events still sitting in the active heap
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
        #: the live structures at the first run()/step().
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
        n = len(self._active) + len(self._now_buffer) + self._bucket_count
        if self._staging:
            n += len(self._staging)
        if self._source is not None:
            n += self._source.lazy_count()
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

        Introspection helper for tests and debugging -- active-heap
        array order, then the now-buffer, then future buckets by window.
        Unmaterialized lazy rows are yielded as freshly built throwaway
        Events (identity is not stable for those).  A pending
        post-restore staging area is finalized first.
        """
        if self._staging is not None:
            self._finalize_restore()
        for entry in self._active:
            yield entry[2]
        for entry in self._now_buffer:
            yield entry[2]
        for idx in sorted(self._buckets):
            for entry in self._buckets[idx]:
                yield entry[2]
        if self._source is not None:
            for t, seq, payload in sorted(self._source.pending_lazy()):
                yield Event(
                    time=t,
                    kind=self._source_kind,
                    payload=_EMPTY_PAYLOAD if payload is None else payload,
                    seq=seq,
                )

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
        """Attach the columnar source that owns unmaterialized events.

        One source per simulator: the engine merges exactly one lazy
        stream per window.  Re-attaching the same object is a no-op;
        attaching a second source is a wiring bug and raises.
        """
        if self._source is not None and self._source is not source:
            raise RuntimeError("a lazy event source is already attached")
        self._source = source
        self._source_kind = source.kind

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
        ev = Event(
            time=time,
            kind=kind,
            payload=_EMPTY_PAYLOAD if payload is None else payload,
            seq=seq,
        )
        if time == now:
            self._now_buffer.append((time, seq, ev))
        elif time < self._active_end:
            heappush(self._active, (time, seq, ev))
        else:
            self._bucket_push(time, seq, ev)
        return ev

    def schedule_lazy(
        self,
        time: float,
        kind: str,
        payload: Any = None,
    ) -> Tuple[int, bool]:
        """Reserve a seq for an event the attached source may own.

        Returns ``(seq, materialized)``.  The seq is allocated exactly
        where :meth:`schedule_at` would have allocated it, so a run that
        schedules lazily is trajectory-identical to one that schedules
        eagerly.  If ``time`` falls inside the active window the Event
        is materialized immediately and ``materialized`` is True -- the
        caller must not record the row in the source.  Otherwise the
        caller owns the ``(time, payload)`` row until the engine
        harvests it (or the source cancels it).
        """
        now = self.clock._now
        if time < now:
            raise ValueError(f"cannot schedule in the past: {time} < {now}")
        seq = self._next_seq
        self._next_seq = seq + 1
        if time == now or time < self._active_end:
            ev = Event(
                time=time,
                kind=kind,
                payload=_EMPTY_PAYLOAD if payload is None else payload,
                seq=seq,
            )
            self._lazy_events[seq] = ev
            if time == now:
                self._now_buffer.append((time, seq, ev))
            else:
                heappush(self._active, (time, seq, ev))
            return seq, True
        if self._source is None or kind != self._source_kind:
            raise RuntimeError(
                "schedule_lazy beyond the active window needs a lazy source "
                f"registered for kind {kind!r} (set_lazy_source)"
            )
        return seq, False

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

    # -- calendar internals --------------------------------------------------
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

    def _bucket_push(self, time: float, seq: int, ev: Event) -> None:
        idx = self._bucket_of(time)
        bucket = self._buckets.get(idx)
        if bucket is None:
            self._buckets[idx] = [(time, seq, ev)]
            heappush(self._bucket_heap, idx)
        else:
            bucket.append((time, seq, ev))
        self._bucket_count += 1

    def _advance(self, until: Optional[float]) -> bool:
        """Open the next occupied window; False when none is due.

        Candidates: the active heap's own head (a head at/past
        ``_active_end`` just means the window moved on without draining
        it), the earliest occupied bucket, and the lazy source's
        earliest row.  Windows only move forward, so a bucket index is
        pushed to ``_bucket_heap`` once and never goes stale.
        """
        width = self._width
        best: Optional[int] = None
        if self._active:
            best = self._bucket_of(self._active[0][0])
        heap = self._bucket_heap
        if heap and (best is None or heap[0] < best):
            best = heap[0]
        source = self._source
        if source is not None:
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
        active = self._active
        if heap and heap[0] == best:
            heappop(heap)
            entries = self._buckets.pop(best)
            self._bucket_count -= len(entries)
            for entry in entries:
                heappush(active, entry)
        if source is not None:
            harvested = source.harvest(end)
            if harvested:
                lazy = self._lazy_events
                kind = self._source_kind
                for t, seq, payload in harvested:
                    ev = Event(
                        time=t,
                        kind=kind,
                        payload=_EMPTY_PAYLOAD if payload is None else payload,
                        seq=seq,
                    )
                    lazy[seq] = ev
                    heappush(active, (t, seq, ev))
        return True

    # -- execution -----------------------------------------------------------
    def step(self) -> Optional[Event]:
        """Deliver the next non-cancelled event; return it (or None if empty)."""
        if self._staging is not None:
            self._finalize_restore()
        active = self._active
        buffer = self._now_buffer
        while True:
            if buffer and (not active or buffer[0] < active[0]):
                head = buffer.popleft()
            elif active:
                if active[0][0] >= self._active_end:
                    if self._advance(None):
                        continue
                    return None
                head = heappop(active)
            else:
                if self._advance(None):
                    continue
                return None
            ev = head[2]
            if ev.cancelled:
                if self._cancelled_pending:
                    self._cancelled_pending -= 1
                if self._cancelled_lazy:
                    self._cancelled_lazy.discard(head[1])
                continue
            # Pop order makes this monotone; skip advance_to's check.
            self.clock._now = head[0]
            self._events_processed += 1
            if self._lazy_events:
                self._lazy_events.pop(head[1], None)
            for handler in self._handlers.get(ev.kind, ()):
                handler(self, ev)
            return ev

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Run until the queue drains, the clock passes ``until``, or
        ``max_events`` further events have been delivered.

        Events scheduled exactly at ``until`` are delivered (the horizon is
        inclusive), matching the "run to time T" convention the experiment
        harness uses for its final metrics sample.
        """
        if self._staging is not None:
            self._finalize_restore()
        self._running = True
        delivered = 0
        active = self._active
        buffer = self._now_buffer
        registry = self._handlers
        clock = self.clock
        try:
            while True:
                if buffer and (not active or buffer[0] < active[0]):
                    use_buffer = True
                    head = buffer[0]
                elif active:
                    if active[0][0] >= self._active_end:
                        if self._advance(until):
                            continue
                        break
                    use_buffer = False
                    head = active[0]
                else:
                    if self._advance(until):
                        continue
                    break
                if until is not None and head[0] > until:
                    break
                ev = head[2]
                if ev.cancelled:
                    if use_buffer:
                        buffer.popleft()
                    else:
                        heappop(active)
                    if self._cancelled_pending:
                        self._cancelled_pending -= 1
                    if self._cancelled_lazy:
                        self._cancelled_lazy.discard(head[1])
                    continue
                if max_events is not None and delivered >= max_events:
                    break
                if use_buffer:
                    buffer.popleft()
                else:
                    heappop(active)
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
        the bucket width or on which rows had been materialized, and a
        sorted array is a valid heap for the restore path.  Payloads
        must be plain data (ints/floats/strings and dicts thereof),
        which every built-in subsystem honors.
        Handler wiring is deliberately *not* captured: the composition
        root re-derives it by re-wiring the system from config.
        """
        skip = self._cancelled_lazy
        entries = []
        for t, seq, ev in self._active:
            if seq not in skip:
                entries.append(
                    (t, seq, ev.kind, _plain_payload(ev.payload), ev.cancelled)
                )
        for t, seq, ev in self._now_buffer:
            if seq not in skip:
                entries.append(
                    (t, seq, ev.kind, _plain_payload(ev.payload), ev.cancelled)
                )
        for bucket in self._buckets.values():
            for t, seq, ev in bucket:
                entries.append(
                    (t, seq, ev.kind, _plain_payload(ev.payload), ev.cancelled)
                )
        if self._staging:
            entries.extend(self._staging.values())
        if self._source is not None:
            kind = self._source_kind
            for t, seq, payload in self._source.pending_lazy():
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

    def restore(self, state: dict, *, restore_rng: bool = True) -> None:
        """Replace the engine state with a :meth:`snapshot`.

        Any events scheduled during re-wiring (first periodic firings,
        scenario shifts, populate bursts) are discarded wholesale: the
        restored queue *is* the complete pending-event set.  The queue
        is *staged*, not materialized: components holding references
        into it re-link via :meth:`restored_event` (materializing just
        their own entries), the churn driver hands its pending deaths
        straight back to the lazy source via :meth:`reclaim_lazy`
        (never building their Events at all), and whatever remains is
        finalized into the calendar at the first :meth:`run` /
        :meth:`step`.

        With ``restore_rng=False`` the stream states are left untouched --
        the warm-start fork path, where each fork runs on fresh streams
        derived under a different domain (see :class:`RngStreams`).
        """
        self.clock._now = state["clock"]
        self._events_processed = state["events_processed"]
        self._next_seq = state["next_seq"]
        self._next_token = state["next_token"]
        self._active = []
        self._now_buffer.clear()
        self._buckets = {}
        self._bucket_heap = []
        self._bucket_count = 0
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
        if restore_rng:
            self.rng.restore(state["rng"])

    def _insert_restored(self, time: float, seq: int, ev: Event) -> None:
        # Never the now-buffer: entries at exactly the restored clock go
        # to the active heap, where the pure (time, seq) merge rule pops
        # them identically (the pre-restore buffer was serialized the
        # same way).
        if time < self._active_end:
            heappush(self._active, (time, seq, ev))
        else:
            self._bucket_push(time, seq, ev)

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
        t, _seq, kind, payload, cancelled = self._staging.pop(seq)
        ev = Event(
            time=t,
            kind=kind,
            payload=_EMPTY_PAYLOAD if payload is None else payload,
            seq=seq,
            cancelled=cancelled,
        )
        self._restored_events[seq] = ev
        self._insert_restored(t, seq, ev)
        return ev

    def reclaim_lazy(self, seq: int) -> Tuple[float, Any, bool]:
        """Hand a staged entry back to the lazy source after restore.

        Returns ``(time, payload, rematerialized)``.  When the entry's
        time falls inside the active window it is materialized into the
        calendar instead -- ``rematerialized`` is True and the caller
        must not record the row in the source.
        Raises ``KeyError`` for an unknown seq and ``RuntimeError`` once
        the staging area has been finalized.
        """
        if self._staging is None:
            raise RuntimeError("reclaim_lazy after the restore was finalized")
        t, _seq, kind, payload, cancelled = self._staging.pop(seq)
        if t < self._active_end:
            ev = Event(
                time=t,
                kind=kind,
                payload=_EMPTY_PAYLOAD if payload is None else payload,
                seq=seq,
                cancelled=cancelled,
            )
            self._lazy_events[seq] = ev
            heappush(self._active, (t, seq, ev))
            return t, payload, True
        return t, payload, False

    def _finalize_restore(self) -> None:
        """Materialize whatever is still staged and resume normal service.

        By the time this runs (first ``run()``/``step()`` after a
        restore) the churn driver has reclaimed every lazy death into
        its columns, so what remains is the small eager set: periodic
        firings, scenario shifts, protocol timeouts.
        """
        staging = self._staging
        self._staging = None
        if not staging:
            return
        to_active: List[Tuple[float, int, Event]] = []
        restored = self._restored_events
        for t, seq, kind, payload, cancelled in staging.values():
            ev = Event(
                time=t,
                kind=kind,
                payload=_EMPTY_PAYLOAD if payload is None else payload,
                seq=seq,
                cancelled=cancelled,
            )
            restored[seq] = ev
            if t < self._active_end:
                to_active.append((t, seq, ev))
            else:
                self._bucket_push(t, seq, ev)
        if self._active:
            for entry in to_active:
                heappush(self._active, entry)
        else:
            to_active.sort(key=lambda e: (e[0], e[1]))
            self._active = to_active

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self.now:.3f}, "
            f"pending={self.pending}, processed={self._events_processed})"
        )
