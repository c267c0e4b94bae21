"""Phase-1 information exchange: the request/response engine.

Models the traffic of DLM's information-collection phase.  The paper's
default policy is **event-driven**: "information exchange is invoked
whenever a peer finds that a new connection is created" (§4 Phase 1); a
**periodic** policy (each peer refreshes its neighbors' values every T
units) is also evaluated and found strictly more expensive -- ablation A3
reproduces that comparison.

Table 1 defines one ``neigh_num`` pair (leaf asks super for ``l_nn``) and
one ``value`` pair (capacity + age).  The value pair must flow in *both*
directions for the algorithm to work -- the super compares itself against
its leaves' values and the leaf against its supers' values -- so a fresh
leaf--super connection costs six messages:

* ``neigh_num_request`` (leaf->super), ``neigh_num_response`` (super->leaf)
* ``value_request`` (super->leaf), ``value_response`` (leaf->super)
* ``value_request`` (leaf->super), ``value_response`` (super->leaf)

Super--super connections exchange nothing (a super-peer's related set is
its leaf neighbors, and its own ``l_nn`` is local knowledge).

The exchange runs in one of two modes:

**Omniscient** (``faults=None``, the default): requests complete
synchronously -- the ledger is charged the Table-1 traffic and the
requesting peers' completion listeners fire immediately.  The evaluator
then reads values through
:class:`~repro.protocol.knowledge.OmniscientKnowledge`, reproducing the
paper's implicit instant-perfect-information assumption; the sample
paths this mode produces are pinned per seed by
``tests/experiments/golden_phase1.json``.

**Message-driven** (a :class:`~repro.protocol.faults.FaultPlan` plus a
simulator): every request really travels.  Each attempt occupies a slot
in an in-flight table, may be dropped (``FaultPlan.loss_at``), is
delayed by a per-leg log-normal latency
(:class:`~repro.protocol.latency.LogNormalLatency`), and is guarded by a
timeout that retries with exponential backoff up to
``FaultPlan.max_retries`` before giving up.  Drop and latency values are
drawn a block ahead (:meth:`~repro.sim.rng.RngStreams.prefetch`), and a
timeout is a lazy row (:class:`_TimeoutRows`) that becomes an Event only
if its window opens before the response arrives.  Responses carry the values
sampled *at the responder at response time* and write the requester's
observation of the responder (an
:class:`~repro.overlay.knowledge.Observation` in the row's ``kn`` dict,
which the first arrival creates) -- the only writer of that cache;
once a peer has no requests left in flight its completion listeners fire
(which is how :class:`~repro.core.dlm.DLMPolicy` triggers evaluation on
response arrival).  Retransmissions and timeouts are tallied distinctly
in the :class:`~repro.protocol.accounting.MessageLedger` so overhead
reports stay honest under faults; first attempts and responses are
charged by ledger plan (:meth:`~repro.protocol.accounting.MessageLedger.charge`).

Request lifecycle is observable through :meth:`add_trace_listener`
(stages: ``sent`` / ``retried`` / ``dropped`` / ``timed_out`` /
``satisfied`` / ``failed``);
:func:`~repro.telemetry.plane.attach_transport_trace` is the run-wide
consumer.
"""

from __future__ import annotations

from collections import deque
from math import inf
from typing import Callable, Deque, Dict, List, Mapping, Optional, Tuple

from ..overlay.knowledge import Observation
from ..overlay.roles import ROLE_SUPER
from ..overlay.topology import Overlay
from ..sim.events import EventKind
from ..sim.scheduler import Simulator
from .accounting import MessageLedger
from .faults import FaultPlan
from .latency import ConstantLatency, LogNormalLatency
from .messages import (
    NeighNumRequest,
    NeighNumResponse,
    ValueRequest,
    ValueResponse,
)

__all__ = ["InfoExchange", "MESSAGES_PER_NEW_LINK"]

#: Wire cost of the event-driven exchange on one new leaf--super link.
MESSAGES_PER_NEW_LINK = 6

#: Listener called with a peer id once that peer has no Phase-1 requests
#: left in flight (omniscient mode: immediately after the exchange).
CompletionListener = Callable[[int], None]

#: Listener called with (stage, now, info) for request lifecycle events.
TraceListener = Callable[[str, float, Mapping[str, object]], None]

#: The two request kinds of Table 1 and their wire types.
_REQUEST_TYPES = {
    "neigh_num": (NeighNumRequest, NeighNumResponse),
    "value": (ValueRequest, ValueResponse),
}


class _Pending:
    """One logical request occupying a slot in the in-flight table.

    The engine addresses requests by ``rid``: a retired rid is never
    reused, so a late event for it misses the in-flight table.
    """

    __slots__ = (
        "rid",
        "requester",
        "responder",
        "kind",
        "attempt",
        "timeout_seq",
    )

    def __init__(self, rid: int, requester: int, responder: int, kind: str) -> None:
        self.rid = rid
        self.requester = requester
        self.responder = responder
        self.kind = kind
        self.attempt = 0
        #: Scheduler seq of the armed timeout (its event or its row).
        self.timeout_seq: Optional[int] = None


class _TimeoutRows:
    """Armed timeouts beyond the active window, as a lazy event source.

    A row is ``(time, seq, rid, attempt)``.  Attempt ``i`` always waits
    ``timeout * backoff**i`` and the clock never runs back, so the rows
    of one attempt level arrive sorted by ``(time, seq)``: one FIFO per
    level is the whole queue.  A row is live while its request is in
    flight on that very timeout (``_Pending.timeout_seq``); a response
    kills it without touching the FIFO (the transport decrements
    :attr:`live`), and dead rows are dropped as they reach a head.
    """

    kind = EventKind.TRANSPORT_TIMEOUT

    def __init__(self, levels: int, inflight: Dict[int, _Pending]) -> None:
        self.levels: List[Deque[tuple]] = [deque() for _ in range(levels)]
        self.inflight = inflight
        #: Live rows (dead ones may still sit in the FIFOs).
        self.live = 0

    def _alive(self, row: tuple) -> bool:
        pending = self.inflight.get(row[2])
        return pending is not None and pending.timeout_seq == row[1]

    @staticmethod
    def _entry(row: tuple) -> tuple:
        t, seq, rid, attempt = row
        return t, seq, {"rid": rid, "attempt": attempt}

    # -- LazyEventSource protocol ------------------------------------------
    def lazy_count(self) -> int:
        return self.live

    def next_lazy_time(self) -> float:
        best = inf
        for rows in self.levels:
            while rows and not self._alive(rows[0]):
                rows.popleft()
            if rows and rows[0][0] < best:
                best = rows[0][0]
        return best

    def harvest(self, t_end: float):
        out = []
        for rows in self.levels:
            while rows and rows[0][0] < t_end:
                row = rows.popleft()
                if self._alive(row):
                    out.append(self._entry(row))
        self.live -= len(out)
        return out

    def pending_lazy(self):
        alive = self._alive
        return [self._entry(r) for rows in self.levels for r in rows if alive(r)]


class InfoExchange:
    """The Phase-1 exchange engine (see module docstring for modes)."""

    def __init__(
        self,
        overlay: Overlay,
        ledger: MessageLedger,
        *,
        sim: Optional[Simulator] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        if faults is not None and sim is None:
            raise ValueError("message-driven mode (faults set) requires a simulator")
        self.overlay = overlay
        self.ledger = ledger
        self.sim = sim
        self.faults = faults
        self._completion_listeners: List[CompletionListener] = []
        self._trace_listeners: List[TraceListener] = []
        # The omniscient exchange on a new leaf--super link: the neigh_num
        # pair and a value pair each way (each end queries the other's).
        self._link_charge = ledger.plan(
            [(NeighNumRequest, 1), (NeighNumResponse, 1)]
            + [(ValueRequest, 2), (ValueResponse, 2)]
        )
        if faults is not None:
            assert sim is not None
            self._next_rid = 0
            self._inflight: Dict[int, _Pending] = {}
            self._by_key: Dict[Tuple[int, int, str], _Pending] = {}
            self._outstanding: Dict[int, int] = {}
            # First attempts and responses are charged by plan, one per
            # request kind; a retransmission is a ``record`` of its own.
            self._request_charge = {
                kind: ledger.plan([(types[0], 1)])
                for kind, types in _REQUEST_TYPES.items()
            }
            self._response_charge = {
                kind: ledger.plan([(types[1], 1)])
                for kind, types in _REQUEST_TYPES.items()
            }
            #: The drop probability of every leg, or None when bursts make
            #: it a function of time (``FaultPlan.loss_at``).
            self._loss = faults.loss_rate if faults.burst_interval is None else None
            self._draw_drop = sim.rng.prefetch(
                "transport-drop", lambda gen, n: gen.random(n)
            ).next
            latency = (
                LogNormalLatency(faults.latency_scale, faults.latency_sigma)
                if faults.latency_scale > 0
                else ConstantLatency(0.0)
            )
            self._draw_latency = sim.rng.prefetch(
                "transport-latency", latency.sample
            ).next
            levels = faults.max_retries + 1
            self._delays = [faults.timeout * faults.backoff**i for i in range(levels)]
            self._timeouts = _TimeoutRows(levels, self._inflight)
            sim.set_lazy_source(self._timeouts)
            sim.on(EventKind.TRANSPORT_DELIVER, self._on_deliver)
            sim.on(EventKind.TRANSPORT_TIMEOUT, self._on_timeout)

    # -- observability -------------------------------------------------------
    @property
    def message_driven(self) -> bool:
        """Whether requests really travel (vs the omniscient shortcut)."""
        return self.faults is not None

    @property
    def in_flight(self) -> int:
        """Requests currently awaiting a response (0 in omniscient mode)."""
        return len(self._inflight) if self.faults is not None else 0

    def add_completion_listener(self, fn: CompletionListener) -> None:
        """Call ``fn(pid)`` whenever ``pid`` drains its in-flight requests."""
        self._completion_listeners.append(fn)

    def add_trace_listener(self, fn: TraceListener) -> None:
        """Call ``fn(stage, now, info)`` on request lifecycle events."""
        self._trace_listeners.append(fn)

    def _trace(
        self, stage: str, pending: _Pending, leg: Optional[str] = None
    ) -> None:
        """Tell every trace listener; callers check there is one first,
        so a run without listeners builds no info dict."""
        info: Dict[str, object] = {
            "rid": pending.rid,
            "requester": pending.requester,
            "responder": pending.responder,
            "kind": pending.kind,
            "attempt": pending.attempt,
        }
        if leg is not None:
            info["leg"] = leg
        now = self.sim.now if self.sim is not None else 0.0
        for fn in self._trace_listeners:
            fn(stage, now, info)

    def _notify_complete(self, pid: int) -> None:
        for fn in self._completion_listeners:
            fn(pid)

    # -- event-driven exchange ----------------------------------------------
    def on_connection_created(self, a: int, b: int) -> bool:
        """Run the event-driven exchange for a new link.

        Both endpoints' completion listeners always fire -- immediately
        when there is nothing to ask (super--super links, departed
        endpoints, omniscient mode), or once the last in-flight request
        resolves in message-driven mode.  Returns True if the link was a
        leaf--super link (and traffic was charged or initiated);
        super--super links are free.
        """
        overlay = self.overlay
        get = overlay.get
        if get(a) is None or get(b) is None:
            self._notify_complete(a)
            self._notify_complete(b)
            return False
        # Layer membership probes instead of two role-column reads: this
        # runs on every link creation, and the layer sets are always
        # role-consistent when link events fire.
        leaf_index = overlay.leaf_ids._index
        a_leaf = a in leaf_index
        if not a_leaf and b not in leaf_index:
            self._notify_complete(a)
            self._notify_complete(b)
            return False
        if self.faults is None:
            self.ledger.charge(self._link_charge)
            listeners = self._completion_listeners
            for fn in listeners:
                fn(a)
            for fn in listeners:
                fn(b)
            return True
        # Message-driven: the same six messages, now really in flight.
        leaf, sup = (a, b) if a_leaf else (b, a)
        started = self._start_request(leaf, sup, "neigh_num")
        started |= self._start_request(leaf, sup, "value")
        started |= self._start_request(sup, leaf, "value")
        if not started:
            # Every pair was already in flight; nothing new to wait on.
            if not self._outstanding.get(a):
                self._notify_complete(a)
            if not self._outstanding.get(b):
                self._notify_complete(b)
        return True

    # -- periodic refresh (ablation A3) ---------------------------------------
    def refresh_leaf(self, leaf_id: int) -> int:
        """Charge/initiate a periodic refresh of one leaf's super links.

        Omniscient mode charges each current super link a full 4-message
        refresh (``neigh_num`` pair + the super's ``value`` pair; charged
        symmetrically as in the event-driven case minus the leaf->super
        value pair) and returns messages charged.  Message-driven mode
        initiates the ``neigh_num`` + ``value`` requests per link and
        returns requests started.
        """
        peer = self.overlay.get(leaf_id)
        if peer is None or not peer.is_leaf:
            return 0
        links = len(peer.super_neighbors)
        if links == 0:
            return 0
        if self.faults is None:
            self.ledger.record(NeighNumRequest, links)
            self.ledger.record(NeighNumResponse, links)
            self.ledger.record(ValueRequest, links)
            self.ledger.record(ValueResponse, links)
            return 4 * links
        started = 0
        for sid in peer.super_neighbors:
            started += self._start_request(leaf_id, sid, "neigh_num")
            started += self._start_request(leaf_id, sid, "value")
        return started

    def refresh_super(self, super_id: int) -> int:
        """Charge/initiate a periodic refresh of one super's leaf values."""
        peer = self.overlay.get(super_id)
        if peer is None or not peer.is_super:
            return 0
        links = len(peer.leaf_neighbors)
        if links == 0:
            return 0
        if self.faults is None:
            self.ledger.record(ValueRequest, links)
            self.ledger.record(ValueResponse, links)
            return 2 * links
        started = 0
        for lid in peer.leaf_neighbors:
            started += self._start_request(super_id, lid, "value")
        return started

    def ensure_fresh(self, pid: int) -> int:
        """Request any missing/stale observations of ``pid``'s current links.

        Called when the evaluator defers for lack of knowledge: initiates
        requests toward every current neighbor whose cached observation is
        absent or beyond the staleness horizon.  A no-op (returns 0) in
        omniscient mode, where knowledge is always fresh.  Members of a
        leaf's historical G(l) that are no longer linked cannot be
        refreshed -- Phase-1 messages only flow between connected
        neighbors (Table 1), so that knowledge stays stale until pruned.
        """
        if self.faults is None:
            return 0
        peer = self.overlay.get(pid)
        if peer is None:
            return 0
        now = self.sim.now
        horizon = self.faults.staleness_horizon
        started = 0
        cache = peer._store.kn[peer._slot] or {}  # none yet reads as empty
        if peer.is_leaf:
            for sid in peer.super_neighbors:
                obs = cache.get(sid)
                if obs is None or not obs.has_values or now - obs.values_time > horizon:
                    started += self._start_request(pid, sid, "value")
                if obs is None or obs.l_nn is None or now - obs.lnn_time > horizon:
                    started += self._start_request(pid, sid, "neigh_num")
        else:
            for lid in peer.leaf_neighbors:
                obs = cache.get(lid)
                if obs is None or not obs.has_values or now - obs.values_time > horizon:
                    started += self._start_request(pid, lid, "value")
        return started

    # -- checkpointing --------------------------------------------------------
    def snapshot(self) -> dict:
        """Checkpoint state: rid counter plus the live in-flight table.

        Pending requests serialize by value with their timeouts
        referenced by scheduler ``seq`` (the simulator's snapshot folds
        the live rows into its queue).  Deliver events in flight live in
        the scheduler queue and re-bind through the handler registry,
        not here.
        """
        if self.faults is None:
            return {"message_driven": False}
        return {
            "message_driven": True,
            "next_rid": self._next_rid,
            "inflight": [
                (
                    p.rid,
                    p.requester,
                    p.responder,
                    p.kind,
                    p.attempt,
                    p.timeout_seq,
                )
                for p in self._inflight.values()
            ],
            "outstanding": list(self._outstanding.items()),
        }

    def restore(self, state: dict, sim: Simulator) -> None:
        """Rebuild the in-flight table, reclaiming timeouts by seq."""
        if state["message_driven"] != self.message_driven:
            raise ValueError(
                "checkpoint transport mode (message-driven="
                f"{state['message_driven']}) does not match the restored "
                f"config (message-driven={self.message_driven})"
            )
        if self.faults is None:
            return
        self._next_rid = state["next_rid"]
        # In place: the timeout rows read liveness through this dict.
        self._inflight.clear()
        self._by_key = {}
        levels: List[list] = [[] for _ in self._delays]
        for rid, requester, responder, kind, attempt, timeout_seq in state[
            "inflight"
        ]:
            pending = _Pending(rid, requester, responder, kind)
            pending.attempt = attempt
            pending.timeout_seq = timeout_seq
            t, _payload, rematerialized = sim.reclaim_lazy(timeout_seq)
            if not rematerialized:
                levels[attempt].append((t, timeout_seq, rid, attempt))
            self._inflight[rid] = pending
            self._by_key[requester, responder, kind] = pending
        self._timeouts.levels = [deque(sorted(rows)) for rows in levels]
        self._timeouts.live = sum(map(len, levels))
        self._outstanding = dict(state["outstanding"])

    # -- the in-flight engine -------------------------------------------------
    # Each leg is one frame: the send in ``_start_request`` (a retry's in
    # ``_on_timeout``), the answer and the caching in ``_on_deliver``.  A
    # send charges, traces, maybe drops (a ``transport-drop`` draw while
    # the loss is positive), else delays (a ``transport-latency`` draw)
    # and schedules the leg; a request then arms its timeout, whose seq
    # is reserved right after the leg's as an eager ``schedule`` would.
    def _start_request(self, requester: int, responder: int, kind: str) -> bool:
        """Put one logical request in flight; False if already pending."""
        key = (requester, responder, kind)
        by_key = self._by_key
        if key in by_key:
            return False
        rid = self._next_rid
        self._next_rid = rid + 1
        pending = by_key[key] = self._inflight[rid] = _Pending(
            rid, requester, responder, kind
        )
        outstanding = self._outstanding
        outstanding[requester] = outstanding.get(requester, 0) + 1
        self.ledger.charge(self._request_charge[kind])
        if self._trace_listeners:
            self._trace("sent", pending)
        sim = self.sim
        now = sim.clock._now
        loss = self._loss
        if loss is None:
            loss = self.faults.loss_at(now)
        if loss > 0.0 and self._draw_drop() < loss:
            if self._trace_listeners:
                self._trace("dropped", pending, "request")
        else:
            sim.schedule_at(
                now + self._draw_latency(),
                EventKind.TRANSPORT_DELIVER,
                {"rid": rid, "leg": "request"},
            )
        t = now + self._delays[0]
        seq, ev = sim.schedule_lazy(t, EventKind.TRANSPORT_TIMEOUT)
        pending.timeout_seq = seq
        if ev is None:
            self._timeouts.levels[0].append((t, seq, rid, 0))
            self._timeouts.live += 1
        else:
            ev.payload = {"rid": rid, "attempt": 0}
        return True

    def _on_deliver(self, sim: Simulator, event) -> None:
        payload = event.payload
        pending = self._inflight.get(payload["rid"])
        if pending is None:
            return  # late duplicate of an already-resolved request
        kind = pending.kind
        if payload["leg"] == "request":
            # The responder answers with its current values, if it can.
            peer = self.overlay.get(pending.responder)
            if peer is None:
                return  # departed: the requester will time out
            store = peer._store
            slot = peer._slot
            now = sim.clock._now
            if kind == "neigh_num":
                if store.role[slot] != ROLE_SUPER:
                    return  # demoted: l_nn is meaningless, let it time out
                values: Dict[str, float] = {"l_nn": len(store.ln[slot] or ())}
            else:
                values = {
                    "capacity": store.capacity[slot],
                    "age": now - store.join_time[slot],
                }
            self.ledger.charge(self._response_charge[kind])
            loss = self._loss
            if loss is None:
                loss = self.faults.loss_at(now)
            if loss > 0.0 and self._draw_drop() < loss:
                if self._trace_listeners:
                    self._trace("dropped", pending, "response")
                return
            sim.schedule_at(
                now + self._draw_latency(),
                EventKind.TRANSPORT_DELIVER,
                {"rid": pending.rid, "leg": "response", "values": values, "at": now},
            )
            return
        # The response arrives: cache the observation and resolve.
        peer = self.overlay.get(pending.requester)
        if peer is not None:
            kn = peer._store.kn
            cache = kn[peer._slot]
            if cache is None:
                cache = kn[peer._slot] = {}
            obs = cache.get(pending.responder)
            if obs is None:
                obs = cache[pending.responder] = Observation()
            values = payload["values"]
            if kind == "neigh_num":
                obs.l_nn = int(values["l_nn"])
                obs.lnn_time = payload["at"]
            else:
                obs.capacity = values["capacity"]
                obs.age_at_obs = values["age"]
                obs.values_time = payload["at"]
        # A timeout already materialized is cancelled in the event queue; a
        # row dies by itself once the request leaves the in-flight table.
        if not sim.cancel_lazy(pending.timeout_seq):
            self._timeouts.live -= 1
        if self._trace_listeners:
            self._trace("satisfied", pending)
        self._resolve(pending)

    def _on_timeout(self, sim: Simulator, event) -> None:
        payload = event.payload
        pending = self._inflight.get(payload["rid"])
        attempt = payload["attempt"]
        if pending is None or attempt != pending.attempt:
            return  # resolved or superseded in the meantime
        req_type = _REQUEST_TYPES[pending.kind][0]
        self.ledger.record_timeout(req_type)
        traced = bool(self._trace_listeners)
        if traced:
            self._trace("timed_out", pending)
        if (
            attempt >= self.faults.max_retries
            or self.overlay.get(pending.requester) is None
        ):
            if traced:
                self._trace("failed", pending)
            self._resolve(pending)
            return
        # Retry: the request leg again, charged as a retransmission.
        pending.attempt = attempt = attempt + 1
        self.ledger.record(req_type, retransmission=True)
        if traced:
            self._trace("retried", pending)
        now = sim.clock._now
        loss = self._loss
        if loss is None:
            loss = self.faults.loss_at(now)
        rid = pending.rid
        if loss > 0.0 and self._draw_drop() < loss:
            if traced:
                self._trace("dropped", pending, "request")
        else:
            sim.schedule_at(
                now + self._draw_latency(),
                EventKind.TRANSPORT_DELIVER,
                {"rid": rid, "leg": "request"},
            )
        t = now + self._delays[attempt]
        seq, ev = sim.schedule_lazy(t, EventKind.TRANSPORT_TIMEOUT)
        pending.timeout_seq = seq
        if ev is None:
            self._timeouts.levels[attempt].append((t, seq, rid, attempt))
            self._timeouts.live += 1
        else:
            ev.payload = {"rid": rid, "attempt": attempt}

    def _resolve(self, pending: _Pending) -> None:
        """Retire a request and fire completion when its peer drains."""
        requester = pending.requester
        del self._inflight[pending.rid]
        del self._by_key[requester, pending.responder, pending.kind]
        remaining = self._outstanding[requester] - 1
        if remaining > 0:
            self._outstanding[requester] = remaining
            return
        del self._outstanding[requester]
        self._notify_complete(requester)
