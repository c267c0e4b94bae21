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
paper's implicit instant-perfect-information assumption (and the
pre-refactor sample paths, bit for bit).

**Message-driven** (a :class:`~repro.protocol.faults.FaultPlan` plus a
simulator): every request really travels.  Each attempt occupies a slot
in an in-flight table, may be dropped (``FaultPlan.loss_at``), is
delayed by a per-leg log-normal latency
(:class:`~repro.protocol.latency.LogNormalLatency`), and is guarded by a
timeout that retries with exponential backoff up to
``FaultPlan.max_retries`` before giving up.  Responses carry the values
sampled *at the responder at response time* and populate the requester's
:class:`~repro.overlay.knowledge.NeighborKnowledge` cache on arrival;
once a peer has no requests left in flight its completion listeners fire
(which is how :class:`~repro.core.dlm.DLMPolicy` triggers evaluation on
response arrival).  Retransmissions and timeouts are tallied distinctly
in the :class:`~repro.protocol.accounting.MessageLedger` so overhead
reports stay honest under faults.

Request lifecycle is observable through :meth:`add_trace_listener`
(stages: ``sent`` / ``retried`` / ``dropped`` / ``timed_out`` /
``satisfied`` / ``failed``);
:func:`~repro.telemetry.plane.attach_transport_trace` is the run-wide
consumer.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..overlay.topology import Overlay
from ..sim.events import EventKind
from ..sim.scheduler import Simulator
from .accounting import MessageLedger
from .faults import FaultPlan
from .latency import LogNormalLatency
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

    Instances are recycled through a free-list pool: churn-heavy runs
    put millions of requests in flight, and reinitializing a pooled
    record is cheaper than allocating a fresh object (and keeps the
    allocator from thrashing at 100k-peer scale).  Recycling is safe
    because the engine addresses requests by ``rid`` -- a retired rid is
    never reused, so a late event for the old rid misses the in-flight
    table instead of aliasing the recycled record.
    """

    __slots__ = (
        "rid",
        "requester",
        "responder",
        "kind",
        "attempt",
        "timeout_event",
    )

    def __init__(self, rid: int, requester: int, responder: int, kind: str) -> None:
        self.reset(rid, requester, responder, kind)

    def reset(self, rid: int, requester: int, responder: int, kind: str) -> None:
        """(Re)initialize for a fresh logical request."""
        self.rid = rid
        self.requester = requester
        self.responder = responder
        self.kind = kind
        self.attempt = 0
        self.timeout_event = None

    @property
    def key(self) -> Tuple[int, int, str]:
        return (self.requester, self.responder, self.kind)


#: Upper bound on pooled ``_Pending`` records (memory backstop; the pool
#: only ever holds what was simultaneously in flight).
_PENDING_POOL_MAX = 4096


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
            self._pool: List[_Pending] = []
            self._drop_rng = sim.rng.get("transport-drop")
            self._latency_rng = sim.rng.get("transport-latency")
            self._latency = (
                LogNormalLatency(faults.latency_scale, faults.latency_sigma)
                if faults.latency_scale > 0
                else None
            )
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
        if not self._trace_listeners:
            return  # the common case: build no info dict nobody reads
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
        if peer.is_leaf:
            for sid in peer.super_neighbors:
                obs = peer.knowledge.get(sid)
                if obs is None or not obs.has_values or now - obs.values_time > horizon:
                    started += self._start_request(pid, sid, "value")
                if obs is None or obs.l_nn is None or now - obs.lnn_time > horizon:
                    started += self._start_request(pid, sid, "neigh_num")
        else:
            for lid in peer.leaf_neighbors:
                obs = peer.knowledge.get(lid)
                if obs is None or not obs.has_values or now - obs.values_time > horizon:
                    started += self._start_request(pid, lid, "value")
        return started

    # -- checkpointing --------------------------------------------------------
    def snapshot(self) -> dict:
        """Checkpoint state: rid counter plus the live in-flight table.

        Pending requests serialize by value with their timeout events
        referenced by scheduler ``seq``; the ``_Pending`` free-list pool
        is a pure allocation cache and is rebuilt empty on restore.
        Deliver events in flight live in the scheduler queue and re-bind
        through the handler registry, not here.
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
                    None if p.timeout_event is None else p.timeout_event.seq,
                )
                for p in self._inflight.values()
            ],
            "outstanding": list(self._outstanding.items()),
        }

    def restore(self, state: dict, sim: Simulator) -> None:
        """Rebuild the in-flight table, re-linking timeouts by seq."""
        if state["message_driven"] != self.message_driven:
            raise ValueError(
                "checkpoint transport mode (message-driven="
                f"{state['message_driven']}) does not match the restored "
                f"config (message-driven={self.message_driven})"
            )
        if self.faults is None:
            return
        self._next_rid = state["next_rid"]
        self._inflight = {}
        self._by_key = {}
        self._pool = []
        for rid, requester, responder, kind, attempt, timeout_seq in state[
            "inflight"
        ]:
            pending = _Pending(rid, requester, responder, kind)
            pending.attempt = attempt
            if timeout_seq is not None:
                pending.timeout_event = sim.restored_event(timeout_seq)
            self._inflight[rid] = pending
            self._by_key[pending.key] = pending
        self._outstanding = dict(state["outstanding"])

    # -- the in-flight engine -------------------------------------------------
    def _start_request(self, requester: int, responder: int, kind: str) -> bool:
        """Put one logical request in flight; False if already pending."""
        key = (requester, responder, kind)
        if key in self._by_key:
            return False
        rid = self._next_rid
        self._next_rid = rid + 1
        if self._pool:
            pending = self._pool.pop()
            pending.reset(rid, requester, responder, kind)
        else:
            pending = _Pending(rid, requester, responder, kind)
        self._by_key[key] = pending
        self._inflight[pending.rid] = pending
        self._outstanding[requester] = self._outstanding.get(requester, 0) + 1
        self._send_attempt(pending)
        return True

    def _send_attempt(self, pending: _Pending) -> None:
        """Send (or resend) the request leg and arm its timeout."""
        sim = self.sim
        faults = self.faults
        req_type = _REQUEST_TYPES[pending.kind][0]
        retry = pending.attempt > 0
        self.ledger.record(req_type, retransmission=retry)
        self._trace("retried" if retry else "sent", pending)
        self._transmit(pending, "request", None)
        timeout = faults.timeout * faults.backoff**pending.attempt
        pending.timeout_event = sim.schedule(
            timeout,
            EventKind.TRANSPORT_TIMEOUT,
            {"rid": pending.rid, "attempt": pending.attempt},
        )

    def _transmit(
        self,
        pending: _Pending,
        leg: str,
        values: Optional[Dict[str, float]],
    ) -> None:
        """Carry one message leg across the link: maybe drop, else delay."""
        sim = self.sim
        p_loss = self.faults.loss_at(sim.now)
        if p_loss > 0.0 and self._drop_rng.random() < p_loss:
            self._trace("dropped", pending, leg)
            return
        delay = (
            self._latency.sample_one(self._latency_rng)
            if self._latency is not None
            else 0.0
        )
        payload: Dict[str, object] = {"rid": pending.rid, "leg": leg}
        if values is not None:
            payload["values"] = values
            payload["at"] = sim.now
        sim.schedule(delay, EventKind.TRANSPORT_DELIVER, payload)

    def _on_deliver(self, sim: Simulator, event) -> None:
        pending = self._inflight.get(event.payload["rid"])
        if pending is None:
            return  # late duplicate of an already-resolved request
        if event.payload["leg"] == "request":
            self._deliver_request(pending)
        else:
            self._deliver_response(pending, event.payload)

    def _deliver_request(self, pending: _Pending) -> None:
        """The responder answers with its current values (if it can)."""
        responder = self.overlay.get(pending.responder)
        if responder is None:
            return  # departed: the requester will time out
        now = self.sim.now
        if pending.kind == "neigh_num":
            if not responder.is_super:
                return  # demoted: l_nn is meaningless, let it time out
            values: Dict[str, float] = {"l_nn": len(responder.leaf_neighbors)}
        else:
            values = {"capacity": responder.capacity, "age": now - responder.join_time}
        self.ledger.record(_REQUEST_TYPES[pending.kind][1])
        self._transmit(pending, "response", values)

    def _deliver_response(
        self, pending: _Pending, payload: Mapping[str, object]
    ) -> None:
        """The response arrives: cache the observation and resolve."""
        requester = self.overlay.get(pending.requester)
        if requester is not None:
            values = payload["values"]
            at = payload["at"]
            if pending.kind == "neigh_num":
                requester.knowledge.observe_lnn(
                    pending.responder, int(values["l_nn"]), at
                )
            else:
                requester.knowledge.observe_values(
                    pending.responder, values["capacity"], values["age"], at
                )
        if pending.timeout_event is not None:
            self.sim.cancel(pending.timeout_event)
        self._trace("satisfied", pending)
        self._resolve(pending)

    def _on_timeout(self, sim: Simulator, event) -> None:
        pending = self._inflight.get(event.payload["rid"])
        if pending is None or event.payload["attempt"] != pending.attempt:
            return  # resolved or superseded in the meantime
        req_type = _REQUEST_TYPES[pending.kind][0]
        self.ledger.record_timeout(req_type)
        self._trace("timed_out", pending)
        if (
            pending.attempt < self.faults.max_retries
            and self.overlay.get(pending.requester) is not None
        ):
            pending.attempt += 1
            self._send_attempt(pending)
            return
        self._trace("failed", pending)
        self._resolve(pending)

    def _resolve(self, pending: _Pending) -> None:
        """Retire a request and fire completion when its peer drains."""
        del self._inflight[pending.rid]
        del self._by_key[pending.key]
        requester = pending.requester
        pending.timeout_event = None  # drop the Event ref before pooling
        if len(self._pool) < _PENDING_POOL_MAX:
            self._pool.append(pending)
        remaining = self._outstanding[requester] - 1
        if remaining > 0:
            self._outstanding[requester] = remaining
            return
        del self._outstanding[requester]
        self._notify_complete(requester)
