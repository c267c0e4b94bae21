"""The per-leg transport, the oracle of ``InfoExchange``'s fused legs.

``InfoExchange`` sends a request, answers it and caches its response
each in one frame: first attempts and responses are charged through
ledger plans, the trace is called only with a listener attached, a plan
without bursts reads its loss rate once, and a timeout's payload is
built only when it is materialized.  This is the shape it replaced, one
step per function: :func:`start_request` -> :func:`send_attempt` ->
``ledger.record`` -> :func:`trace` -> :func:`transmit` for a send, and
:func:`on_deliver` -> :func:`deliver_request` / :func:`deliver_response`
-> ``Peer`` properties for a delivery.  Every message is charged by
``MessageLedger.record`` and every leg reads ``FaultPlan.loss_at``.

``tests/reference_system.py`` installs :func:`start_request`,
:func:`on_deliver` and :func:`on_timeout` at the ``InfoExchange`` seams
of the same names for a whole run.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.protocol.transport import _REQUEST_TYPES, InfoExchange, _Pending
from repro.sim.events import EventKind
from repro.sim.scheduler import Simulator
from tests.conftest import observe_lnn, observe_values

__all__ = ["on_deliver", "on_timeout", "start_request"]


def trace(
    info: InfoExchange, stage: str, pending: _Pending, leg: Optional[str] = None
) -> None:
    if not info._trace_listeners:
        return
    data: Dict[str, object] = {
        "rid": pending.rid,
        "requester": pending.requester,
        "responder": pending.responder,
        "kind": pending.kind,
        "attempt": pending.attempt,
    }
    if leg is not None:
        data["leg"] = leg
    for fn in info._trace_listeners:
        fn(stage, info.sim.now, data)


def start_request(
    info: InfoExchange, requester: int, responder: int, kind: str
) -> bool:
    """Put one logical request in flight; False if already pending."""
    key = (requester, responder, kind)
    if key in info._by_key:
        return False
    rid = info._next_rid
    info._next_rid = rid + 1
    pending = _Pending(rid, requester, responder, kind)
    info._by_key[key] = pending
    info._inflight[rid] = pending
    info._outstanding[requester] = info._outstanding.get(requester, 0) + 1
    send_attempt(info, pending)
    return True


def send_attempt(info: InfoExchange, pending: _Pending) -> None:
    """Send (or resend) the request leg and arm its timeout."""
    attempt = pending.attempt
    info.ledger.record(_REQUEST_TYPES[pending.kind][0], retransmission=attempt > 0)
    trace(info, "retried" if attempt else "sent", pending)
    transmit(info, pending, "request", None)
    sim = info.sim
    t = sim.now + info._delays[attempt]
    rid = pending.rid
    seq, ev = sim.schedule_lazy(
        t, EventKind.TRANSPORT_TIMEOUT, {"rid": rid, "attempt": attempt}
    )
    pending.timeout_seq = seq
    if ev is None:
        info._timeouts.levels[attempt].append((t, seq, rid, attempt))
        info._timeouts.live += 1


def transmit(
    info: InfoExchange,
    pending: _Pending,
    leg: str,
    values: Optional[Dict[str, float]],
) -> None:
    """Carry one message leg across the link: maybe drop, else delay."""
    sim = info.sim
    now = sim.now
    p_loss = info.faults.loss_at(now)
    if p_loss > 0.0 and info._draw_drop() < p_loss:
        trace(info, "dropped", pending, leg)
        return
    payload: Dict[str, object] = {"rid": pending.rid, "leg": leg}
    if values is not None:
        payload["values"] = values
        payload["at"] = now
    sim.schedule_at(now + info._draw_latency(), EventKind.TRANSPORT_DELIVER, payload)


def on_deliver(info: InfoExchange, sim: Simulator, event) -> None:
    pending = info._inflight.get(event.payload["rid"])
    if pending is None:
        return  # late duplicate of an already-resolved request
    if event.payload["leg"] == "request":
        deliver_request(info, pending)
    else:
        deliver_response(info, pending, event.payload)


def deliver_request(info: InfoExchange, pending: _Pending) -> None:
    """The responder answers with its current values (if it can)."""
    responder = info.overlay.get(pending.responder)
    if responder is None:
        return  # departed: the requester will time out
    now = info.sim.now
    if pending.kind == "neigh_num":
        if not responder.is_super:
            return  # demoted: l_nn is meaningless, let it time out
        values: Dict[str, float] = {"l_nn": len(responder.leaf_neighbors)}
    else:
        values = {"capacity": responder.capacity, "age": now - responder.join_time}
    info.ledger.record(_REQUEST_TYPES[pending.kind][1])
    transmit(info, pending, "response", values)


def deliver_response(
    info: InfoExchange, pending: _Pending, payload: Mapping[str, object]
) -> None:
    """The response arrives: cache the observation and resolve."""
    requester = info.overlay.get(pending.requester)
    if requester is not None:
        values = payload["values"]
        at = payload["at"]
        if pending.kind == "neigh_num":
            observe_lnn(requester, pending.responder, int(values["l_nn"]), at)
        else:
            observe_values(
                requester, pending.responder, values["capacity"], values["age"], at
            )
    if not info.sim.cancel_lazy(pending.timeout_seq):
        info._timeouts.live -= 1
    trace(info, "satisfied", pending)
    resolve(info, pending)


def on_timeout(info: InfoExchange, sim: Simulator, event) -> None:
    pending = info._inflight.get(event.payload["rid"])
    if pending is None or event.payload["attempt"] != pending.attempt:
        return  # resolved or superseded in the meantime
    info.ledger.record_timeout(_REQUEST_TYPES[pending.kind][0])
    trace(info, "timed_out", pending)
    if (
        pending.attempt < info.faults.max_retries
        and info.overlay.get(pending.requester) is not None
    ):
        pending.attempt += 1
        send_attempt(info, pending)
        return
    trace(info, "failed", pending)
    resolve(info, pending)


def resolve(info: InfoExchange, pending: _Pending) -> None:
    """Retire a request and fire completion when its peer drains."""
    del info._inflight[pending.rid]
    del info._by_key[(pending.requester, pending.responder, pending.kind)]
    requester = pending.requester
    remaining = info._outstanding[requester] - 1
    if remaining > 0:
        info._outstanding[requester] = remaining
        return
    del info._outstanding[requester]
    for fn in info._completion_listeners:
        fn(requester)
