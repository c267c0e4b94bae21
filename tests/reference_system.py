"""The slow simulator: the plane oracles installed in a whole run.

Inside ``with reference_system():`` seven fast paths are replaced *at
class level* by their oracles, the way ``bench/trace.py`` installs its
spans, and put back on exit, also when the block raises:

* ``ChurnDriver._on_join``, ``JoinProcedure.join`` and
  ``JoinProcedure.connect_leaf`` are the per-call chain of
  :mod:`tests.overlay.reference_join`: the new peer read by its view,
  one ``Overlay.random_supers`` call and one ``Overlay.connect`` per
  pick, for every join and every leaf repair;
* ``Maintenance.sweep`` runs :func:`tests.overlay.reference_sweep.
  reference_sweep` (every leaf in registry order, one sampler call per
  repair);
* ``FloodRouter.query`` runs :func:`tests.search.reference_flood.
  reference_query` (a per-copy BFS over a freshly built snapshot) and
  charges the router's ledger the same two totals the router charges;
* ``RngStreams.prefetch`` hands the bootstrap stream out as the bare
  generator, so every join and repair draws call by call instead of
  slicing a block drawn ahead, and every other read-ahead stream as a
  reader that draws when it is asked: the transport's ``transport-drop``
  and ``transport-latency`` one draw per value, the churn driver's
  ``capacity`` and ``lifetime`` one generator call per value through
  :func:`tests.overlay.reference_join.sample_one` (the eligibility
  draw a plain ``random()`` of the ``capacity`` generator);
* ``MessageLedger.charge`` is :func:`tests.protocol.reference_charge.
  eager_charge`, every plan charged into the counters at once;
* ``InfoExchange._start_request``, ``_on_deliver`` and ``_on_timeout``
  are the per-leg steps of :mod:`tests.protocol.reference_transport`,
  every message charged by ``MessageLedger.record``.

The DLM verdicts go in through the public hook instead:
``run_experiment(config, policy_factory=reference_policy_factory)``
builds :class:`tests.core.reference_related_set.ReferenceDLMPolicy`.
A run made that way inside the block differs from a fast run only in how
those planes compute their answers, so the two runs'
``checkpoint.state_digest`` must agree in every component
(``tests/properties/test_reference_system.py``).

Not installed: the heap scheduler (``tests/sim/reference_heap.py``) and
the export ring (``tests/telemetry/reference_export.py``).  Both model
their plane on a reduced interface -- neither is a drop-in replacement
for the class it checks.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.churn.lifecycle import ChurnDriver
from repro.overlay.bootstrap import JoinProcedure
from repro.overlay.maintenance import Maintenance
from repro.protocol.accounting import MessageLedger
from repro.protocol.transport import InfoExchange
from repro.protocol.messages import QueryHitMessage, QueryMessage
from repro.search.flooding import FloodRouter, QueryOutcome
from repro.sim.rng import RngStreams
from tests.core.reference_related_set import ReferenceDLMPolicy
from tests.overlay import reference_join
from tests.overlay.reference_sweep import reference_sweep
from tests.protocol import reference_transport
from tests.protocol.reference_charge import eager_charge
from tests.search.reference_flood import reference_query

__all__ = ["reference_policy_factory", "reference_system"]


def reference_policy_factory(config) -> ReferenceDLMPolicy:
    """``default_policy_factory`` with both verdicts un-fused."""
    return ReferenceDLMPolicy(config.dlm_config())


def _reference_flood(router: FloodRouter, source: int, obj: int) -> QueryOutcome:
    """``FloodRouter.query`` by the per-copy BFS.  A query its source
    answers from local storage sends nothing and charges nothing."""
    if router.latency is not None:
        raise NotImplementedError("a run never times its floods")
    local = obj in router.directory.files(source)
    out = reference_query(router.overlay, router.directory, source, obj, ttl=router.ttl)
    if router.ledger is not None and not local:
        router.ledger.record(QueryMessage, out.query_messages)
        router.ledger.record(QueryHitMessage, out.hit_messages)
    return out


class _PerCall:
    """What ``DrawAhead.next`` hands out, drawn when it is asked for;
    any other attribute is the generator's, as on a ``DrawAhead``."""

    def __init__(self, gen, draw) -> None:
        self.gen = gen
        self.draw = draw

    def next(self) -> float:
        return self.draw(self.gen, 1).tolist()[0]

    def __getattr__(self, name: str):
        return getattr(self.gen, name)


def _per_call_prefetch(streams: RngStreams, name: str, draw=None):
    """``RngStreams.prefetch`` without the block: the bounded-integer
    reader (the bootstrap stream's) is the generator itself, and a
    ``draw`` reader draws one value per ``next``."""
    gen = streams.get(name)
    return gen if draw is None else _PerCall(gen, draw)


@contextmanager
def reference_system() -> Iterator[None]:
    """Install the oracles for the duration of the block."""
    seams = [
        (ChurnDriver, "_on_join", reference_join.on_join),
        (JoinProcedure, "join", reference_join.join),
        (JoinProcedure, "connect_leaf", reference_join.connect_leaf),
        (Maintenance, "sweep", reference_sweep),
        (FloodRouter, "query", _reference_flood),
        (RngStreams, "prefetch", _per_call_prefetch),
        (MessageLedger, "charge", eager_charge),
        (InfoExchange, "_start_request", reference_transport.start_request),
        (InfoExchange, "_on_deliver", reference_transport.on_deliver),
        (InfoExchange, "_on_timeout", reference_transport.on_timeout),
    ]
    originals = [(cls, name, vars(cls)[name]) for cls, name, _ in seams]
    try:
        for cls, name, oracle in seams:
            setattr(cls, name, oracle)
        yield
    finally:
        for cls, name, original in reversed(originals):
            setattr(cls, name, original)
