"""The composition context shared by policies, churn, and search.

A :class:`SystemContext` bundles the engine and substrates one simulated
super-peer system is made of, so layer policies (:mod:`repro.core.dlm`,
:mod:`repro.baselines`) and drivers (:mod:`repro.churn.lifecycle`,
:mod:`repro.search`) can be wired against a single object instead of six.

The ``faults`` argument selects the information-collection mode: ``None``
wires the omniscient exchange plus
:class:`~repro.protocol.knowledge.OmniscientKnowledge` (instant perfect
information, bit-identical to the pre-message-driven code); a
:class:`~repro.protocol.faults.FaultPlan` wires the message-driven
exchange plus :class:`~repro.protocol.knowledge.ObservedKnowledge`, so
the evaluator only sees what responses delivered.

Use :func:`build_context` for the standard wiring; tests that need exotic
setups construct the pieces by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .metrics.overhead import OverheadLedger
from .overlay.bootstrap import JoinProcedure
from .overlay.maintenance import Maintenance
from .overlay.topology import Overlay
from .protocol.accounting import MessageLedger
from .protocol.faults import FaultPlan
from .protocol.knowledge import ObservedKnowledge, OmniscientKnowledge
from .protocol.transport import InfoExchange
from .sim.scheduler import Simulator
from .telemetry.plane import NULL_TELEMETRY

__all__ = ["SystemContext", "build_context"]


@dataclass
class SystemContext:
    """Everything a running super-peer system consists of."""

    sim: Simulator
    overlay: Overlay
    join: JoinProcedure
    maintenance: Maintenance
    messages: MessageLedger
    info: InfoExchange
    knowledge: OmniscientKnowledge | ObservedKnowledge
    overhead: OverheadLedger
    m: int
    k_s: int
    faults: Optional[FaultPlan] = None
    # The observation plane; NULL_TELEMETRY is the allocation-free
    # disabled mode, so un-instrumented wiring pays nothing.
    telemetry: object = NULL_TELEMETRY

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.sim.now


def build_context(
    *,
    seed: int = 0,
    m: int = 2,
    k_s: int = 3,
    piggyback: bool = False,
    sim: Optional[Simulator] = None,
    faults: Optional[FaultPlan] = None,
    telemetry=None,
) -> SystemContext:
    """Standard wiring of a fresh system (Table-2 degree parameters).

    Parameters
    ----------
    seed:
        Root seed when ``sim`` is not supplied.
    m, k_s:
        Leaf->super and super->super degree targets (Table 2: 2 and 3).
    piggyback:
        Whether DLM control messages ride in existing traffic (§6).
    sim:
        An existing simulator to attach to (tests re-use one).
    faults:
        ``None`` for omniscient information collection; a
        :class:`FaultPlan` for the message-driven engine with its loss,
        latency, and timeout parameters.
    telemetry:
        A :class:`~repro.telemetry.Telemetry` plane, or ``None`` for
        the shared disabled singleton.
    """
    sim = sim if sim is not None else Simulator(seed=seed)
    if telemetry is None:
        telemetry = NULL_TELEMETRY
    telemetry.bind_sim(sim)
    overlay = Overlay()
    join = JoinProcedure(overlay, m, sim.rng.prefetch("bootstrap"), k_s=k_s)
    maintenance = Maintenance(overlay, join, m=m, k_s=k_s)
    messages = MessageLedger(piggyback=piggyback)
    info = InfoExchange(overlay, messages, sim=sim, faults=faults)
    knowledge = (
        OmniscientKnowledge(overlay)
        if faults is None
        else ObservedKnowledge(overlay, faults.staleness_horizon)
    )
    overhead = OverheadLedger(m)
    return SystemContext(
        sim=sim,
        overlay=overlay,
        join=join,
        maintenance=maintenance,
        messages=messages,
        info=info,
        knowledge=knowledge,
        overhead=overhead,
        m=m,
        k_s=k_s,
        faults=faults,
        telemetry=telemetry,
    )
