"""The telemetry facade: one object the whole system observes through.

A :class:`Telemetry` bundles the plane's four parts -- metrics registry,
span timer, structured record log, DLM audit log -- behind the handle
every component reaches via ``ctx.telemetry``.  The **disabled** mode is
the module-level :data:`NULL_TELEMETRY` singleton: ``enabled`` is
False, ``audit``/``transport_log`` are ``None`` (instrumented hot paths
cache those attributes and reduce to a ``None`` check), and
:meth:`span` hands back a shared no-op scope.  Nothing else exists, so
a disabled run allocates no telemetry state at all.

Determinism contract: telemetry *observes*.  It never draws from the
simulator's RNG streams, never schedules events, and keeps wall-clock
readings strictly out of the structured record stream -- so enabling or
disabling it cannot change a run's trajectory, and the record stream
itself is a pure function of (config, seed).

Checkpointing: the record log, audit tallies, registry-owned
instruments, and span aggregates are state (:meth:`snapshot` /
:meth:`restore`, same shape as every other stateful component); bound
producers and exporter paths are wiring, re-derived by the composition
root.
"""

from __future__ import annotations

from typing import Optional

from .config import TelemetryConfig
from .records import AuditLog, RecordLog
from .registry import MetricsRegistry
from .spans import NULL_SPAN, Span, SpanTimer

__all__ = [
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "telemetry_from_config",
    "bind_standard_producers",
    "attach_transport_trace",
]


class Telemetry:
    """An enabled telemetry plane (see module docstring)."""

    enabled = True

    def __init__(self, config: Optional[TelemetryConfig] = None) -> None:
        self.config = config if config is not None else TelemetryConfig()
        self.registry = MetricsRegistry()
        self.spans = SpanTimer()
        self.log = RecordLog(capacity=self.config.record_capacity)
        self.audit: Optional[AuditLog] = (
            AuditLog(self.log, level=self.config.audit_level)
            if self.config.audit_level != "off"
            else None
        )

    def bind_sim(self, sim) -> None:
        """Attach the simulator for span event-count attribution."""
        self.spans.bind_sim(sim)

    def span(self, name: str) -> Span:
        """A timing scope for ``name`` (no-op when spans are disabled)."""
        if not self.config.spans:
            return NULL_SPAN
        return self.spans.span(name)

    # -- checkpointing -----------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "enabled": True,
            "log": self.log.snapshot(),
            "audit": None if self.audit is None else self.audit.snapshot(),
            "registry": self.registry.snapshot(),
            "spans": self.spans.snapshot(),
        }

    def restore(self, state: Optional[dict]) -> None:
        """Adopt a snapshot so the record stream continues seamlessly.

        ``None`` or a disabled-mode snapshot (telemetry switched on at
        resume time) keeps the fresh empty buffers: the pre-checkpoint
        records were never captured, so the log honestly starts at the
        resume point.
        """
        if not state or not state.get("enabled"):
            return
        self.log.restore(state["log"])
        if self.audit is not None and state["audit"] is not None:
            self.audit.restore(state["audit"])
        self.registry.restore(state["registry"])
        self.spans.restore(state["spans"])


class NullTelemetry:
    """The disabled plane: attribute-compatible, allocation-free."""

    enabled = False
    config = None
    registry = None
    spans = None
    log = None
    audit = None

    def bind_sim(self, sim) -> None:
        pass

    def span(self, name: str):
        return NULL_SPAN

    def snapshot(self) -> dict:
        return {"enabled": False}

    def restore(self, state: Optional[dict]) -> None:
        pass


#: The shared disabled plane every un-instrumented run wires.
NULL_TELEMETRY = NullTelemetry()


def telemetry_from_config(config: Optional[TelemetryConfig]):
    """The plane for a run config: enabled for a config, NULL for None."""
    if config is None:
        return NULL_TELEMETRY
    return Telemetry(config)


def bind_standard_producers(
    telemetry,
    ctx,
    *,
    driver=None,
    policy=None,
    workload=None,
) -> None:
    """Bind every built-in plane's counters into the registry namespace.

    Producers are read-only views evaluated at collect time; binding
    them costs the observed planes nothing.  The namespace map is
    documented in DESIGN.md §7.  No-op for a disabled plane.
    """
    if not telemetry.enabled:
        return
    reg = telemetry.registry
    sim = ctx.sim
    reg.bind("sim.now", lambda: sim.now)
    reg.bind("sim.events_processed", lambda: sim.events_processed)
    reg.bind("sim.pending", lambda: sim.pending)
    reg.bind("sim.pending_events", lambda: sim.live_pending)

    overlay = ctx.overlay
    agg = overlay.aggregates
    reg.bind("overlay.n", lambda: agg.super_layer.count + agg.leaf_layer.count)
    reg.bind("overlay.n_super", lambda: agg.super_layer.count)
    reg.bind("overlay.n_leaf", lambda: agg.leaf_layer.count)
    reg.bind("overlay.ratio", lambda: overlay.layer_size_ratio())
    reg.bind("overlay.promotions", lambda: overlay.total_promotions)
    reg.bind("overlay.demotions", lambda: overlay.total_demotions)
    reg.bind("overlay.store_bytes", lambda: overlay.store.nbytes)

    messages = ctx.messages
    reg.bind("messages.total", lambda: sum(messages.snapshot().counts.values()))
    reg.bind("messages.bytes", lambda: sum(messages.snapshot().bytes.values()))
    reg.bind(
        "messages.retransmissions",
        lambda: sum(messages.snapshot().retransmissions.values()),
    )
    reg.bind(
        "messages.timeouts",
        lambda: sum(messages.snapshot().timeouts.values()),
    )
    reg.bind("transport.in_flight", lambda: ctx.info.in_flight)

    if driver is not None:
        reg.bind("churn.joins", lambda: driver.joins)
        reg.bind("churn.deaths", lambda: driver.deaths)
    if policy is not None:
        # DLM and the adaptive baselines keep these run counters; other
        # baselines simply don't contribute the namespace entries.
        for attr in (
            "evaluations",
            "promotions",
            "demotions",
            "forced_demotions",
            "deferrals",
        ):
            if hasattr(policy, attr):
                reg.bind(f"dlm.{attr}", (lambda a: lambda: getattr(policy, a))(attr))
    if workload is not None:
        stats = workload.stats
        reg.bind("search.issued", lambda: stats.snapshot.issued)
        reg.bind("search.succeeded", lambda: stats.snapshot.succeeded)
        reg.bind(
            "search.query_messages",
            lambda: stats.snapshot.total_query_messages,
        )


def attach_transport_trace(telemetry, info) -> None:
    """Stream Phase-1 request lifecycle stages into the record log.

    Attaches a trace listener on the exchange that emits one
    ``transport`` record per stage.  No-op when the plane is disabled or
    transport tracing is off in its config.
    """
    if not telemetry.enabled or not telemetry.config.transport_trace:
        return
    log = telemetry.log

    def _on_stage(stage: str, now: float, data) -> None:
        log.emit(
            "transport",
            now,
            (
                stage,
                data.get("rid"),
                data.get("requester"),
                data.get("responder"),
                data.get("kind"),
                data.get("attempt"),
                data.get("leg"),
            ),
        )

    info.add_trace_listener(_on_stage)
