"""Telemetry configuration.

A :class:`TelemetryConfig` on an
:class:`~repro.experiments.configs.ExperimentConfig` switches the
telemetry plane on for that run.  ``None`` (the default everywhere) is
the **disabled** mode: the composition root wires the module-level
:data:`~repro.telemetry.plane.NULL_TELEMETRY` no-op singleton and the
instrumented code paths reduce to one attribute load plus a branch --
the zero-overhead contract; the benchmark's ``churn_observed`` workload
prices the enabled mode against ``churn_steady``.

Every field here is trajectory-neutral: telemetry observes the
simulation, it never draws from its RNG streams or schedules events, so
the field is excluded from the checkpoint compatibility hash and a
checkpointed run may be resumed with different telemetry settings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["TelemetryConfig", "AUDIT_LEVELS"]

#: Valid values of :attr:`TelemetryConfig.audit_level`.
AUDIT_LEVELS = ("off", "actions", "full")


@dataclass(frozen=True, slots=True)
class TelemetryConfig:
    """Settings of one run's telemetry plane.

    Attributes
    ----------
    audit_level:
        Granularity of the DLM decision audit log.  ``"full"`` (default)
        records *every* promotion/demotion evaluation that reached the
        decision rule -- including ``none`` verdicts -- plus every defer
        and forced demotion; ``"actions"`` drops the ``none`` verdicts
        (orders of magnitude fewer records on a settled network);
        ``"off"`` disables the audit log while keeping the rest of the
        plane.
    record_capacity:
        Bound on retained structured records (a ring: the newest
        ``record_capacity`` records are kept, evictions are counted
        exactly).  ``None`` retains everything -- at bench scale a full
        audit of a figure-6 run is a few hundred thousand records, so
        the default keeps memory bounded without losing the recent
        window a diagnosis needs.
    spans:
        Whether :meth:`Telemetry.span` timing is collected.
    transport_trace:
        Record the Phase-1 request lifecycle (``sent`` / ``retried`` /
        ``dropped`` / ``timed_out`` / ``satisfied`` / ``failed``) into
        the shared record stream.  Only meaningful for message-driven
        (faults-mode) runs; high-volume, hence off by default.
    progress_every:
        Wall-clock seconds between live progress reports on stderr
        (events/s, simulated-horizon %, ETA).  ``None`` disables.
        Progress reporting piggybacks on the metrics-sample event the
        run already schedules; it never adds events of its own.
    jsonl_path:
        When set, the runner exports the full record stream (header,
        records, final metrics, span summary) to this JSONL file when
        the run completes.  Queried by ``repro trace`` / ``repro stats``.
    chrome_trace_path:
        When set, the runner exports the span intervals as a
        Chrome-trace/Perfetto JSON file when the run completes.
    """

    audit_level: str = "full"
    record_capacity: Optional[int] = 250_000
    spans: bool = True
    transport_trace: bool = False
    progress_every: Optional[float] = None
    jsonl_path: Optional[str] = None
    chrome_trace_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.audit_level not in AUDIT_LEVELS:
            raise ValueError(
                f"audit_level must be one of {AUDIT_LEVELS}, got "
                f"{self.audit_level!r}"
            )
        if self.record_capacity is not None and self.record_capacity < 1:
            raise ValueError("record_capacity must be >= 1 or None")
        if self.progress_every is not None and self.progress_every <= 0:
            raise ValueError("progress_every must be positive or None")
