"""The run-health monitor: detectors wired into a live run.

A :class:`HealthMonitor` is the health plane's composition point: it
builds the enabled detectors from the run's :class:`~repro.health
.config.HealthConfig`, listens on the layer-stats sampler's per-tick
hook (so it observes at exactly the ``METRICS_SAMPLE`` cadence, in
scheduler order), collects one :class:`~repro.health.detectors
.HealthSample` per tick from the overlay aggregates / columnar store /
message ledger / policy counters / scheduler, and streams every
detector firing into the shared :class:`~repro.telemetry.records
.RecordLog` as typed ``health.<detector>`` records.

Like the rest of the telemetry plane the monitor **observes**: it never
draws RNG, never schedules events, and never writes wall-clock values
into the record stream, so attaching it cannot perturb the trajectory
and its output is bit-identical across worker layouts.

Critical firings trigger the flight recorder (bounded by
``max_dumps``); the runner additionally calls :meth:`crash_dump` on an
unhandled exception.  Detector state (windows, streaks, baselines,
dump budget) is checkpointed via :meth:`snapshot`/:meth:`restore` so a
resumed run fires identically to the uninterrupted one.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..overlay.peerstore import ROLE_SUPER
from ..telemetry.records import HEALTH_FIELDS, register_schema
from .config import HealthConfig
from .detectors import (
    DETECTOR_NAMES,
    Firing,
    HealthSample,
    RoleFlapDetector,
    build_detectors,
)

__all__ = ["HealthMonitor"]

# Every health kind shares one schema; registering at import time means
# any process that can emit health records can also inflate them.
for _name in DETECTOR_NAMES:
    register_schema(f"health.{_name}", HEALTH_FIELDS)


class HealthMonitor:
    """Detectors + sampling + flight recorder for one wired run."""

    def __init__(
        self,
        config: HealthConfig,
        *,
        telemetry,
        ctx,
        policy,
        run_config,
    ) -> None:
        if not telemetry.enabled:
            raise ValueError("HealthMonitor requires an enabled telemetry plane")
        self.config = config
        self.telemetry = telemetry
        self.ctx = ctx
        self.policy = policy
        self.run_config = run_config
        grace = config.grace if config.grace is not None else run_config.warmup
        self.grace = grace
        self.detectors = build_detectors(
            config, eta=run_config.eta, grace=grace
        )
        self._flap: Optional[RoleFlapDetector] = next(
            (d for d in self.detectors if isinstance(d, RoleFlapDetector)), None
        )
        reg = telemetry.registry
        # Owned counters (checkpointed state): liveness + firing tallies.
        self._ticks = reg.counter("health.ticks")
        self._severity_counters = {
            "warning": reg.counter("health.warnings"),
            "critical": reg.counter("health.criticals"),
            "recovered": reg.counter("health.recoveries"),
        }
        self.dumps = 0
        if self._flap is not None:
            ctx.overlay.add_role_listener(self._on_role)

    # -- wiring ------------------------------------------------------------
    def attach(self, sampler) -> "HealthMonitor":
        """Observe every sample tick of ``sampler`` (the stats sampler)."""
        sampler.add_sample_listener(self._on_sample)
        return self

    # -- observation -------------------------------------------------------
    def _on_role(self, peer, old_role) -> None:
        self._flap.record_transition(self.ctx.sim.now, peer.pid)

    def _collect(self, now: float, agg) -> HealthSample:
        store = self.ctx.overlay.store
        slots = store.live_slots()
        deg = store.n_leaf_links[slots]
        deg = deg[store.role[slots] == ROLE_SUPER]
        if deg.size:
            max_deg = float(deg.max())
            mean_deg = float(np.float64(deg.sum(dtype=np.int64)) / deg.size)
        else:
            max_deg = mean_deg = 0.0
        ledger = self.ctx.messages.snapshot()
        failures = sum(ledger.timeouts.values()) + sum(
            ledger.retransmissions.values()
        )
        policy = self.policy
        return HealthSample(
            t=now,
            n=agg.n,
            n_super=agg.super_layer.count,
            ratio=agg.ratio(),
            max_leaf_deg=max_deg,
            mean_leaf_deg=mean_deg,
            transport_failures=failures,
            evaluations=getattr(policy, "evaluations", 0),
            deferrals=getattr(policy, "deferrals", 0),
            events=self.ctx.sim.events_processed,
        )

    def _on_sample(self, now: float, agg) -> None:
        self._ticks.inc()
        sample = self._collect(now, agg)
        for detector in self.detectors:
            for firing in detector.observe(sample):
                self._emit(firing)

    def _emit(self, firing: Firing) -> None:
        self.telemetry.log.emit(firing.kind, firing.t, firing.values())
        self._severity_counters[firing.severity].inc()
        if firing.severity == "critical":
            self._maybe_dump(firing)

    # -- flight recorder ---------------------------------------------------
    def _maybe_dump(self, firing: Firing) -> None:
        if self.config.flight_path is None or self.dumps >= self.config.max_dumps:
            return
        self.dumps += 1
        detector = firing.kind.removeprefix("health.")
        self.dump(self.config.flight_path, reason=f"critical:{detector}")

    def dump(
        self, path: str, *, reason: str, error: Optional[str] = None
    ) -> dict:
        """Write a flight bundle now; returns the bundle dict."""
        from .flight import write_flight_bundle

        return write_flight_bundle(
            path,
            telemetry=self.telemetry,
            sim=self.ctx.sim,
            config=self.run_config,
            policy_name=self.policy.name,
            reason=reason,
            error=error,
            record_tail=self.config.record_tail,
            audit_tail=self.config.audit_tail,
        )

    def crash_dump(self, exc: BaseException) -> Optional[dict]:
        """Postmortem for an unhandled runner exception (always fires).

        Written next to the configured flight path (``<path>.crash``)
        so it never clobbers a detector-triggered bundle from earlier
        in the same run.  No-op without a flight path.  A bundle that
        cannot be written never masks ``exc``: the failure is logged as a
        warning and, on Python 3.11+, added as a note on ``exc``; None is
        returned for the caller to re-raise ``exc``.
        """
        if self.config.flight_path is None:
            return None
        import traceback

        from .flight import FlightRecorderError

        tb = "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        )
        try:
            return self.dump(
                f"{self.config.flight_path}.crash", reason="exception", error=tb
            )
        except FlightRecorderError as failure:
            import logging

            message = f"flight recorder: no crash bundle: {failure}"
            logging.getLogger("repro.health").warning(message)
            if hasattr(exc, "add_note"):  # Python 3.11+
                exc.add_note(message)
            return None

    # -- checkpointing -----------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "detectors": {d.name: d.snapshot() for d in self.detectors},
            "dumps": self.dumps,
        }

    def restore(self, state: Optional[dict]) -> None:
        """Adopt a snapshot (``None``: health enabled at resume, start
        fresh -- mirroring the telemetry plane's restore semantics)."""
        # The registry restore (which runs first) recreates its owned
        # instruments, so the counter objects grabbed in __init__ are
        # detached by now -- re-bind them or ticks count into the void.
        reg = self.telemetry.registry
        self._ticks = reg.counter("health.ticks")
        self._severity_counters = {
            "warning": reg.counter("health.warnings"),
            "critical": reg.counter("health.criticals"),
            "recovered": reg.counter("health.recoveries"),
        }
        if not state:
            return
        captured = state["detectors"]
        for detector in self.detectors:
            if detector.name in captured:
                detector.restore(captured[detector.name])
        self.dumps = state["dumps"]
