"""The declarative SLO spec: thresholds the health plane evaluates.

A :class:`HealthConfig` on :class:`~repro.experiments.configs
.ExperimentConfig` enables the run-health plane and declares its
service-level objectives -- per-detector thresholds, evidence-window
widths, and the warning -> critical escalation streak.  Like
``TelemetryConfig`` it is **hash-excluded**: the health plane observes
the run without perturbing it, so changing an SLO never changes the
trajectory and a checkpoint resumes under any health settings.

Every per-detector threshold is ``Optional``: ``None`` disables that
detector alone, keeping the rest of the plane live.  All windows are in
**simulated** time units -- the plane never reads the wall clock.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

__all__ = ["HealthConfig"]

#: Crash-bundle settings: the run's business, not the fold's.
_RECORDER_FIELDS = ("flight_path", "record_tail", "audit_tail")


@dataclass(frozen=True, slots=True)
class HealthConfig:
    """SLO thresholds and crash-bundle settings for one run."""

    #: Tolerated windowed-mean relative drift of the leaf/super ratio
    #: from the target η: breach when mean(|ratio - η| / η) exceeds it.
    ratio_band: Optional[float] = 0.5
    #: Evidence window (simulated time) of the ratio-drift detector.
    ratio_window: float = 50.0
    #: Role transitions per peer within ``flap_window`` that count as
    #: flapping (promotion/demotion oscillation).
    flap_transitions: Optional[int] = 3
    flap_window: float = 60.0
    #: Tolerated windowed-mean max/mean leaf-degree ratio across the
    #: super layer (load imbalance).
    imbalance_ratio: Optional[float] = 4.0
    imbalance_window: float = 30.0
    #: Below this many live supers the imbalance detector stays quiet
    #: (max/mean over a handful of peers is noise, not signal).
    imbalance_min_supers: int = 4
    #: Transport timeouts + retransmissions per ``surge_window`` that
    #: count as a surge.
    surge_count: Optional[int] = 100
    surge_window: float = 30.0
    #: Tolerated DLM defer fraction (defers / evaluations) per window.
    defer_rate: Optional[float] = 0.5
    defer_window: float = 30.0
    #: Below this many evaluations per window the defer detector stays
    #: quiet (a 1-of-2 defer is not a spike).
    defer_min_evals: int = 20
    #: Events processed per unit of simulated time beyond which the
    #: clock counts as stalled (a zero-delay event storm).  The default
    #: is far above any healthy run's density.
    stall_events_per_unit: Optional[float] = 500_000.0
    #: Consecutive breached sample ticks before a warning escalates to
    #: critical.
    critical_after: int = 3
    #: Simulated time before which detectors stay quiet (the layer
    #: forms during warm-up; everything drifts then).  ``None`` uses the
    #: run config's ``warmup``.
    grace: Optional[float] = None
    #: The flight recorder writes its crash bundle (JSON) to
    #: ``<flight_path>.crash`` when the run dies on an unhandled
    #: exception.  ``None`` disables the recorder.
    flight_path: Optional[str] = None
    #: Newest structured records included in a crash bundle.
    record_tail: int = 500
    #: Newest audit records included in a crash bundle.
    audit_tail: int = 200

    def __post_init__(self) -> None:
        for name in ("ratio_window", "flap_window", "imbalance_window",
                     "surge_window", "defer_window"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("ratio_band", "imbalance_ratio", "defer_rate",
                     "stall_events_per_unit"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0 (or None to disable)")
        for name in ("flap_transitions", "surge_count"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1 (or None to disable)")
        if self.critical_after < 1:
            raise ValueError("critical_after must be >= 1")
        if self.grace is not None and self.grace < 0:
            raise ValueError("grace must be >= 0")
        for name in ("record_tail", "audit_tail"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.imbalance_min_supers < 1:
            raise ValueError("imbalance_min_supers must be >= 1")
        if self.defer_min_evals < 1:
            raise ValueError("defer_min_evals must be >= 1")

    @classmethod
    def field_names(cls) -> tuple:
        """Declared field names (the ``--slo KEY=VALUE`` vocabulary)."""
        return tuple(f.name for f in fields(cls))

    def header(self, run_config) -> dict:
        """The run header's ``health`` entry: what the fold needs.

        Every detector setting, ``grace`` resolved against the run's
        warm-up, and the run's η; the crash-bundle settings stay out.
        """
        entry = {
            name: getattr(self, name)
            for name in self.field_names()
            if name not in _RECORDER_FIELDS
        }
        if self.grace is None:
            entry["grace"] = run_config.warmup
        entry["eta"] = run_config.eta
        return entry
