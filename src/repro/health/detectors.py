"""Streaming anomaly detectors over the run's sample ticks.

Each detector consumes one :class:`HealthSample` per ``METRICS_SAMPLE``
tick -- a plain snapshot of simulation-derived aggregates, read back
from a ``sample`` record -- maintains a sliding **event-time** window
of evidence, and fires typed :class:`Firing` records on threshold
crossings.  The firing semantics latch on the crossing, so a sustained
breach fires exactly three times:

* ``warning`` on the first breached tick,
* ``critical`` after ``critical_after`` consecutive breached ticks,
* ``recovered`` on the first tick back inside the band (carrying the
  breach-streak length as evidence).

Detectors read only simulated time and simulation-derived values, never
the wall clock and never the RNG, so their firings are a pure function
of the record stream they fold (:func:`repro.health.evidence.replay`).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

from ..metrics.windows import SlidingWindow

__all__ = [
    "DETECTOR_NAMES",
    "HealthSample",
    "Firing",
    "Detector",
    "RatioDriftDetector",
    "RoleFlapDetector",
    "LoadImbalanceDetector",
    "TimeoutSurgeDetector",
    "DeferSpikeDetector",
    "ClockStallDetector",
    "build_detectors",
]

#: Detector catalog, in evaluation (and record-emission) order.
DETECTOR_NAMES = (
    "ratio_drift",
    "role_flap",
    "load_imbalance",
    "timeout_surge",
    "defer_spike",
    "clock_stall",
)

#: Finite stand-in for an unbounded statistic (an empty super layer
#: makes the ratio infinite); keeps the record stream JSON-clean.
_UNBOUNDED = 1e18


@dataclass(frozen=True, slots=True)
class HealthSample:
    """One sample tick's simulation-derived aggregates."""

    t: float
    n: int
    n_super: int
    ratio: float
    max_leaf_deg: float
    mean_leaf_deg: float
    #: Cumulative transport timeouts + retransmissions.
    transport_failures: int
    #: Cumulative DLM evaluation / deferral counters (0 for policies
    #: without them; the defer detector then never fires).
    evaluations: int
    deferrals: int
    #: Cumulative events processed by the scheduler.
    events: int


@dataclass(frozen=True, slots=True)
class Firing:
    """One detector firing: a threshold crossing at one sample tick."""

    kind: str
    t: float
    severity: str  # "warning" | "critical" | "recovered"
    value: float
    threshold: float
    window_start: float
    breaches: int
    pid: Optional[int] = None

    def as_dict(self, shard: Optional[int] = None) -> dict:
        """The firing as a report row (``None`` fields dropped)."""
        out = {k: v for k, v in asdict(self).items() if v is not None}
        if shard is not None:
            out["shard"] = shard
        return out


class Detector:
    """Threshold detector with the latch-on-crossing streak machinery.

    Subclasses implement :meth:`_update`, which folds the sample into
    the evidence window and returns the windowed statistic (or ``None``
    when not applicable this tick -- no breach, no recovery, no state
    change).  ``_update`` runs even during the grace period so baselines
    and windows stay warm; only the threshold evaluation is suppressed.
    """

    name: str = "detector"

    def __init__(
        self, threshold: float, *, window: float, critical_after: int, grace: float
    ) -> None:
        self.threshold = float(threshold)
        self.window = window
        self.critical_after = critical_after
        self.grace = grace
        self.streak = 0

    @property
    def kind(self) -> str:
        return f"health.{self.name}"

    def _update(self, sample: HealthSample) -> Optional[float]:
        raise NotImplementedError

    def _firing(
        self, t: float, severity: str, value: float, breaches: int
    ) -> Firing:
        return Firing(
            kind=self.kind,
            t=t,
            severity=severity,
            value=value,
            threshold=self.threshold,
            window_start=max(0.0, t - self.window),
            breaches=breaches,
        )

    def observe(self, sample: HealthSample) -> List[Firing]:
        """Fold one tick; returns the crossings it produced (often [])."""
        value = self._update(sample)
        t = sample.t
        if t < self.grace:
            self.streak = 0
            return []
        if value is None:
            return []
        firings: List[Firing] = []
        if value > self.threshold:
            self.streak += 1
            if self.streak == 1:
                firings.append(self._firing(t, "warning", value, 1))
            if self.streak == self.critical_after:
                firings.append(self._firing(t, "critical", value, self.streak))
        elif self.streak:
            firings.append(self._firing(t, "recovered", value, self.streak))
            self.streak = 0
        return firings


class _WindowedDetector(Detector):
    """Shared plumbing for detectors holding one SlidingWindow."""

    def __init__(self, threshold, *, window, critical_after, grace) -> None:
        super().__init__(
            threshold, window=window, critical_after=critical_after, grace=grace
        )
        self._window = SlidingWindow(window)


class RatioDriftDetector(_WindowedDetector):
    """Windowed-mean relative drift of the leaf/super ratio from η."""

    name = "ratio_drift"

    def __init__(self, threshold, *, eta, window, critical_after, grace) -> None:
        super().__init__(
            threshold, window=window, critical_after=critical_after, grace=grace
        )
        self.eta = eta

    def _update(self, sample: HealthSample) -> Optional[float]:
        drift = abs(sample.ratio - self.eta) / self.eta
        if not math.isfinite(drift):
            drift = _UNBOUNDED
        self._window.push(sample.t, drift)
        return self._window.mean()


class LoadImbalanceDetector(_WindowedDetector):
    """Windowed-mean max/mean leaf-degree ratio across the super layer."""

    name = "load_imbalance"

    def __init__(
        self, threshold, *, min_supers, window, critical_after, grace
    ) -> None:
        super().__init__(
            threshold, window=window, critical_after=critical_after, grace=grace
        )
        self.min_supers = min_supers

    def _update(self, sample: HealthSample) -> Optional[float]:
        if sample.n_super < self.min_supers or sample.mean_leaf_deg <= 0:
            self._window.prune(sample.t)
            return None if not len(self._window) else self._window.mean()
        self._window.push(sample.t, sample.max_leaf_deg / sample.mean_leaf_deg)
        return self._window.mean()


class TimeoutSurgeDetector(_WindowedDetector):
    """Transport timeouts + retransmissions summed over the window."""

    name = "timeout_surge"

    def __init__(self, threshold, *, window, critical_after, grace) -> None:
        super().__init__(
            threshold, window=window, critical_after=critical_after, grace=grace
        )
        self._prev: Optional[int] = None

    def _update(self, sample: HealthSample) -> Optional[float]:
        if self._prev is None:
            self._prev = sample.transport_failures
            return None
        delta = sample.transport_failures - self._prev
        self._prev = sample.transport_failures
        self._window.push(sample.t, float(delta))
        return self._window.sum()


class DeferSpikeDetector(Detector):
    """DLM defer fraction (defers / evaluations) over the window."""

    name = "defer_spike"

    def __init__(
        self, threshold, *, min_evals, window, critical_after, grace
    ) -> None:
        super().__init__(
            threshold, window=window, critical_after=critical_after, grace=grace
        )
        self.min_evals = min_evals
        self._evals = SlidingWindow(window)
        self._defers = SlidingWindow(window)
        self._prev: Optional[tuple] = None

    def _update(self, sample: HealthSample) -> Optional[float]:
        if self._prev is None:
            self._prev = (sample.evaluations, sample.deferrals)
            return None
        d_evals = sample.evaluations - self._prev[0]
        d_defers = sample.deferrals - self._prev[1]
        self._prev = (sample.evaluations, sample.deferrals)
        self._evals.push(sample.t, float(d_evals))
        self._defers.push(sample.t, float(d_defers))
        evals = self._evals.sum()
        if evals < self.min_evals:
            return None
        return self._defers.sum() / evals


class ClockStallDetector(Detector):
    """Event density per unit of simulated time between ticks.

    A stalled clock in a discrete-event run is an event *storm*: the
    scheduler churns through events while simulated time barely moves
    (zero-delay loops being the degenerate case), so the watchdog fires
    on events-per-sim-time-unit between consecutive sample ticks.
    """

    name = "clock_stall"

    def __init__(self, threshold, *, critical_after, grace) -> None:
        # The "window" is the inter-tick interval itself.
        super().__init__(
            threshold, window=1.0, critical_after=critical_after, grace=grace
        )
        self._prev: Optional[tuple] = None

    def _update(self, sample: HealthSample) -> Optional[float]:
        if self._prev is None:
            self._prev = (sample.t, sample.events)
            return None
        prev_t, prev_events = self._prev
        self._prev = (sample.t, sample.events)
        dt = sample.t - prev_t
        if dt <= 0:
            return _UNBOUNDED
        self.window = dt  # the firing's window_start is the previous tick
        return (sample.events - prev_events) / dt


class RoleFlapDetector(Detector):
    """Promotion/demotion oscillation, tracked per peer.

    The fold feeds every ``role`` record through
    :meth:`record_transition`; at each tick, peers with at least
    ``flap_transitions`` transitions inside the window fire one
    per-peer ``warning`` (latched until they calm down).  The streak
    machinery escalates at the detector level: ``critical_after``
    consecutive ticks with *any* flapping peer fires a ``critical``
    whose value is the count of concurrently flapping peers.
    """

    name = "role_flap"

    def __init__(self, threshold, *, window, critical_after, grace) -> None:
        super().__init__(
            threshold, window=window, critical_after=critical_after, grace=grace
        )
        self._transitions: Dict[int, List[float]] = {}
        self._latched: set = set()

    def record_transition(self, t: float, pid: int) -> None:
        """One role change of ``pid`` at simulated time ``t``."""
        self._transitions.setdefault(pid, []).append(t)

    def _prune(self, now: float) -> None:
        cutoff = now - self.window
        dead = []
        for pid, times in self._transitions.items():
            while times and times[0] <= cutoff:
                times.pop(0)
            if not times:
                dead.append(pid)
        for pid in dead:
            del self._transitions[pid]
            self._latched.discard(pid)

    def observe(self, sample: HealthSample) -> List[Firing]:
        t = sample.t
        self._prune(t)
        if t < self.grace:
            self.streak = 0
            self._latched.clear()
            return []
        firings: List[Firing] = []
        flapping = 0
        need = int(self.threshold)
        for pid in sorted(self._transitions):
            count = len(self._transitions[pid])
            if count >= need:
                flapping += 1
                if pid not in self._latched:
                    self._latched.add(pid)
                    firings.append(
                        Firing(
                            kind=self.kind,
                            t=t,
                            severity="warning",
                            value=float(count),
                            threshold=self.threshold,
                            window_start=max(0.0, t - self.window),
                            breaches=1,
                            pid=pid,
                        )
                    )
            else:
                self._latched.discard(pid)
        if flapping:
            self.streak += 1
            if self.streak == self.critical_after:
                firings.append(
                    self._firing(t, "critical", float(flapping), self.streak)
                )
        elif self.streak:
            firings.append(self._firing(t, "recovered", 0.0, self.streak))
            self.streak = 0
        return firings


def build_detectors(config, *, eta: float, grace: float) -> List[Detector]:
    """The enabled detectors for one run, in catalog order.

    ``config`` is a :class:`~repro.health.config.HealthConfig`; a
    ``None`` threshold drops that detector from the list entirely.
    """
    after = config.critical_after
    detectors: List[Detector] = []
    if config.ratio_band is not None:
        detectors.append(
            RatioDriftDetector(
                config.ratio_band,
                eta=eta,
                window=config.ratio_window,
                critical_after=after,
                grace=grace,
            )
        )
    if config.flap_transitions is not None:
        detectors.append(
            RoleFlapDetector(
                float(config.flap_transitions),
                window=config.flap_window,
                critical_after=after,
                grace=grace,
            )
        )
    if config.imbalance_ratio is not None:
        detectors.append(
            LoadImbalanceDetector(
                config.imbalance_ratio,
                min_supers=config.imbalance_min_supers,
                window=config.imbalance_window,
                critical_after=after,
                grace=grace,
            )
        )
    if config.surge_count is not None:
        detectors.append(
            TimeoutSurgeDetector(
                float(config.surge_count),
                window=config.surge_window,
                critical_after=after,
                grace=grace,
            )
        )
    if config.defer_rate is not None:
        detectors.append(
            DeferSpikeDetector(
                config.defer_rate,
                min_evals=config.defer_min_evals,
                window=config.defer_window,
                critical_after=after,
                grace=grace,
            )
        )
    if config.stall_events_per_unit is not None:
        detectors.append(
            ClockStallDetector(
                config.stall_events_per_unit,
                critical_after=after,
                grace=grace,
            )
        )
    return detectors
