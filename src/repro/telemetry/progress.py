"""Live progress reporting for long runs.

The run loop (:func:`repro.experiments.sharded.execute`) calls
:meth:`WindowProgress.update` at every barrier -- the sample grid of a
one-system run, the lookahead grid of a sharded one -- with the barrier
time and the run's event count summed over its shards.  The reporter
checks a **wall-clock** cadence and, when due, logs one run-level line to
the ``repro.progress`` logger (stderr under the CLI's default logging
config):

    figure6: t=4380/14400 (30.4%) | 112034 events | 45210 ev/s | eta 92s

Throughput is measured between reports; the ETA extrapolates the
remaining *simulated* horizon at the observed sim-time rate.  Like the
rest of the telemetry plane the reporter is pure observation: it lives
outside every simulator, schedules nothing, and a run with or without it
is bit-identical.
"""

from __future__ import annotations

import logging
import time
from typing import Optional

__all__ = ["WindowProgress"]

logger = logging.getLogger("repro.progress")


def format_progress(
    label: str,
    *,
    sim_t: float,
    horizon: float,
    events: int,
    rate: float,
    sim_rate: float,
) -> str:
    """The one-line progress format."""
    pct = 100.0 * sim_t / horizon if horizon else 0.0
    if sim_rate > 0 and horizon:
        eta = f"{(horizon - sim_t) / sim_rate:.0f}s"
    else:
        eta = "?"
    return (
        f"{label}: t={sim_t:g}/{horizon:g} ({pct:.1f}%)"
        f" | {events} events | {rate:.0f} ev/s | eta {eta}"
    )


class WindowProgress:
    """Run-level progress at the run loop's barriers (see module docstring)."""

    def __init__(
        self,
        *,
        horizon: float,
        every: float = 5.0,
        label: str = "run",
        clock=time.monotonic,
    ) -> None:
        if every <= 0:
            raise ValueError(f"progress cadence must be > 0, got {every}")
        self.horizon = horizon
        self.every = every
        self.label = label
        self._clock = clock
        now = clock()
        self._last_wall = now
        self._last_events = 0
        self._last_sim_t = 0.0
        self.reports = 0

    def update(self, sim_t: float, events: int) -> Optional[str]:
        """One barrier reached; logs (and returns) a line when due."""
        wall = self._clock()
        if wall - self._last_wall < self.every:
            return None
        dt_wall = max(wall - self._last_wall, 1e-9)
        rate = (events - self._last_events) / dt_wall
        sim_rate = (sim_t - self._last_sim_t) / dt_wall
        line = format_progress(
            self.label,
            sim_t=sim_t,
            horizon=self.horizon,
            events=events,
            rate=rate,
            sim_rate=sim_rate,
        )
        logger.info(line)
        self._last_wall = wall
        self._last_events = events
        self._last_sim_t = sim_t
        self.reports += 1
        return line
