"""Fault injection for the Phase-1 information-collection plane.

A :class:`FaultPlan` switches the information exchange from the
omniscient synchronous model (instant, lossless, the paper's implicit
assumption) to the *message-driven* engine: every ``neigh_num`` /
``value`` request really travels, may be delayed or dropped, times out,
and is retried with exponential backoff.  The plan collects every knob
of that engine so experiment configs can carry it as one value.

``None`` (no plan) is the omniscient mode and reproduces pre-refactor
sample paths bit for bit; any plan -- even one with zero loss and zero
latency -- routes knowledge through messages, which is how the
``figure_faults`` harness isolates the cost of the protocol itself from
the cost of the faults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["FaultPlan"]


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """Loss, latency, and timeout parameters of the Phase-1 transport.

    Attributes
    ----------
    loss_rate:
        Independent drop probability applied to each message *leg*
        (request and response separately), so the probability a round
        trip survives is ``(1 - loss_rate)^2``.
    latency_scale:
        Median one-way delay of a message leg, in simulated time units.
        Delays are log-normal (the wide-area fit used by the search
        plane); 0 delivers at the current instant (FIFO-ordered).
    latency_sigma:
        Shape of the log-normal delay distribution.
    timeout:
        How long a requester waits for a response before declaring the
        attempt lost.  Attempt ``i`` waits ``timeout * backoff**i``.
    max_retries:
        Retransmissions after the first attempt; once exhausted the
        request fails permanently and the evaluator proceeds on (or
        defers for) whatever knowledge it has.
    backoff:
        Timeout multiplier per retry (exponential backoff).
    burst_loss_rate / burst_interval / burst_duration:
        Optional periodic burst loss: during the first
        ``burst_duration`` units of every ``burst_interval`` window, the
        loss rate is raised to ``burst_loss_rate`` (modeling correlated
        outages rather than independent drops).  ``burst_interval=None``
        disables bursts.
    staleness_horizon:
        Maximum age of a cached neighbor observation before the
        evaluator treats it as unknown (and defers rather than acting on
        it).  ``inf`` keeps observations usable forever, matching the
        paper's event-driven policy where values are only re-learned on
        new connections.
    """

    loss_rate: float = 0.0
    latency_scale: float = 0.0
    latency_sigma: float = 0.5
    timeout: float = 8.0
    max_retries: int = 2
    backoff: float = 2.0
    burst_loss_rate: float = 0.0
    burst_interval: float | None = None
    burst_duration: float = 0.0
    staleness_horizon: float = math.inf

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {self.loss_rate}")
        if not 0 <= self.latency_scale < math.inf:
            raise ValueError("latency_scale must be finite and >= 0")
        if self.latency_sigma <= 0:
            raise ValueError("latency_sigma must be positive")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1")
        if not 0.0 <= self.burst_loss_rate < 1.0:
            raise ValueError("burst_loss_rate must be in [0, 1)")
        if self.burst_interval is not None:
            if self.burst_interval <= 0:
                raise ValueError("burst_interval must be positive or None")
            if not 0 < self.burst_duration <= self.burst_interval:
                raise ValueError(
                    "burst_duration must be in (0, burst_interval] when "
                    "bursts are enabled"
                )
        if self.staleness_horizon <= 0:
            raise ValueError("staleness_horizon must be positive")

    def loss_at(self, now: float) -> float:
        """Effective drop probability at simulated time ``now``."""
        if self.burst_interval is not None:
            if now % self.burst_interval < self.burst_duration:
                return max(self.loss_rate, self.burst_loss_rate)
        return self.loss_rate

    @property
    def lossless(self) -> bool:
        """Whether no message can ever be dropped."""
        return self.loss_rate == 0.0 and (
            self.burst_interval is None or self.burst_loss_rate == 0.0
        )
