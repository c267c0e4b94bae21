"""Per-query statistics accumulation.

Aggregates :class:`~repro.search.flooding.QueryOutcome`-shaped results
into success rates, message costs, and visitation footprints, with
window checkpoints so the Figure-7 harness can compare policies over the
same measurement intervals ("on same success rate").
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, fields

__all__ = ["QueryStats", "QueryStatsSnapshot"]


@dataclass(frozen=True, slots=True)
class QueryStatsSnapshot:
    """Cumulative query counters at one instant."""

    issued: int = 0
    succeeded: int = 0
    total_hits: int = 0
    total_query_messages: int = 0
    total_hit_messages: int = 0
    total_supers_visited: int = 0
    total_first_hit_latency: float = 0.0
    latency_samples: int = 0

    def minus(self, other: "QueryStatsSnapshot") -> "QueryStatsSnapshot":
        """Field-wise difference (windowed rates)."""
        return QueryStatsSnapshot(
            **{
                f.name: getattr(self, f.name) - getattr(other, f.name)
                for f in fields(self)
            }
        )

    @property
    def success_rate(self) -> float:
        """Fraction of issued queries that found at least one copy."""
        return self.succeeded / self.issued if self.issued else 0.0

    @property
    def mean_messages_per_query(self) -> float:
        """Mean total (query + hit) messages per issued query."""
        if not self.issued:
            return 0.0
        return (self.total_query_messages + self.total_hit_messages) / self.issued

    @property
    def mean_supers_visited(self) -> float:
        """Mean super-peers visited per issued query."""
        return self.total_supers_visited / self.issued if self.issued else 0.0

    @property
    def mean_hits_per_query(self) -> float:
        """Mean holders found per issued query."""
        return self.total_hits / self.issued if self.issued else 0.0

    @property
    def mean_time_to_first_hit(self) -> float:
        """Mean simulated latency until the first QueryHit returns,
        over queries routed with a latency model; 0.0 if none were."""
        if not self.latency_samples:
            return 0.0
        return self.total_first_hit_latency / self.latency_samples


class QueryStats:
    """Mutable accumulator with windowing."""

    def __init__(self) -> None:
        # Plain numbers keyed by field name (one record per query); the
        # frozen QueryStatsSnapshot is only built on read.
        self._n = dataclasses.asdict(QueryStatsSnapshot())
        self._mark = QueryStatsSnapshot()

    def record(self, outcome) -> None:
        """Accumulate one flood :class:`QueryOutcome`."""
        n = self._n
        n["issued"] += 1
        if outcome.found:
            n["succeeded"] += 1
        n["total_hits"] += outcome.hits
        n["total_query_messages"] += outcome.query_messages
        n["total_hit_messages"] += outcome.hit_messages
        n["total_supers_visited"] += outcome.supers_visited
        latency = outcome.first_hit_latency
        if latency is not None:
            n["total_first_hit_latency"] += latency
            n["latency_samples"] += 1

    @property
    def snapshot(self) -> QueryStatsSnapshot:
        """Cumulative counters."""
        return QueryStatsSnapshot(**self._n)

    def window(self) -> QueryStatsSnapshot:
        """Counters since the previous :meth:`window` call."""
        current = self.snapshot
        delta = current.minus(self._mark)
        self._mark = current
        return delta

    # ``snapshot`` is the cumulative-counters property above, so the
    # checkpoint pair uses the alternate spelling here.
    def snapshot_state(self) -> dict:
        """Checkpoint state: cumulative counters plus the window mark."""
        return {
            "counters": dict(self._n),
            "mark": dataclasses.asdict(self._mark),
        }

    def restore_state(self, state: dict) -> None:
        """Replace counters and window mark with :meth:`snapshot_state`."""
        self._n = dataclasses.asdict(QueryStatsSnapshot(**state["counters"]))
        self._mark = QueryStatsSnapshot(**state["mark"])
