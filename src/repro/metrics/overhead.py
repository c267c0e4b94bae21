"""Peer Adjustment Overhead accounting (paper §6, Table 3).

Definitions, following the paper exactly:

* **NLCO** (New Leaf-initiated Connection Overhead): every freshly joined
  leaf creates ``m`` connections to super-peers.
* **PAO** (Peer Adjustment Overhead): when a super-peer is demoted, its
  leaf neighbors are disconnected and each creates **one** replacement
  connection -- 1/m of a join's overhead per orphan.
* Promotions cause no PAO ("no peers are disconnected during the
  process").

Table 3 reports, per unit time: the number of new leaf-peers, demoted
super-peers, disconnected leaf-peers, and the ratio PAO/NLCO (%).  The
ledger keeps cumulative counters plus a windowing mark so the harness can
compute per-unit rates over a measurement interval.

Super-peer *deaths* also orphan leaves; the paper's PAO metric counts
only demotion-induced reconnects, but we track death-induced repair
separately (``death_reconnects``) because the ablation benches use it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, fields

__all__ = ["OverheadCounters", "OverheadLedger", "Table3Row"]


@dataclass(frozen=True, slots=True)
class OverheadCounters:
    """Cumulative structural-churn counters."""

    new_leaf_joins: int = 0
    nlco_connections: int = 0
    demotions: int = 0
    demotion_orphans: int = 0
    pao_connections: int = 0
    promotions: int = 0
    super_deaths: int = 0
    death_orphans: int = 0
    death_reconnects: int = 0

    def minus(self, other: "OverheadCounters") -> "OverheadCounters":
        """Field-wise difference (for windowed rates)."""
        return OverheadCounters(
            **{
                f.name: getattr(self, f.name) - getattr(other, f.name)
                for f in fields(self)
            }
        )

    def pao_nlco_ratio(self) -> float:
        """PAO/NLCO as a fraction of connection counts; 0 when no joins."""
        if self.nlco_connections == 0:
            return 0.0
        return self.pao_connections / self.nlco_connections


@dataclass(frozen=True, slots=True)
class Table3Row:
    """One row of Table 3, normalized per unit time."""

    network_size: int
    new_leaf_peers_per_unit: float
    demoted_supers_per_unit: float
    disconnected_leaves_per_unit: float
    pao_nlco_percent: float


class OverheadLedger:
    """Mutable accumulator for the §6 overhead metrics."""

    def __init__(self, m: int) -> None:
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        self.m = m
        # Plain ints keyed by field name: recording runs once per join,
        # the frozen OverheadCounters is only built when someone reads.
        self._n = dataclasses.asdict(OverheadCounters())
        self._mark = OverheadCounters()
        self._mark_time = 0.0

    # -- recording --------------------------------------------------------
    def record_leaf_join(self, connections: int | None = None) -> None:
        """A new leaf joined, creating ``connections`` links (default m)."""
        n = self._n
        n["new_leaf_joins"] += 1
        n["nlco_connections"] += self.m if connections is None else connections

    def record_promotion(self) -> None:
        """A leaf was promoted (no PAO: nothing is disconnected)."""
        self._n["promotions"] += 1

    def record_demotion(self, orphans: int, reconnections: int) -> None:
        """A super was demoted, orphaning ``orphans`` leaves which made
        ``reconnections`` replacement links (the PAO)."""
        n = self._n
        n["demotions"] += 1
        n["demotion_orphans"] += orphans
        n["pao_connections"] += reconnections

    def record_super_death(self, orphans: int, reconnections: int) -> None:
        """A super-peer died, orphaning ``orphans`` leaves which made
        ``reconnections`` repair links (tracked apart from PAO)."""
        n = self._n
        n["super_deaths"] += 1
        n["death_orphans"] += orphans
        n["death_reconnects"] += reconnections

    # -- reading ------------------------------------------------------------
    @property
    def counters(self) -> OverheadCounters:
        """Cumulative counters since the start of the run."""
        return OverheadCounters(**self._n)

    def window(self, now: float) -> tuple[OverheadCounters, float]:
        """Counters and elapsed time since the previous window mark."""
        current = self.counters
        delta = current.minus(self._mark)
        elapsed = now - self._mark_time
        self._mark = current
        self._mark_time = now
        return delta, elapsed

    def snapshot(self) -> dict:
        """Checkpoint state: cumulative counters plus the window mark."""
        return {
            "counters": dict(self._n),
            "mark": dataclasses.asdict(self._mark),
            "mark_time": self._mark_time,
        }

    def restore(self, state: dict) -> None:
        """Replace counters and window mark with a :meth:`snapshot`."""
        self._n = dataclasses.asdict(OverheadCounters(**state["counters"]))
        self._mark = OverheadCounters(**state["mark"])
        self._mark_time = state["mark_time"]

    def table3_row(
        self, network_size: int, window: OverheadCounters, elapsed: float
    ) -> Table3Row:
        """Render a windowed measurement as a Table-3 row."""
        if elapsed <= 0:
            raise ValueError(f"elapsed must be positive, got {elapsed}")
        return Table3Row(
            network_size=network_size,
            new_leaf_peers_per_unit=window.new_leaf_joins / elapsed,
            demoted_supers_per_unit=window.demotions / elapsed,
            disconnected_leaves_per_unit=window.demotion_orphans / elapsed,
            pao_nlco_percent=100.0 * window.pao_nlco_ratio(),
        )
