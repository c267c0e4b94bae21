"""Query workload generation.

Queries arrive as a renewal process at a configurable network-wide rate;
each query originates at a uniformly random live peer and targets an
object drawn by catalog popularity -- matching the per-peer query
frequencies the paper's authors measured with their instrumented Gnutella
clients (§5) in aggregate.
"""

from __future__ import annotations

from typing import Optional, Protocol

from ..overlay.topology import Overlay
from ..sim.events import EventKind
from ..sim.processes import RenewalProcess
from ..sim.scheduler import Simulator
from .content import ContentCatalog
from .stats import QueryStats

__all__ = ["QueryWorkload"]


class _Router(Protocol):
    def query(self, source: int, obj: int):
        """Route one query from ``source`` for ``obj``."""
        ...


class QueryWorkload:
    """Issues popularity-weighted queries from random peers.

    Parameters
    ----------
    sim, overlay, catalog, router:
        The bound system pieces; ``router`` is a :class:`~.flooding.FloodRouter`
        or anything with its ``query(source, obj)``.
    rate:
        Mean queries per time unit network-wide.
    stats:
        Accumulator (a fresh one is created when omitted).
    """

    def __init__(
        self,
        sim: Simulator,
        overlay: Overlay,
        catalog: ContentCatalog,
        router: _Router,
        *,
        rate: float = 10.0,
        stats: Optional[QueryStats] = None,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.sim = sim
        self.overlay = overlay
        self.catalog = catalog
        self.router = router
        self.stats = stats if stats is not None else QueryStats()
        self._rng = sim.rng.get("queries")
        self._process = RenewalProcess(
            sim,
            lambda: self._rng.exponential(1.0 / rate),
            self._issue,
            kind=EventKind.QUERY_ISSUED,
        )

    def stop(self) -> None:
        """Cancel future query arrivals."""
        self._process.stop()

    def snapshot(self) -> dict:
        """Checkpoint state: accumulated stats plus the arrival process.

        The query RNG stream is restored globally with the simulator's
        streams; the catalog and router are pure functions of config and
        overlay state.
        """
        return {
            "stats": self.stats.snapshot_state(),
            "process": self._process.snapshot(),
        }

    def restore(self, state: dict, sim: Simulator) -> None:
        """Resume the workload exactly where the snapshot left off."""
        self.stats.restore_state(state["stats"])
        self._process.restore(state["process"], sim)

    def _random_source(self) -> Optional[int]:
        ov = self.overlay
        n_leaf = len(ov.leaf_ids)
        total = n_leaf + len(ov.super_ids)
        if not total:
            return None
        # Uniform over all peers: pick the layer by size, then a member.
        layer = ov.leaf_ids if self._rng.random() < n_leaf / total else ov.super_ids
        return layer.choice(self._rng)

    def _issue(self, sim: Simulator, now: float) -> None:
        source = self._random_source()
        if source is not None:
            obj = self.catalog.query_target(self._rng)
            self.stats.record(self.router.query(source, obj))

    def issue_one(self, source: Optional[int] = None, obj: Optional[int] = None):
        """Issue a single query immediately (tests and examples)."""
        if source is None:
            source = self._random_source()
            if source is None:
                raise RuntimeError("no peers to query from")
        if obj is None:
            obj = self.catalog.query_target(self._rng)
        outcome = self.router.query(source, obj)
        self.stats.record(outcome)
        return outcome
