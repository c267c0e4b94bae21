"""Per-layer statistics sampling (the data behind Figures 4-8).

A :class:`LayerStatsSampler` records, every ``interval`` time units and
per layer: size, mean age, mean capacity -- plus the layer-size ratio
and the super-layer's mean leaf-neighbor count (the quantity DLM's µ
estimator observes).  Series names are stable strings so the figure
harnesses can pull them out by name.

Sampling is O(1) per tick: all values are constant-time reads of the
overlay's incremental :class:`~repro.overlay.aggregates.OverlayAggregates`
plane, not a walk over ``overlay.peers()``.  The exact brute-force
rebuild those counters are audited against is
:meth:`OverlayAggregates.scan`, which ``check_invariants(aggregates=True)``
runs.
"""

from __future__ import annotations

from typing import Optional

from ..overlay.topology import Overlay
from ..sim.events import EventKind
from ..sim.processes import PeriodicProcess
from ..sim.scheduler import Simulator
from .timeseries import SeriesBundle

__all__ = ["LayerStatsSampler", "SERIES_NAMES"]

#: All series a sampler produces.
SERIES_NAMES = (
    "n",
    "n_super",
    "n_leaf",
    "ratio",
    "super_mean_age",
    "leaf_mean_age",
    "super_mean_capacity",
    "leaf_mean_capacity",
    "super_mean_lnn",
)


class LayerStatsSampler:
    """Periodic layer-statistics sampler (O(1) per sample)."""

    __slots__ = ("overlay", "bundle", "_process", "_listeners")

    def __init__(
        self,
        sim: Simulator,
        overlay: Overlay,
        *,
        interval: float = 10.0,
        bundle: Optional[SeriesBundle] = None,
        start: Optional[float] = None,
    ) -> None:
        self.overlay = overlay
        self.bundle = bundle if bundle is not None else SeriesBundle()
        self._listeners: list = []
        self._process = PeriodicProcess(
            sim, interval, self.sample, start=start, kind=EventKind.METRICS_SAMPLE
        )

    def add_sample_listener(self, listener) -> None:
        """Register ``listener(now, aggregates)`` to run after each tick.

        The shard plane uses this to log the exact big-int aggregate
        state at every sample time (see
        :class:`~repro.metrics.shardstats.ShardSampleLog`); listeners
        observe, they must not mutate.
        """
        self._listeners.append(listener)

    def stop(self) -> None:
        """Cancel future samples."""
        self._process.stop()

    def snapshot(self) -> dict:
        """Checkpoint state: the recorded series plus the tick process."""
        return {
            "bundle": self.bundle.snapshot(),
            "process": self._process.snapshot(),
        }

    def restore(self, state: dict, sim: Simulator) -> None:
        """Resume sampling exactly where the snapshot left off."""
        self.bundle.restore(state["bundle"])
        self._process.restore(state["process"], sim)

    def sample(self, sim: Simulator, now: float) -> None:
        """Take one sample at ``now`` (also callable directly in tests)."""
        agg = self.overlay.aggregates
        sup = agg.super_layer
        leaf = agg.leaf_layer
        n_sup = sup.count
        n_leaf = leaf.count
        b = self.bundle
        b.record("n", now, n_sup + n_leaf)
        b.record("n_super", now, n_sup)
        b.record("n_leaf", now, n_leaf)
        b.record("ratio", now, n_leaf / n_sup if n_sup else float("inf"))
        b.record("super_mean_age", now, sup.mean_age(now))
        b.record("leaf_mean_age", now, leaf.mean_age(now))
        b.record("super_mean_capacity", now, sup.mean_capacity())
        b.record("leaf_mean_capacity", now, leaf.mean_capacity())
        b.record("super_mean_lnn", now, agg.super_mean_lnn())
        for listener in self._listeners:
            listener(now, agg)
