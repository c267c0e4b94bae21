"""Per-layer statistics sampling (the data behind Figures 4-8).

A :class:`LayerStatsSampler` records, every ``interval`` time units and
per layer: size, mean age, mean capacity -- plus the layer-size ratio
and the super-layer's mean leaf-neighbor count (the quantity DLM's µ
estimator observes).  Series names are stable strings so the figure
harnesses can pull them out by name.

Every value of a tick comes from one exact fold of the store's columns,
:class:`~repro.overlay.aggregates.OverlayAggregates`, which the tick's
sample listeners share; no sample walks ``overlay.peers()``.
"""

from __future__ import annotations

from typing import Optional

from ..overlay.aggregates import LayerAggregate
from ..overlay.topology import Overlay
from ..sim.events import EventKind
from ..sim.processes import PeriodicProcess
from ..sim.scheduler import Simulator
from .timeseries import SeriesBundle

__all__ = ["LayerStatsSampler", "SERIES_NAMES", "record_tick"]

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


def record_tick(
    bundle: SeriesBundle,
    now: float,
    sup: LayerAggregate,
    leaf: LayerAggregate,
    links: int,
) -> None:
    """Record the :data:`SERIES_NAMES` values of one tick at ``now``.

    ``sup``/``leaf`` are the two layers' aggregates and ``links`` the
    leaf-link count; the sampler passes its overlay's live fold, the
    shard reduction the summed logs, so both derive every series with
    the same arithmetic.
    """
    n_sup = sup.count
    n_leaf = leaf.count
    values = (
        n_sup + n_leaf,
        n_sup,
        n_leaf,
        n_leaf / n_sup if n_sup else float("inf"),
        sup.mean_age(now),
        leaf.mean_age(now),
        sup.mean_capacity(),
        leaf.mean_capacity(),
        links / n_sup if n_sup else 0.0,
    )
    for name, value in zip(SERIES_NAMES, values):
        bundle.record(name, now, value)


class LayerStatsSampler:
    """Periodic layer-statistics sampler."""

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
        record_tick(
            self.bundle, now, agg.super_layer, agg.leaf_layer, agg.leaf_link_count
        )
        for listener in self._listeners:
            listener(now, agg)
