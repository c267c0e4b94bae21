"""Exact cross-shard reduction of per-layer statistics.

Each shard's :class:`~repro.metrics.layerstats.LayerStatsSampler` sees
only its own sub-overlay, so the global Figure-4..8 series have to be
reconstructed by *reducing* the shards' samples.  Reducing the derived
floats (mean of means) would be both wrong (shards have different
populations) and drifty; instead every shard logs the **raw aggregate
state** at each tick -- layer counts plus the exact fixed-point big-int
Σcapacity / Σjoin_time counters of :mod:`repro.overlay.aggregates` --
and the reduction sums those integers exactly, then derives the means
with the *same arithmetic* as
:class:`~repro.overlay.aggregates.LayerAggregate`.

Because big-int addition is exact and order-independent, the reduced
series for K shards equal what a single sampler reading a merged
aggregate plane would have produced, bit for bit, regardless of shard
count, worker layout, or reduction order.  The Hypothesis suite
(``tests/properties/test_shard_props.py``) pins exactly that: an
arbitrary partition of an arbitrary peer population reduces to the
unpartitioned scan.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..overlay.aggregates import LayerAggregate, OverlayAggregates
from .timeseries import SeriesBundle

__all__ = ["ShardSampleLog", "reduce_sample_logs"]

#: One logged tick: (now, n_super, n_leaf, super_capacity_sum,
#: super_join_time_sum, leaf_capacity_sum, leaf_join_time_sum,
#: leaf_link_count).  Counts are ints, sums are the exact 2**-1074
#: fixed-point big ints -- everything picklable, nothing lossy.
Row = Tuple[float, int, int, int, int, int, int, int]


class ShardSampleLog:
    """Per-tick raw aggregate rows of one shard.

    Registered as a sample listener on the shard's sampler, so rows are
    appended at exactly the sample times the classic engine would use.
    """

    __slots__ = ("rows",)

    def __init__(self) -> None:
        self.rows: List[Row] = []

    def observe(self, now: float, agg: OverlayAggregates) -> None:
        """Log the aggregate plane's exact state at tick ``now``."""
        sup = agg.super_layer
        leaf = agg.leaf_layer
        self.rows.append(
            (
                now,
                sup.count,
                leaf.count,
                sup.capacity_sum,
                sup.join_time_sum,
                leaf.capacity_sum,
                leaf.join_time_sum,
                agg.leaf_link_count,
            )
        )

    def snapshot(self) -> List[Row]:
        """Checkpointable copy of the logged rows."""
        return list(self.rows)

    def restore(self, rows: Sequence[Row]) -> None:
        """Adopt rows from :meth:`snapshot`."""
        self.rows = [tuple(r) for r in rows]


def reduce_sample_logs(logs: Sequence[Sequence[Row]]) -> SeriesBundle:
    """Sum per-shard logs into the global layer-stat series, exactly.

    All logs must be tick-aligned (same length, same times) -- shards
    share ``sample_interval`` and start, so this is an invariant, and a
    violation is a scheduling bug worth a loud error.  The derived
    series use :class:`LayerAggregate`'s own mean formulas, so a K=1
    "reduction" reproduces the classic sampler bit for bit and a K>1
    reduction is the exact merged-population statistic.
    """
    if not logs:
        raise ValueError("no shard sample logs to reduce")
    lengths = {len(log) for log in logs}
    if len(lengths) != 1:
        raise ValueError(
            f"shard sample logs are not tick-aligned: lengths {sorted(lengths)}"
        )
    bundle = SeriesBundle()
    for rows in zip(*logs):
        times = {r[0] for r in rows}
        if len(times) != 1:
            raise ValueError(
                f"shard sample logs disagree on tick times: {sorted(times)}"
            )
        now = rows[0][0]
        sup = LayerAggregate()
        leaf = LayerAggregate()
        links = 0
        for _, n_sup, n_leaf, sup_cap, sup_jt, leaf_cap, leaf_jt, lnk in rows:
            sup.count += n_sup
            sup.capacity_sum += sup_cap
            sup.join_time_sum += sup_jt
            leaf.count += n_leaf
            leaf.capacity_sum += leaf_cap
            leaf.join_time_sum += leaf_jt
            links += lnk
        n_sup = sup.count
        n_leaf = leaf.count
        bundle.record("n", now, n_sup + n_leaf)
        bundle.record("n_super", now, n_sup)
        bundle.record("n_leaf", now, n_leaf)
        bundle.record("ratio", now, n_leaf / n_sup if n_sup else float("inf"))
        bundle.record("super_mean_age", now, sup.mean_age(now))
        bundle.record("leaf_mean_age", now, leaf.mean_age(now))
        bundle.record("super_mean_capacity", now, sup.mean_capacity())
        bundle.record("leaf_mean_capacity", now, leaf.mean_capacity())
        bundle.record("super_mean_lnn", now, links / n_sup if n_sup else 0.0)
    return bundle
