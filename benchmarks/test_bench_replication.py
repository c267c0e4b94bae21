"""Seed-replication bench: the Figure-6 shape across independent seeds.

One seed can get lucky; this bench re-runs the ratio-maintenance
reproduction over three seeds and asserts the shape claims hold in
aggregate -- the statistical-confidence counterpart to the single-run
figure benches.
"""

from __future__ import annotations

from repro.experiments.registry import get_experiment
from repro.experiments.replication import replicate

from .conftest import emit


def test_bench_figure6_replicated(benchmark, bench_cfg):
    cfg = bench_cfg.with_(horizon=800.0)

    result = benchmark.pedantic(
        replicate,
        args=(get_experiment("figure6"),),
        kwargs={"seeds": (11, 22, 33), "config": cfg},
        rounds=1,
        iterations=1,
    )
    emit("Figure 6 across seeds", result.render())
    err = result.metrics["tail_ratio_error"]
    # Every seed lands within 35% of eta, and the mean within 25%.
    assert err.maximum < 0.35
    assert err.mean < 0.25
    # The achieved ratio is seed-stable, not a lucky draw.
    assert result.stable("tail_ratio_mean", max_cv=0.25)
