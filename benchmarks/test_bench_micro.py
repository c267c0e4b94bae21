"""Micro-benchmarks of the hot paths.

These are the throughput numbers that justify the implementation
choices (calendar-queue scheduler, O(1) sampling set, loop/NumPy hybrid
in the scaled comparison).  They are indicative, not gated: a speed
claim about a change is made with ``python3 bench/run.py``.
"""

from __future__ import annotations

import numpy as np

from repro.core.comparison import scaled_fractions
from repro.experiments.configs import SearchConfig
from repro.experiments.runner import run_experiment
from repro.search.flooding import FloodRouter
from repro.sim.scheduler import Simulator
from repro.util.indexed_set import IndexedSet


def test_bench_event_throughput(benchmark):
    """Scheduler: schedule + deliver 50k self-perpetuating events."""

    def run():
        sim = Simulator(seed=0)
        count = 0

        def handler(s, e):
            nonlocal count
            count += 1
            if count < 50_000:
                s.schedule(0.01, "tick")

        sim.on("tick", handler)
        sim.schedule(0.01, "tick")
        sim.run()
        return count

    assert benchmark(run) == 50_000


def test_bench_scaled_comparison_super(benchmark, rng_values=None):
    """One super-peer evaluation against a full k_l=80 related set."""
    rng = np.random.default_rng(0)
    caps = list(rng.uniform(1, 600, 80))
    ages = list(rng.uniform(1, 500, 80))

    result = benchmark(
        lambda: scaled_fractions(100.0, 100.0, caps, ages, 0.8, 1.2)
    )
    assert 0.0 <= result.y_capa <= 1.0


def test_bench_indexed_set_churn(benchmark):
    """Add/discard/choice mix at overlay-registry scale."""
    rng = np.random.default_rng(1)

    def run():
        s = IndexedSet(range(2000))
        for i in range(10_000):
            s.add(2000 + i)
            s.discard(int(rng.integers(2000 + i)))
            s.choice(rng)
        return len(s)

    assert benchmark(run) > 0


def test_bench_flood_query(benchmark, bench_cfg):
    """One flood query over a settled bench-scale backbone."""
    cfg = bench_cfg.with_(
        horizon=300.0, search=SearchConfig(query_rate=0.001, n_objects=5000)
    )
    result = run_experiment(cfg)
    router = FloodRouter(result.overlay, result.directory, ttl=7)
    rng = result.ctx.sim.rng.get("micro")
    sources = result.overlay.leaf_ids.sample(rng, 64)
    catalog = result.workload.catalog
    objs = [catalog.query_target(rng) for _ in sources]
    pairs = list(zip(sources, objs))

    def run():
        hits = 0
        for src, obj in pairs:
            hits += router.query(src, obj).found
        return hits

    assert benchmark(run) >= 0
