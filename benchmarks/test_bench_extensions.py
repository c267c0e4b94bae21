"""Extension benches E1-E2 (DESIGN.md §4)."""

from __future__ import annotations

from repro.baselines.oracle import OraclePolicy
from repro.experiments.configs import SearchConfig
from repro.experiments.runner import run_experiment
from repro.search.flooding import FloodRouter
from repro.search.stats import QueryStats
from repro.search.walkers import RandomWalkRouter
from repro.util.tables import render_table

from .conftest import emit


def test_bench_e1_flooding_vs_walkers(benchmark, bench_cfg):
    """E1: k-walker random walks vs flooding on the same settled overlay.

    Expected shape (unstructured-search folklore): walkers cut traffic by
    an order of magnitude at some recall cost.
    """
    cfg = bench_cfg.with_(
        horizon=500.0, search=SearchConfig(query_rate=0.001, n_objects=5000)
    )

    def run():
        result = run_experiment(cfg)
        overlay = result.overlay
        directory = result.directory
        sim = result.ctx.sim
        flood = FloodRouter(overlay, directory, ttl=cfg.search.ttl)
        walk = RandomWalkRouter(
            overlay, directory, sim.rng.get("bench-walk"), walkers=16, max_steps=48
        )
        flood_stats, walk_stats = QueryStats(), QueryStats()
        rng = sim.rng.get("bench-queries")
        catalog = result.workload.catalog
        sources = overlay.leaf_ids.sample(rng, 300)
        for src in sources:
            obj = catalog.query_target(rng)
            flood_stats.record(flood.query(src, obj))
            walk_stats.record(walk.query(src, obj))
        return flood_stats.snapshot, walk_stats.snapshot

    flood, walk = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "Extension E1 -- flooding vs k-walker random walks",
        render_table(
            ["router", "success rate", "msgs/query", "supers visited/query"],
            [
                (
                    "flooding (TTL=7)",
                    flood.success_rate,
                    flood.mean_messages_per_query,
                    flood.mean_supers_visited,
                ),
                (
                    "16 walkers x 48 steps",
                    walk.success_rate,
                    walk.mean_messages_per_query,
                    walk.mean_supers_visited,
                ),
            ],
        ),
    )
    assert walk.mean_messages_per_query < flood.mean_messages_per_query
    assert walk.success_rate > 0.3  # walkers still find popular objects


def test_bench_e2_dlm_vs_oracle(benchmark, bench_cfg):
    """E2: how close does DLM get to the global-knowledge upper bound?"""
    cfg = bench_cfg.with_(horizon=800.0)

    def run():
        dlm = run_experiment(cfg)
        oracle = run_experiment(
            cfg, policy_factory=lambda c: OraclePolicy(eta=c.eta, interval=20.0)
        )
        return dlm, oracle

    dlm, oracle = benchmark.pedantic(run, rounds=1, iterations=1)

    def quality(result):
        return (
            result.series["ratio"].tail_mean(),
            result.series["super_mean_age"].tail_mean()
            / max(result.series["leaf_mean_age"].tail_mean(), 1e-9),
            result.series["super_mean_capacity"].tail_mean()
            / max(result.series["leaf_mean_capacity"].tail_mean(), 1e-9),
        )

    d_ratio, d_age_sep, d_cap_sep = quality(dlm)
    o_ratio, o_age_sep, o_cap_sep = quality(oracle)
    emit(
        "Extension E2 -- DLM vs global-knowledge oracle",
        render_table(
            ["policy", "tail ratio", "age separation", "capacity separation"],
            [
                ("DLM (distributed)", d_ratio, d_age_sep, d_cap_sep),
                ("oracle (global knowledge)", o_ratio, o_age_sep, o_cap_sep),
            ],
        ),
    )
    # DLM must achieve meaningful layer quality without global knowledge;
    # the oracle (which optimizes the age-x-capacity *product*) shows the
    # combined optimum -- it can trade one metric against the other, so
    # per-metric separations are compared loosely.
    assert d_age_sep > 1.5
    assert d_cap_sep > 1.2
    assert o_age_sep > 1.5 and o_cap_sep > 1.2

