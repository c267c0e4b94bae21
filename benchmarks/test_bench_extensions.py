"""Extension bench E2 (DESIGN.md §4)."""

from __future__ import annotations

from repro.baselines.oracle import OraclePolicy
from repro.experiments.runner import run_experiment
from repro.util.tables import render_table

from .conftest import emit


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

