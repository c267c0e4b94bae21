"""Benchmark/reproduction of Figure 5 (average capacity per layer).

Paper shape: super-layer mean capacity always above the leaf-layer's,
and tracking upward after the capacity-mean doubling at mid-run.
"""

from __future__ import annotations

from repro.experiments.registry import get_experiment

from .conftest import emit


def test_bench_figure5(benchmark, bench_cfg):
    exp = get_experiment("figure5")
    result = benchmark.pedantic(exp.run, args=(bench_cfg,), rounds=1, iterations=1)
    shape = exp.shape(result)
    emit(
        "Figure 5 -- average capacity per layer (dynamic network)",
        exp.render(result) + f"\nshape: {shape}",
    )
    # Paper: "the average capacity value of super-layer is always larger
    # than that of leaf-layer".  We require it in both steady regimes;
    # during the adaptation window right after the capacity doubling the
    # leaf mean transiently leads (new strong arrivals are leaves until
    # they satisfy the age gate) -- documented in EXPERIMENTS.md.
    assert shape["separation_pre_shift"] > 1.3
    assert shape["separation_final"] > 1.0
    # The doubling of arrival capacity means pulls the super-layer up.
    assert shape["super_capacity_uplift"] > 1.2
