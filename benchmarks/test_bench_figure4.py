"""Benchmark/reproduction of Figure 4 (average age per layer).

Paper shape: super-layer mean age >> leaf-layer mean age throughout the
dynamic run, surviving the mid-run halving of arrival lifetimes.
"""

from __future__ import annotations

from repro.experiments.registry import get_experiment

from .conftest import emit


def test_bench_figure4(benchmark, bench_cfg):
    exp = get_experiment("figure4")
    result = benchmark.pedantic(exp.run, args=(bench_cfg,), rounds=1, iterations=1)
    shape = exp.shape(result)
    emit(
        "Figure 4 -- average age per layer (dynamic network)",
        exp.render(result) + f"\nshape: {shape}",
    )
    # Paper: "the age of super-layer is much larger than that of
    # leaf-layer, regardless [of] the changing environments".
    assert shape["separation_factor"] > 2.0
    assert shape["ordering_violations"] == 0
    assert shape["samples"] >= 50
