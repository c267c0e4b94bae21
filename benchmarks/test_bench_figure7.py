"""Benchmark/reproduction of Figure 7 (ratio: DLM vs preconfigured).

Paper shape: "DLM maintains the layer size ratio very well, while in the
preconfigured algorithm, the layer size ratio changes periodically" --
on the same query workload ("on Same Success Rate").
"""

from __future__ import annotations

from repro.experiments.registry import get_experiment

from .conftest import emit


def test_bench_figure7(benchmark, bench_cfg):
    exp = get_experiment("figure7")
    result = benchmark.pedantic(exp.run, args=(bench_cfg,), rounds=1, iterations=1)
    shape = exp.shape(result)
    emit(
        "Figure 7 -- layer size ratio under periodic capacity shifts",
        exp.render(result) + f"\nshape: {shape}",
    )
    # DLM holds the target; the fixed threshold oscillates with the
    # workload -- its swing should be clearly larger.
    assert shape["dlm_ratio_error"] < 0.35
    assert shape["pre_ratio_swing"] > 1.5 * shape["dlm_ratio_swing"]
    # "Same success rate": both serve queries comparably.
    assert abs(shape["dlm_success_rate"] - shape["pre_success_rate"]) < 0.2
