"""Benchmark/reproduction of Figure 6 (layer sizes, log scale).

Paper shape: "an almost constant ratio is maintained throughout the
simulation process, even [as] the network environment is changing".
"""

from __future__ import annotations

from repro.experiments.registry import get_experiment

from .conftest import emit


def test_bench_figure6(benchmark, bench_cfg):
    exp = get_experiment("figure6")
    result = benchmark.pedantic(exp.run, args=(bench_cfg,), rounds=1, iterations=1)
    shape = exp.shape(result)
    emit(
        "Figure 6 -- layer sizes (log scale, dynamic network)",
        exp.render(result) + f"\nshape: {shape}",
    )
    # Tail ratio within ~25% of the protocol target eta=40 ...
    assert shape["tail_ratio_error"] < 0.25
    # ... and near-flat on the paper's log axis (swing << the 2x-4x
    # excursions the preconfigured baseline shows in Figure 7).
    assert shape["ratio_swing"] < 1.0
