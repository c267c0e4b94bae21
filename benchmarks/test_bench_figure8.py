"""Benchmark/reproduction of Figure 8 (layer ages: DLM vs preconfigured).

Paper shape: under DLM the layer mean ages "are sharply divided and the
average age of super-layer is much larger than that of the preconfigured
algorithm".
"""

from __future__ import annotations

from repro.experiments.registry import get_experiment

from .conftest import emit


def test_bench_figure8(benchmark, bench_cfg):
    exp = get_experiment("figure8")
    result = benchmark.pedantic(exp.run, args=(bench_cfg,), rounds=1, iterations=1)
    shape = exp.shape(result)
    emit(
        "Figure 8 -- average age comparisons (DLM vs preconfigured)",
        exp.render(result) + f"\nshape: {shape}",
    )
    # DLM separates the layers by age; the capacity threshold does not
    # (it elects young-but-fast peers as readily as old ones).
    assert shape["dlm_age_separation"] > 1.5 * shape["pre_age_separation"]
    # DLM's super-layer is older than the baseline's in absolute terms.
    assert shape["super_age_advantage"] > 1.2
