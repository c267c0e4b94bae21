"""Large-N scale bench: the churned 100k-peer DLM workload.

Runs the ``largescale_config`` dynamic scenario (replacement churn plus
the Figure-4/5 mean shifts) end to end and reports simulator throughput
and peak memory.  The default population here is CI-scale (n = 5 000);
``REPRO_BENCH_N`` / ``REPRO_BENCH_HORIZON`` set the scale (the preset's
warm-up is 60 units, so the horizon must exceed that): the full run is
``REPRO_BENCH_N=100000 pytest benchmarks/test_bench_largescale.py``, the
CI smoke legs run n = 10 000 and a shortened n = 100 000, and
``REPRO_BENCH_N=1000000 REPRO_BENCH_HORIZON=90`` is the million-peer
memory probe of EXPERIMENTS.md.

What makes 100k reachable (see DESIGN.md "Aggregate plane"):

* ``LayerStatsSampler.sample()`` reads the O(1) incremental
  :class:`~repro.overlay.aggregates.OverlayAggregates` plane instead of
  scanning every peer per tick;
* hot state is slotted and series storage is unboxed ``array('d')``;
* transport ``_Pending`` records recycle through a free-list pool.
"""

from __future__ import annotations

import os
import resource
import time

from repro.experiments.configs import largescale_config
from repro.experiments.dynamic_run import run_dynamic_scenario

from .conftest import emit

#: CI-scale default; override with REPRO_BENCH_N / REPRO_BENCH_HORIZON.
QUICK_N = 5_000
QUICK_HORIZON = 120.0
QUICK_WARMUP = 40.0


def _scale_cfg():
    cfg = largescale_config()
    n = os.environ.get("REPRO_BENCH_N")
    horizon = os.environ.get("REPRO_BENCH_HORIZON")
    if n or horizon:
        if n:
            cfg = cfg.with_(n=int(n))
        if horizon:
            cfg = cfg.with_(horizon=float(horizon))
        return cfg
    return cfg.with_(n=QUICK_N, horizon=QUICK_HORIZON, warmup=QUICK_WARMUP)


def test_bench_largescale_churned_run(benchmark):
    cfg = _scale_cfg()
    started = time.perf_counter()
    dyn = benchmark.pedantic(
        run_dynamic_scenario, args=(cfg,), rounds=1, iterations=1
    )
    wall = time.perf_counter() - started
    run = dyn.result
    sim = run.ctx.sim

    # The run completed end to end at the requested scale, under churn.
    # (Replacement joins scheduled at the horizon can be unprocessed.)
    assert cfg.n - 5 <= run.overlay.n <= cfg.n
    assert run.driver.deaths > 0
    assert run.driver.joins > cfg.n  # replacement churn really happened
    # Sampler recorded the whole horizon through the O(1) path.
    assert len(run.series["ratio"]) >= cfg.horizon / cfg.sample_interval - 1
    # The incremental aggregate plane is exactly consistent at the end.
    run.overlay.check_invariants(aggregates=True)

    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    emit(
        f"large-scale churned run (n={cfg.n}, horizon={cfg.horizon})",
        f"wall: {wall:.2f}s\n"
        f"events: {sim.events_processed:,} "
        f"({sim.events_processed / wall:,.0f}/s)\n"
        f"joins: {run.driver.joins:,}  deaths: {run.driver.deaths:,}\n"
        f"final ratio: {run.overlay.layer_size_ratio():.2f} "
        f"(target eta={cfg.eta})\n"
        f"peak rss: {peak_mb:.0f} MB",
    )
