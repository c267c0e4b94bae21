"""Tier-1 guard for the surface ``bench/`` drives (read-only on ``bench/``):
a rename that would make the pipeline's benchmark run fail fails here first."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from repro.experiments.configs import bench_config
from repro.experiments.runner import run_experiment
from repro.overlay.topology import OverlayError

_TRACE = Path(__file__).resolve().parent.parent / "bench" / "trace.py"


def _bench_trace():
    # By file path: a bare ``import trace`` finds the stdlib module.
    spec = importlib.util.spec_from_file_location("bench_trace", _TRACE)
    bench_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_trace)
    return bench_trace


def test_every_traced_method_is_defined_on_its_class():
    bench_trace = _bench_trace()
    for span, (module, cls, method) in bench_trace.METHOD_SPANS.items():
        owner = getattr(importlib.import_module(module), cls)
        assert callable(vars(owner).get(method)), f"{span}: {module}.{cls}.{method}"


def test_export_run_is_an_attribute_of_every_patched_module():
    # The tracer swaps ``vars(module)["export_run"]`` in each of these.
    for module in _bench_trace()._EXPORT_RUN_SITES:
        assert callable(vars(importlib.import_module(module)).get("export_run")), module


def test_a_finished_run_has_what_bench_verify_reads():
    result = run_experiment(bench_config().with_(n=60, horizon=110.0))
    ctx, policy = result.ctx, result.policy
    ctx.overlay.check_invariants(aggregates=True)
    for value in (ctx.overlay.n_super, ctx.overlay.n_leaf, ctx.sim.events_processed,
                  ctx.overlay.total_connections_created, policy.evaluations,
                  policy.promotions, policy.demotions, policy.deferrals):
        assert isinstance(value, int)
    ledger = ctx.messages.snapshot()
    assert ledger.total_count() > 0 and ledger.total_bytes() > 0
    for tally in (ledger.counts, ledger.bytes, ledger.retransmissions, ledger.timeouts):
        assert sum(tally.values()) >= 0


def test_an_edited_aggregate_fails_the_invariant_check():
    # bench/tests' verifier check: the fold is kept until the next mutation.
    overlay = run_experiment(bench_config().with_(n=60, horizon=110.0)).ctx.overlay
    overlay.aggregates.leaf_link_count += 1
    with pytest.raises(OverlayError, match="leaf_link_count"):
        overlay.check_invariants(aggregates=True)
