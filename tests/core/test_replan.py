"""Touched-only replanning of the batch DLM evaluator (DESIGN.md §8).

After an executed transition the batch evaluator replans only the
remaining chunk entries that read something the transition touched.
Two fixtures put transitions in the middle of chunks:

* **cold start** -- one super until the 60-unit cooldown of the first
  leaves expires, so every leaf entry has that super as a member and is
  legitimately stale after each promotion;
* **settled** -- a converged overlay, where a promotion touches a
  handful of supers and most of the chunk survives.

On both, for both overlay families, the run must equal the scalar
oracle's (``batch_eval=False``) record for record and draw for draw;
on the settled one the planner must also actually prune.
"""

from __future__ import annotations

import pytest

from repro.core.config import DLMConfig
from repro.core.dlm import DLMPolicy
from repro.experiments.configs import table2_config
from repro.experiments.runner import run_experiment
from repro.telemetry import TelemetryConfig

FIXTURES = {
    # n joins spread over 70 units; promotions start at t = 60.
    "cold_start": dict(n=800, warmup=70.0, horizon=76.0, lifetime_median=600.0),
    "settled": dict(n=800, horizon=260.0),
}


def _run(fixture: str, family: str, batch: bool):
    cfg = table2_config().with_(
        seed=2004,
        family=family,
        dlm=DLMConfig(batch_eval=batch),
        telemetry=TelemetryConfig(audit_level="full"),
        **FIXTURES[fixture],
    )
    return run_experiment(cfg)


def _trajectory(res):
    pol = res.policy
    return (
        pol.evaluations,
        pol.promotions,
        pol.demotions,
        pol.forced_demotions,
        pol.deferrals,
        res.overlay.snapshot(),
        # Every audit/verdict record in emission order, and where each
        # named RNG stream ended up.
        res.ctx.telemetry.log.records(),
        res.ctx.sim.rng.snapshot(),
    )


@pytest.fixture
def plan_counts(monkeypatch):
    """Entries planned, entries applied, and transitions that executed
    with planned entries still behind them, over every batch of a run."""
    counts = {"planned": 0, "applied": 0, "mid_chunk": 0}
    plan, replan = DLMPolicy._plan_chunk, DLMPolicy._replan_stale
    apply = DLMPolicy._apply_entry

    def counting_plan(self, pids, now):
        counts["planned"] += len(pids)
        return plan(self, pids, now)

    def counting_apply(self, entry, now):
        counts["applied"] += 1
        return apply(self, entry, now)

    def counting_replan(self, plan_, start, now):
        counts["mid_chunk"] += start < len(plan_)
        return replan(self, plan_, start, now)

    monkeypatch.setattr(DLMPolicy, "_plan_chunk", counting_plan)
    monkeypatch.setattr(DLMPolicy, "_apply_entry", counting_apply)
    monkeypatch.setattr(DLMPolicy, "_replan_stale", counting_replan)
    return counts


@pytest.mark.parametrize("family", ["superpeer", "chord"])
@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_replanned_batches_match_scalar_oracle(fixture, family, plan_counts):
    batch = _run(fixture, family, True)
    assert plan_counts["mid_chunk"] >= 10, "fixture no longer lands mid-chunk"
    if fixture == "cold_start":
        # The premise of the fixture: promotions ran off a single super.
        assert batch.policy.promotions >= 5
    assert _trajectory(batch) == _trajectory(_run(fixture, family, False))


@pytest.mark.parametrize("family", ["superpeer", "chord"])
def test_settled_overlay_replans_little(family, plan_counts):
    _run("settled", family, True)
    # Replanning the whole rest of the chunk planned 1.7x what it applied
    # on this kind of overlay; the touched-set rule stays near 1.1x.
    assert plan_counts["planned"] <= 1.25 * plan_counts["applied"]
