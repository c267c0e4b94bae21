"""``repro profile evaluate``'s exit tally against the run's own counts."""

from __future__ import annotations

from repro.churn.distributions import BandwidthMixture, LogNormalDistribution
from repro.churn.lifecycle import ChurnDriver
from repro.context import build_context
from repro.core import DLMConfig
from repro.core.dlm import DLMPolicy
from repro.experiments.configs import bench_config
from repro.experiments.runner import run_experiment
from repro.profile import _count_exits
from repro.protocol.faults import FaultPlan
from repro.sim.processes import PeriodicProcess
from repro.telemetry.config import TelemetryConfig


def _tallied(run):
    """``run()`` under the profiler's exit tally, and under the policy's
    own split of the guard exits, counted past them: every evaluation
    that clears the cooldown calls one of the two verdicts, and a leaf
    verdict on an ineligible leaf returns at its first test.  Returns
    ``(run(), exit totals, counts per (trigger, exit), reached)``."""
    before = dict(vars(DLMPolicy))
    reached = {"super": 0, "leaf": 0, "ineligible": 0}
    leaf, sup = DLMPolicy._evaluate_leaf, DLMPolicy._evaluate_super

    def evaluate_leaf(self, peer, now):
        reached["leaf"] += 1
        reached["ineligible"] += not peer._store.eligible[peer._slot]
        return leaf(self, peer, now)

    def evaluate_super(self, peer, now):
        reached["super"] += 1
        return sup(self, peer, now)

    DLMPolicy._evaluate_leaf = evaluate_leaf
    DLMPolicy._evaluate_super = evaluate_super
    counts: dict = {}
    undo = _count_exits(DLMPolicy, counts)
    try:
        result = run()
    finally:
        undo()
        DLMPolicy._evaluate_leaf, DLMPolicy._evaluate_super = leaf, sup
    assert vars(DLMPolicy) == before
    exits: dict = {}
    for (trigger, exit_), n in counts.items():
        assert trigger in ("drain", "sweep", "other")
        exits[exit_] = exits.get(exit_, 0) + n
    return result, exits, counts, reached


def _assert_guard_split(policy, exits, counts, reached):
    # Every call past the first two guards is an evaluation.
    passed = sum(counts.values()) - exits.get("gone", 0) - exits.get("rate limit", 0)
    assert passed == policy.evaluations
    verdicts_reached = reached["leaf"] + reached["super"]
    assert exits.get("cooldown", 0) == policy.evaluations - verdicts_reached > 0
    assert exits.get("ineligible", 0) == reached["ineligible"]
    assert exits.get("defer", 0) == policy.deferrals


def test_the_exit_tally_agrees_with_the_policy_and_the_audit():
    result, exits, counts, reached = _tallied(
        lambda: run_experiment(
            bench_config().with_(
                n=300,
                horizon=150.0,
                faults=FaultPlan(loss_rate=0.2, latency_scale=0.2),
                telemetry=TelemetryConfig(),
            )
        )
    )
    policy = result.policy
    _assert_guard_split(policy, exits, counts, reached)
    assert policy.deferrals > 0
    tallies = result.ctx.telemetry.audit.verdict_counts
    verdicts = ("promote", "demote", "none")
    assert exits["verdict"] == sum(tallies.get(v, 0) for v in verdicts)
    assert counts[("drain", "verdict")] and counts[("sweep", "verdict")]


def test_the_exit_tally_splits_ineligible_leaves_from_the_cooldown():
    policy = DLMPolicy(DLMConfig(eta=15.0))

    def run():
        ctx = build_context(seed=51)
        policy.bind(ctx)
        PeriodicProcess(ctx.sim, 10.0, lambda s, n: ctx.maintenance.sweep(), kind="m")
        driver = ChurnDriver(
            ctx,
            policy,
            LogNormalDistribution(median=60.0, sigma=1.0),
            BandwidthMixture(),
            eligible_fraction=0.5,
        )
        driver.populate(300, warmup=30.0)
        ctx.sim.run(until=150.0)

    _, exits, counts, reached = _tallied(run)
    _assert_guard_split(policy, exits, counts, reached)
    assert reached["ineligible"] > 0
