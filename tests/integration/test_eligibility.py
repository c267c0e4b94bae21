"""Eligibility extension: §2's non-capacity super-peer requirements.

Ineligible peers (firewalled, unsuitable OS) must stay in the leaf-layer
under every policy, no matter how strong or old they are -- cold-start
seeds excepted.
"""

from __future__ import annotations

import pytest

from repro.baselines import (
    OraclePolicy,
    PreconfiguredPolicy,
    RandomElectionPolicy,
)
from repro.churn.distributions import BandwidthMixture, LogNormalDistribution
from repro.churn.lifecycle import ChurnDriver
from repro.context import build_context
from repro.core import DLMConfig, DLMPolicy
from repro.sim.processes import PeriodicProcess


def run_policy(policy_factory, *, eligible_fraction=0.5, seed=51, horizon=350.0):
    ctx = build_context(seed=seed)
    policy = policy_factory()
    policy.bind(ctx)
    PeriodicProcess(ctx.sim, 10.0, lambda s, n: ctx.maintenance.sweep(), kind="m")
    driver = ChurnDriver(
        ctx,
        policy,
        LogNormalDistribution(median=60.0, sigma=1.0),
        BandwidthMixture(),
        eligible_fraction=eligible_fraction,
    )
    driver.populate(600, warmup=30.0)
    ctx.sim.run(until=horizon)
    return ctx


def ineligible_supers(ctx):
    """Ineligible super-peers, excluding possible cold-start seeds
    (pid from the very first joins)."""
    return [
        sid
        for sid in ctx.overlay.super_ids
        if not ctx.overlay.peer(sid).eligible and sid > 2
    ]


POLICIES = [
    ("dlm", lambda: DLMPolicy(DLMConfig(eta=15.0))),
    ("preconfigured", lambda: PreconfiguredPolicy(100.0)),
    ("random", lambda: RandomElectionPolicy(eta=15.0)),
    ("oracle", lambda: OraclePolicy(eta=15.0, interval=20.0)),
]


@pytest.mark.parametrize("name,factory", POLICIES, ids=[p[0] for p in POLICIES])
def test_ineligible_peers_never_promoted(name, factory):
    ctx = run_policy(factory)
    assert ineligible_supers(ctx) == []
    ctx.overlay.check_invariants()


def test_population_mixes_eligibility():
    ctx = run_policy(lambda: DLMPolicy(DLMConfig(eta=15.0)))
    flags = [p.eligible for p in ctx.overlay.peers()]
    frac = sum(flags) / len(flags)
    assert frac == pytest.approx(0.5, abs=0.1)


def test_dlm_still_fills_super_layer_from_eligible_pool():
    """With half the population barred, DLM still approaches the ratio."""
    ctx = run_policy(lambda: DLMPolicy(DLMConfig(eta=15.0)), horizon=500.0)
    assert ctx.overlay.layer_size_ratio() == pytest.approx(15.0, rel=0.6)


def test_fully_eligible_default_unchanged():
    ctx = run_policy(
        lambda: DLMPolicy(DLMConfig(eta=15.0)), eligible_fraction=1.0
    )
    assert all(p.eligible for p in ctx.overlay.peers())


def test_invalid_fraction_rejected():
    ctx = build_context(seed=1)
    policy = DLMPolicy()
    policy.bind(ctx)
    with pytest.raises(ValueError, match="eligible_fraction"):
        ChurnDriver(
            ctx,
            policy,
            LogNormalDistribution(median=60.0, sigma=1.0),
            BandwidthMixture(),
            eligible_fraction=0.0,
        )
