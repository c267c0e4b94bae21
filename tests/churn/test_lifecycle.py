"""Unit tests for the churn driver."""

from __future__ import annotations

import pytest

from repro.baselines.static import StaticPolicy
from repro.churn.distributions import ConstantDistribution
from repro.churn.lifecycle import ChurnDriver
from repro.churn.scenarios import Scenario, Shift
from repro.context import build_context


def make_driver(ctx, *, lifetime=50.0, capacity=10.0, scenario=None):
    policy = StaticPolicy()
    policy.bind(ctx)
    return ChurnDriver(
        ctx,
        policy,
        ConstantDistribution(lifetime),
        ConstantDistribution(capacity),
        scenario=scenario,
    )


class TestPopulation:
    def test_populate_reaches_target(self, ctx):
        driver = make_driver(ctx, lifetime=10_000.0)
        driver.populate(50, warmup=10.0)
        ctx.sim.run(until=10.0)
        assert ctx.overlay.n == 50
        assert driver.joins == 50

    def test_replacement_holds_population(self, ctx):
        driver = make_driver(ctx, lifetime=20.0)
        driver.populate(30, warmup=5.0)
        ctx.sim.run(until=200.0)
        assert ctx.overlay.n == 30
        assert driver.deaths > 30  # several generations churned

    def test_spawn_now_adds_one(self, ctx):
        driver = make_driver(ctx, lifetime=10_000.0)
        driver.populate(5, warmup=1.0)
        ctx.sim.run(until=2.0)
        driver.spawn_now()
        ctx.sim.run(until=3.0)
        assert ctx.overlay.n == 6


class TestDeathHandling:
    def test_super_death_repairs_orphans(self, ctx):
        driver = make_driver(ctx, lifetime=40.0)
        driver.populate(30, warmup=5.0)
        ctx.sim.run(until=300.0)
        ctx.overlay.check_invariants()
        # Overhead ledger saw super deaths with reconnects.
        assert ctx.overhead.counters.super_deaths > 0

    def test_leaf_joins_counted_in_overhead(self, ctx):
        driver = make_driver(ctx, lifetime=10_000.0)
        driver.populate(10, warmup=1.0)
        ctx.sim.run(until=2.0)
        # 10 peers: 1 cold-start super, 9 leaves
        assert ctx.overhead.counters.new_leaf_joins == 9

    def test_kill_missing_peer_returns_false(self, ctx):
        driver = make_driver(ctx)
        assert not driver.kill_peer(10_000)
        assert driver.deaths == 0


class TestScenarioShifts:
    def test_shift_changes_sampled_values(self, ctx):
        scenario = Scenario("t", shifts=(Shift(10.0, "capacity", 3.0),))
        driver = make_driver(ctx, lifetime=10_000.0, capacity=10.0, scenario=scenario)
        driver.populate(5, warmup=1.0)
        ctx.sim.run(until=11.0)
        driver.spawn_now()
        ctx.sim.run(until=12.0)
        newest = max(ctx.overlay.peers(), key=lambda p: p.join_time)
        assert newest.capacity == pytest.approx(30.0)

    def test_lifetime_shift(self, ctx):
        scenario = Scenario("t", shifts=(Shift(10.0, "lifetime", 0.5),))
        driver = make_driver(ctx, lifetime=100.0, scenario=scenario)
        driver.populate(2, warmup=1.0)
        ctx.sim.run(until=11.0)
        driver.spawn_now()
        ctx.sim.run(until=12.0)
        newest = max(ctx.overlay.peers(), key=lambda p: p.join_time)
        assert newest.lifetime == pytest.approx(50.0)

    def test_existing_peers_unaffected_by_shift(self, ctx):
        scenario = Scenario("t", shifts=(Shift(10.0, "capacity", 3.0),))
        driver = make_driver(ctx, lifetime=10_000.0, capacity=10.0, scenario=scenario)
        driver.populate(5, warmup=1.0)
        ctx.sim.run(until=20.0)
        oldest = min(ctx.overlay.peers(), key=lambda p: p.join_time)
        assert oldest.capacity == pytest.approx(10.0)


class TestDeterminism:
    def test_same_seed_same_trajectory(self):
        def run(seed):
            ctx = build_context(seed=seed)
            driver = make_driver(ctx, lifetime=30.0)
            driver.populate(40, warmup=10.0)
            ctx.sim.run(until=150.0)
            return (
                ctx.overlay.n_super,
                ctx.overlay.n_leaf,
                driver.joins,
                driver.deaths,
                # join times carry the seed-dependent warmup jitter
                tuple(round(p.join_time, 6) for p in sorted(
                    ctx.overlay.peers(), key=lambda p: p.pid
                )),
            )

        assert run(7) == run(7)
        assert run(7) != run(8)
