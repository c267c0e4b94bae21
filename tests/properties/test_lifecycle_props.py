"""Property tests for the churn driver's population accounting."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.static import StaticPolicy
from repro.churn.distributions import ConstantDistribution
from repro.churn.failures import FailureInjector
from repro.churn.lifecycle import ChurnDriver
from repro.context import build_context
from tests.conftest import examples


def build(seed, lifetime=10_000.0, replacement=True):
    ctx = build_context(seed=seed)
    policy = StaticPolicy()
    policy.bind(ctx)
    driver = ChurnDriver(
        ctx,
        policy,
        ConstantDistribution(lifetime),
        ConstantDistribution(10.0),
        replacement=replacement,
    )
    return ctx, driver


@given(
    st.integers(0, 1000),
    st.integers(5, 60),
    st.lists(st.floats(min_value=0.01, max_value=0.9), max_size=4),
)
@settings(max_examples=examples(0.25), deadline=None)
def test_population_conserved_under_failures_with_replacement(
    seed, n, fractions
):
    """joins - deaths == live population, whatever failures are injected."""
    ctx, driver = build(seed, lifetime=50.0)
    driver.populate(n, warmup=5.0)
    injector = FailureInjector(driver)
    ctx.sim.run(until=20.0)
    for frac in fractions:
        injector.execute(frac, layer="any")  # immediate replacement
        ctx.sim.run(until=ctx.now + 10.0)
    assert driver.joins - driver.deaths == ctx.overlay.n
    assert ctx.overlay.n == n  # replacement keeps the population pinned
    ctx.overlay.check_invariants()


@given(st.integers(0, 1000), st.integers(5, 40))
@settings(max_examples=examples(0.25), deadline=None)
def test_population_accounting_without_replacement(seed, n):
    ctx, driver = build(seed, lifetime=30.0, replacement=False)
    driver.populate(n, warmup=5.0)
    ctx.sim.run(until=50.0)  # all die (join <= 5, lifetime 30)
    assert ctx.overlay.n == 0
    assert driver.joins == n and driver.deaths == n


@given(st.integers(0, 1000), st.integers(5, 40), st.floats(0.1, 0.9))
@settings(max_examples=examples(0.25), deadline=None)
def test_windowed_replacement_eventually_restores(seed, n, frac):
    ctx, driver = build(seed)
    driver.populate(n, warmup=5.0)
    injector = FailureInjector(driver)
    ctx.sim.run(until=10.0)
    record = injector.execute(frac, layer="any", replace_over=20.0)
    assert ctx.overlay.n == n - record.victims
    ctx.sim.run(until=40.0)
    assert ctx.overlay.n == n
    ctx.overlay.check_invariants()
