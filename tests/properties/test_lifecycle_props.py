"""Property tests for the churn driver's population accounting."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.static import StaticPolicy
from repro.churn.distributions import ConstantDistribution
from repro.churn.lifecycle import ChurnDriver
from repro.context import build_context
from tests.conftest import examples


@given(
    st.integers(0, 1000),
    st.integers(5, 60),
    st.floats(min_value=5.0, max_value=60.0),
    st.floats(min_value=10.0, max_value=120.0),
)
@settings(max_examples=examples(0.25), deadline=None)
def test_replacement_churn_pins_the_population(seed, n, lifetime, horizon):
    """joins - deaths == live population == n: every death spawns its
    replacement, through any number of generations."""
    ctx = build_context(seed=seed)
    policy = StaticPolicy()
    policy.bind(ctx)
    driver = ChurnDriver(
        ctx, policy, ConstantDistribution(lifetime), ConstantDistribution(10.0)
    )
    driver.populate(n, warmup=5.0)
    ctx.sim.run(until=horizon)
    assert driver.joins - driver.deaths == ctx.overlay.n == n
    if horizon > 5.0 + lifetime:  # every warm-up peer has died
        assert driver.deaths >= n
    ctx.overlay.check_invariants()
