"""One whole-run differential: every fast path against its oracle at once.

Each plane's oracle is already held against its fast twin on a
plane-sized machine.  This property runs a generated configuration end
to end twice -- fast, then inside :func:`tests.reference_system.
reference_system` with the un-fused DLM policy -- and asserts that the
two runs end in the same state, component by component of
``checkpoint.state_digest``: every RNG stream position, the event queue,
the overlay columns, the ledger, the policy's counters.  So a fast path
that is right alone but wrong in company (a cache invalidated by one
plane and read by another) shows here as the first differing component.
The fast run's overlay must also pass ``check_invariants(aggregates=True)``
at its end, the carried leaf slots included.

Each run also shifts the lifetime or capacity mean at generated times
and may stamp arrivals eligible with a probability below 1, so the
churn driver's takes from the blocks it reads ahead meet every case of
the per-call draws they replace.

The fast run also checkpoints at a generated interval, and a fresh
system resumed from its last checkpoint must end in the same state: a
block drawn ahead or a ledger charge still owed when the checkpoint was
taken would show here.
"""

from __future__ import annotations

import os
import tempfile
from functools import partialmethod
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.churn.lifecycle import ChurnDriver
from repro.churn.scenarios import TARGETS, Scenario, Shift
from repro.experiments.checkpoint import resume_run, state_digest
from repro.experiments.configs import ExperimentConfig, SearchConfig
from repro.experiments.runner import run_experiment
from repro.protocol.faults import FaultPlan
from repro.telemetry.config import TelemetryConfig
from tests.conftest import examples
from tests.reference_system import reference_policy_factory, reference_system


@st.composite
def run_configs(draw) -> ExperimentConfig:
    warmup = draw(st.sampled_from([20.0, 50.0]))
    horizon = draw(st.integers(int(warmup) + 10, 150))
    faults = st.builds(
        FaultPlan,
        loss_rate=st.floats(0.0, 0.2),
        latency_scale=st.floats(0.0, 0.5),
    ) | st.builds(
        FaultPlan,
        loss_rate=st.floats(0.0, 0.2),
        latency_scale=st.floats(0.0, 0.5),
        burst_loss_rate=st.floats(0.3, 0.9),
        burst_interval=st.just(20.0),
        burst_duration=st.floats(2.0, 10.0),
    )
    search = st.builds(
        SearchConfig, n_objects=st.integers(20, 300), query_rate=st.floats(1.0, 10.0)
    )
    return ExperimentConfig(
        name="differential",
        n=draw(st.integers(40, 200)),
        eta=draw(st.sampled_from([10.0, 40.0])),
        m=draw(st.sampled_from([1, 2, 3])),
        warmup=warmup,
        horizon=horizon,
        # The run's last checkpoint is the resumed run's start.
        checkpoint_every=float(draw(st.integers(1, horizon - 1))),
        checkpoint_path="run.ckpt",
        seed=draw(st.integers(0, 2**16)),
        faults=draw(st.none() | faults),
        search=draw(st.none() | search),
        # The full audit puts every verdict's Y and µ in the digest, so
        # a comparison that is off without flipping a decision shows too.
        telemetry=TelemetryConfig(),
    )


@st.composite
def scenarios(draw) -> Scenario:
    """Mean shifts mid-run: a take reads the scale at its own join."""
    shift = st.builds(
        Shift,
        time=st.floats(0.0, 150.0),
        target=st.sampled_from(TARGETS),
        scale=st.sampled_from([0.5, 2.0]),
    )
    return Scenario("differential", tuple(draw(st.lists(shift, max_size=2))))


def _eligible(fraction: float):
    """Every ``ChurnDriver`` wired in the block stamps arrivals eligible
    with probability ``fraction`` (``run_experiment`` wires 1): below 1
    the eligibility draw interleaves the capacity stream's takes."""
    init = partialmethod(ChurnDriver.__init__, eligible_fraction=fraction)
    return mock.patch.object(ChurnDriver, "__init__", init)


@given(
    config=run_configs(),
    scenario=scenarios(),
    fraction=st.just(1.0) | st.floats(0.05, 0.95),
)
@settings(
    max_examples=examples(0.25),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_a_run_ends_where_its_reference_run_ends(config, scenario, fraction):
    with tempfile.TemporaryDirectory() as tmp, _eligible(fraction):
        config = config.with_(checkpoint_path=os.path.join(tmp, config.checkpoint_path))
        result = run_experiment(config, scenario=scenario)
        fast = state_digest(result)
        resumed = state_digest(resume_run(config.checkpoint_path))
    assert result.checkpoint_writes
    differ = [name for name in fast if fast[name] != resumed[name]]
    assert not differ, f"components differ in the resumed run: {differ}"
    result.overlay.check_invariants(aggregates=True)
    with reference_system(), _eligible(fraction):
        slow = state_digest(
            run_experiment(
                config.with_(checkpoint_every=None, checkpoint_path=None),
                policy_factory=reference_policy_factory,
                scenario=scenario,
            )
        )
    assert fast.keys() == slow.keys()
    differ = [name for name in fast if fast[name] != slow[name]]
    assert not differ, f"components differ from the reference run: {differ}"
