"""Property tests for the checkpoint plane's round-trip guarantee.

Two levels:

* **Engine level** -- arbitrary schedule/cancel/step op sequences on a
  bare :class:`Simulator`: a snapshot taken at any point restores to an
  engine whose *entire subsequent behavior* (delivery order, clock,
  counters, further snapshots) matches the original.
* **System level** -- a full wired experiment snapshotted at an
  arbitrary interior time and restored into fresh wiring must re-capture
  to the same state after any further slice of simulated time.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.checkpoint import capture_run_state
from repro.experiments.configs import table2_config
from repro.experiments.runner import run_experiment
from repro.protocol.faults import FaultPlan
from repro.sim.scheduler import Simulator
from tests.conftest import examples

# One op: (opcode, operand).  Schedule delays and cancel indexes are
# drawn small so ops interact (same-time ties, cancels hitting pending
# events) instead of scattering.
ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), st.floats(min_value=0.0, max_value=3.0)),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=30)),
        st.tuples(st.just("step"), st.none()),
    ),
    max_size=40,
)


def apply_ops(sim: Simulator, ops, created: list) -> None:
    for op, arg in ops:
        if op == "schedule":
            created.append(sim.schedule(float(arg), "tick"))
        elif op == "cancel":
            if created:
                created[arg % len(created)].cancel()
        else:
            sim.run(max_events=1)


def drain(sim: Simulator) -> list:
    log = []
    sim.on("tick", lambda s, e: log.append((e.time, e.seq)))
    sim.run()
    return log


@given(ops=ops_strategy, suffix=ops_strategy)
@settings(max_examples=examples(0.6), deadline=None)
def test_engine_round_trip_under_arbitrary_ops(ops, suffix):
    # Build two identical engines with the same op history...
    a, b = Simulator(seed=3), Simulator(seed=3)
    created_a: list = []
    created_b: list = []
    apply_ops(a, ops, created_a)
    apply_ops(b, ops, created_b)

    # ...snapshot one and restore it into a fresh engine.
    restored = Simulator(seed=3)
    restored.restore(pickle.loads(pickle.dumps(b.snapshot())))

    # The restored engine must behave exactly like the original under
    # the same subsequent ops.  (Cancels target restored events.)
    created_r = [
        restored.restored_event(e.seq)
        for e in created_b
        if not e.cancelled and any(q is e for q in b.queued_events())
    ]
    created_a2 = [
        e
        for e in created_a
        if not e.cancelled and any(q is e for q in a.queued_events())
    ]
    apply_ops(a, suffix, created_a2)
    apply_ops(restored, suffix, created_r)
    assert drain(a) == drain(restored)
    assert a.now == restored.now
    assert a.events_processed == restored.events_processed


def _strip_volatile(state: dict) -> dict:
    # Compare everything captured; nothing is volatile by design.  Kept
    # as a hook so any future exclusion is explicit and visible.
    return state


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    fork_frac=st.floats(min_value=0.1, max_value=0.9),
    extra_frac=st.floats(min_value=0.0, max_value=1.0),
    faults=st.booleans(),
)
@settings(max_examples=examples(0.08), deadline=None)
def test_system_round_trip_is_transparent(seed, fork_frac, extra_frac, faults):
    cfg = table2_config().with_(
        n=120,
        horizon=60.0,
        warmup=10.0,
        seed=seed,
        faults=FaultPlan(loss_rate=0.05, latency_scale=0.3) if faults else None,
    )
    fork_at = round(cfg.horizon * fork_frac, 3)
    stop_at = round(fork_at + (cfg.horizon - fork_at) * extra_frac, 3)

    ref = run_experiment(cfg, run=False)
    ref.ctx.sim.run(until=fork_at)
    state = pickle.loads(pickle.dumps(capture_run_state(ref)))

    resumed = run_experiment(cfg, run=False, resume_from={"state": state})

    # Run BOTH for the same further slice and re-capture: the snapshot
    # must be transparent -- not just equal now, equal after any amount
    # of further simulation.
    ref.ctx.sim.run(until=stop_at)
    resumed.ctx.sim.run(until=stop_at)
    assert _strip_volatile(capture_run_state(ref)) == _strip_volatile(
        capture_run_state(resumed)
    )
