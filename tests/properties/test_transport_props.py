"""Property: the message-driven transport resumes bit-identically and
keeps ``live_pending`` exact, over generated fault plans.

Timeouts are lazy rows (one FIFO per attempt level) unless they land in
the active window, and the drop and latency streams are drawn a block
ahead.  Both are bookkeeping: for any plan -- loss, latency, timeouts
short enough to materialize at schedule time, equal-delay levels
(``backoff`` 1), retries, bursts --

* a run captured at a random instant, restored into a fresh system and
  run on equals the uninterrupted run in every ``state_digest``
  component, and so does the captured run itself (a capture settles the
  draw-ahead buffers mid-run);
* at every barrier, ``live_pending`` is a brute count: one armed timeout
  per in-flight request -- exactly those seqs are queued as live timeout
  events -- plus every other live queued event.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.checkpoint import capture_run_state, state_digest
from repro.experiments.configs import table2_config
from repro.experiments.runner import run_experiment
from repro.protocol.faults import FaultPlan
from repro.sim.events import EventKind
from tests.conftest import examples

HORIZON = 50.0
BARRIER = 5.0


@st.composite
def fault_plans(draw) -> FaultPlan:
    bursts = draw(st.booleans())
    interval = draw(st.floats(min_value=5.0, max_value=30.0))
    return FaultPlan(
        loss_rate=draw(st.floats(min_value=0.0, max_value=0.5)),
        latency_scale=draw(st.sampled_from([0.0, 0.05, 0.3, 1.0])),
        timeout=draw(st.floats(min_value=0.3, max_value=8.0)),
        backoff=draw(st.sampled_from([1.0, 1.5, 2.0])),
        max_retries=draw(st.integers(min_value=0, max_value=3)),
        burst_interval=interval if bursts else None,
        burst_duration=interval * draw(st.floats(min_value=0.1, max_value=1.0))
        if bursts
        else 0.0,
        burst_loss_rate=draw(st.floats(min_value=0.0, max_value=0.9)),
    )


def _config(plan: FaultPlan, seed: int):
    return table2_config().with_(
        n=120, horizon=HORIZON, warmup=10.0, seed=seed, faults=plan
    )


def _check_live_pending(result) -> None:
    sim, info = result.ctx.sim, result.ctx.info
    live = [ev for ev in sim.queued_events() if not ev.cancelled]
    timeouts = {ev.seq for ev in live if ev.kind == EventKind.TRANSPORT_TIMEOUT}
    assert timeouts == {p.timeout_seq for p in info._inflight.values()}
    assert sim.live_pending == len(live)


def _run_to(result, until: float, start: float = 0.0) -> None:
    t = start
    while t < until:
        t = min(t + BARRIER, until)
        result.ctx.sim.run(until=t)
        _check_live_pending(result)


@given(
    plan=fault_plans(),
    seed=st.integers(min_value=0, max_value=2**16),
    t_cp=st.floats(min_value=1.0, max_value=HORIZON - 1.0),
)
@settings(max_examples=examples(0.2), deadline=None)
def test_resume_is_bit_identical_and_live_pending_exact(plan, seed, t_cp):
    cfg = _config(plan, seed)
    whole = run_experiment(cfg, run=False)
    _run_to(whole, HORIZON)

    captured = run_experiment(cfg, run=False)
    _run_to(captured, t_cp)
    state = pickle.loads(pickle.dumps(capture_run_state(captured), protocol=4))
    _run_to(captured, HORIZON, t_cp)

    resumed = run_experiment(cfg, run=False, resume_from={"state": state})
    _check_live_pending(resumed)
    _run_to(resumed, HORIZON, t_cp)

    expected = state_digest(whole)
    assert state_digest(captured) == expected
    assert state_digest(resumed) == expected
