"""Unit tests for the Phase-1 information exchange."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.experiments.checkpoint import capture_run_state, state_digest
from repro.experiments.configs import table2_config
from repro.experiments.runner import run_experiment
from repro.overlay.roles import ROLE_LEAF, Role
from repro.overlay.topology import Overlay
from repro.protocol.accounting import MessageLedger
from repro.protocol.faults import FaultPlan
from repro.protocol.messages import (
    NeighNumRequest,
    NeighNumResponse,
    ValueRequest,
    ValueResponse,
)
from repro.protocol.transport import MESSAGES_PER_NEW_LINK, InfoExchange
from repro.sim.rng import RngStreams
from repro.sim.scheduler import Simulator
from tests.conftest import add_peer, observation
from tests.protocol.reference_charge import eager_charge
from tests.reference_system import reference_system


@pytest.fixture
def system():
    ov = Overlay()
    add_peer(ov, 0, Role.SUPER)
    add_peer(ov, 1, Role.SUPER)
    add_peer(ov, 2, Role.LEAF)
    ov.connect(2, 0)
    ledger = MessageLedger()
    return ov, ledger, InfoExchange(ov, ledger)


class TestEventDrivenExchange:
    def test_leaf_super_link_charges_six_messages(self, system):
        ov, ledger, info = system
        assert info.on_connection_created(2, 0)
        assert ledger.dlm_messages == MESSAGES_PER_NEW_LINK == 6
        assert ledger.count(NeighNumRequest) == 1
        assert ledger.count(NeighNumResponse) == 1
        assert ledger.count(ValueRequest) == 2
        assert ledger.count(ValueResponse) == 2

    def test_order_of_endpoints_does_not_matter(self, system):
        ov, ledger, info = system
        info.on_connection_created(0, 2)
        assert ledger.dlm_messages == 6

    def test_backbone_link_is_free(self, system):
        ov, ledger, info = system
        assert not info.on_connection_created(0, 1)
        assert ledger.dlm_messages == 0

    def test_gone_peer_charges_nothing(self, system):
        ov, ledger, info = system
        assert not info.on_connection_created(2, 99)
        assert ledger.dlm_messages == 0


class TestPeriodicRefresh:
    def test_leaf_refresh_charges_per_link(self, system):
        ov, ledger, info = system
        ov.connect(2, 1)  # leaf now has 2 supers
        n = info.refresh_leaf(2)
        assert n == 8  # 4 messages per link
        assert ledger.count(NeighNumRequest) == 2
        assert ledger.count(ValueResponse) == 2

    def test_leaf_refresh_without_links(self, system):
        ov, ledger, info = system
        ov.disconnect(2, 0)
        assert info.refresh_leaf(2) == 0

    def test_refresh_on_wrong_role_is_noop(self, system):
        ov, ledger, info = system
        assert info.refresh_leaf(0) == 0
        assert info.refresh_super(2) == 0

    def test_super_refresh_charges_value_pairs(self, system):
        ov, ledger, info = system
        n = info.refresh_super(0)
        assert n == 2  # one leaf neighbor -> one value pair
        assert ledger.count(ValueRequest) == 1
        assert ledger.count(ValueResponse) == 1

    def test_refresh_missing_peer(self, system):
        ov, ledger, info = system
        assert info.refresh_leaf(42) == 0

    def test_ensure_fresh_is_noop_when_omniscient(self, system):
        ov, ledger, info = system
        assert info.ensure_fresh(2) == 0
        assert ledger.dlm_messages == 0


def _trace(info) -> list:
    """Attach a listener; returns the live ``(stage, time)`` list it fills."""
    stages: list = []
    info.add_trace_listener(lambda stage, now, data: stages.append((stage, now)))
    return stages


@pytest.fixture
def driven():
    """A leaf--super pair on a live simulator in message-driven mode."""
    sim = Simulator(seed=7)
    ov = Overlay()
    add_peer(ov, 0, Role.SUPER, capacity=200.0)
    add_peer(ov, 2, Role.LEAF, capacity=50.0)
    ov.connect(2, 0)
    ledger = MessageLedger()

    def make(**faults) -> InfoExchange:
        return InfoExchange(ov, ledger, sim=sim, faults=FaultPlan(**faults))

    return sim, ov, ledger, make


class TestMessageDrivenExchange:
    def test_faults_require_a_simulator(self):
        with pytest.raises(ValueError, match="requires a simulator"):
            InfoExchange(Overlay(), MessageLedger(), faults=FaultPlan())

    def test_lossless_round_trip_populates_both_caches(self, driven):
        sim, ov, ledger, make = driven
        info = make()
        completions: list = []
        info.add_completion_listener(completions.append)
        assert info.message_driven
        assert info.on_connection_created(2, 0)
        assert info.in_flight == 3
        sim.run(until=1.0)
        assert info.in_flight == 0
        # The leaf learned the super's values and l_nn from responses...
        obs = observation(ov.peer(2), 0)
        assert obs.capacity == 200.0 and obs.l_nn == 1
        # ...and the super learned the leaf's values.
        assert observation(ov.peer(0), 2).capacity == 50.0
        assert ledger.dlm_messages == MESSAGES_PER_NEW_LINK
        assert ledger.dlm_retransmissions == 0 and ledger.dlm_timeouts == 0
        assert sorted(completions) == [0, 2]

    def test_inflight_requests_deduplicate(self, driven):
        sim, ov, ledger, make = driven
        info = make()
        info.on_connection_created(2, 0)
        info.on_connection_created(0, 2)  # same link again, still pending
        assert info.in_flight == 3
        assert ledger.count(NeighNumRequest) == 1

    def test_unanswered_requests_back_off_then_fail(self, driven):
        sim, ov, ledger, make = driven
        info = make(timeout=1.0, max_retries=2, backoff=2.0)
        stages = _trace(info)
        completions: list = []
        info.add_completion_listener(completions.append)
        info.on_connection_created(2, 0)
        ov.remove_peer(0)  # the super departs; its requests go unanswered
        sim.run(until=20.0)
        assert info.in_flight == 0
        # Two leaf->super requests, three attempts each.
        counts = Counter(stage for stage, _ in stages)
        assert counts["timed_out"] == 6
        assert counts["retried"] == 4
        assert counts["failed"] == 2
        # The super's own value request was answered by the live leaf.
        assert counts["satisfied"] == 1
        assert ledger.dlm_timeouts == 6
        assert ledger.dlm_retransmissions == 4
        # Attempts wait 1, 2, then 4 units: failure lands at t = 7.
        assert all(t == pytest.approx(7.0) for stage, t in stages if stage == "failed")
        assert 2 in completions  # the requester still drains and evaluates

    def test_dropped_legs_are_traced_and_charged(self, driven):
        sim, ov, ledger, make = driven
        # The seam is the named stream itself: a leg drops when its draw
        # from "transport-drop" falls below the loss rate, and under the
        # fixture's seed the first three draws (one per request) do.
        assert (RngStreams(7).get("transport-drop").random(3) < 0.9).all()
        info = make(loss_rate=0.9, timeout=1.0, max_retries=0)
        stages = _trace(info)
        info.on_connection_created(2, 0)
        sim.run(until=5.0)
        counts = Counter(stage for stage, _ in stages)
        assert counts["sent"] == 3
        assert counts["dropped"] == 3
        assert counts["failed"] == 3
        assert ledger.dlm_messages == 3  # sends are charged even if dropped
        assert ledger.dlm_timeouts == 3 and ledger.dlm_retransmissions == 0
        assert observation(ov.peer(2), 0) is None

    def test_a_demoted_responder_neither_answers_nor_is_charged(self, driven):
        sim, ov, ledger, make = driven
        info = make(timeout=1.0, max_retries=0)
        info.on_connection_created(2, 0)
        ov.store.role[ov.peer(0)._slot] = ROLE_LEAF  # demoted before delivery
        sim.run(until=5.0)
        assert ledger.count(NeighNumResponse) == 0
        assert ledger.count(ValueResponse) == 2
        assert ledger.timeouts_for(NeighNumRequest) == 1
        assert observation(ov.peer(2), 0).l_nn is None

    def test_ensure_fresh_requests_only_the_gaps(self, driven):
        sim, ov, ledger, make = driven
        info = make()
        assert info.ensure_fresh(2) == 2  # value + neigh_num toward super 0
        sim.run(until=1.0)
        assert info.ensure_fresh(2) == 0  # cache is fresh (horizon = inf)
        assert observation(ov.peer(2), 0).has_values

    def test_refresh_starts_requests_instead_of_charging(self, driven):
        sim, ov, ledger, make = driven
        info = make()
        assert info.refresh_leaf(2) == 2
        assert info.refresh_super(0) == 1
        assert ledger.count(NeighNumResponse) == 0  # nothing answered yet
        sim.run(until=1.0)
        assert ledger.count(NeighNumResponse) == 1
        assert observation(ov.peer(0), 2).capacity == 50.0

    def test_latency_delays_delivery(self, driven):
        sim, ov, ledger, make = driven
        info = make(latency_scale=2.0, timeout=100.0)
        stages = _trace(info)
        info.on_connection_created(2, 0)
        sim.run(until=400.0)
        assert info.in_flight == 0
        satisfied = [t for stage, t in stages if stage == "satisfied"]
        assert len(satisfied) == 3
        assert all(t > 0.0 for t in satisfied)


#: Lossy, with bursts that push the drop rate up to 0.6: every stage of
#: a request's life happens in a short run.
BURSTY = FaultPlan(
    loss_rate=0.1,
    latency_scale=0.3,
    timeout=0.6,
    backoff=1.5,
    max_retries=2,
    burst_loss_rate=0.6,
    burst_interval=20.0,
    burst_duration=5.0,
)
BURSTY_CONFIG = table2_config().with_(
    n=150, horizon=60.0, warmup=10.0, seed=11, faults=BURSTY
)


def _bursty_run(*, traced: bool, until: float = BURSTY_CONFIG.horizon):
    """The bursty run to ``until``, and the stages its listener heard."""
    result = run_experiment(BURSTY_CONFIG, run=False)
    stages: list = []
    if traced:
        result.ctx.info.add_trace_listener(
            lambda stage, now, data: stages.append((stage, now, dict(data)))
        )
    result.ctx.sim.run(until=until)
    return result, stages


class TestChargeTraceSplit:
    """First attempts and responses are charged by ledger plan, folded
    at read, and the trace is built only for a listener: neither may
    change what a run does, what it is charged, or what it traces."""

    def test_a_listener_hears_the_reference_stages_and_changes_nothing(self):
        plain, _ = _bursty_run(traced=False)
        traced, stages = _bursty_run(traced=True)
        assert traced.ctx.messages.snapshot() == plain.ctx.messages.snapshot()
        assert state_digest(traced) == state_digest(plain)
        with reference_system():
            _, expected = _bursty_run(traced=True)
        heard = Counter(stage for stage, _, _ in stages)
        assert set(heard) == {
            "sent", "retried", "dropped", "timed_out", "satisfied", "failed"
        }
        assert stages == expected

    def test_a_mid_run_capture_folds_the_owed_charges(self, monkeypatch):
        t_cp = 31.0
        whole, _ = _bursty_run(traced=False)
        captured, _ = _bursty_run(traced=False, until=t_cp)
        ledger = captured.ctx.messages
        assert any(plan.owed > 0 for plan in ledger._plans)
        state = capture_run_state(captured)
        with monkeypatch.context() as patch:
            patch.setattr(MessageLedger, "charge", eager_charge)
            eager, _ = _bursty_run(traced=False, until=t_cp)
        assert state["messages"] == eager.ctx.messages.snapshot_state()
        # Restoring drops what the live ledger still owed: the counters
        # are the captured ones, not those plus the owed charges.
        ledger.restore_state(state["messages"])
        assert ledger.snapshot_state() == state["messages"]
        resumed = run_experiment(BURSTY_CONFIG, run=False, resume_from={"state": state})
        resumed.ctx.sim.run(until=BURSTY_CONFIG.horizon)
        assert state_digest(resumed) == state_digest(whole)
