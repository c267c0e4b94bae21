"""Behavioral tests for the DLM policy (§4 end to end)."""

from __future__ import annotations

import math

import pytest

from repro.context import build_context
from repro.core.config import DLMConfig
from repro.core.decisions import Action
from repro.core.dlm import DLMPolicy
from repro.overlay.roles import Role
from repro.sim.events import EventKind


def make_system(**overrides):
    """A fully manual DLM system: no sweeps, deterministic actions."""
    defaults = dict(
        eta=1.0,  # k_l = 2: tiny networks sit at mu ~ 0
        m=2,
        k_s=3,
        action_prob=1.0,
        transition_cooldown=0.0,
        evaluation_interval=None,
        event_driven=False,
        min_supers=1,
        force_demote_mu=-math.inf,
    )
    defaults.update(overrides)
    ctx = build_context(seed=5)
    policy = DLMPolicy(DLMConfig(**defaults))
    policy.bind(ctx)
    return ctx, policy


def advance(ctx, t):
    ctx.sim.run(until=t)


class TestWiring:
    def test_new_peers_default_to_leaf(self):
        _, policy = make_system()
        assert policy.role_for_new_peer(1e9) is None

    def test_rebind_rejected(self):
        ctx, policy = make_system()
        with pytest.raises(RuntimeError, match="already bound"):
            policy.bind(ctx)

    def test_unbound_policy_has_no_ctx(self):
        policy = DLMPolicy()
        with pytest.raises(RuntimeError, match="not bound"):
            policy.ctx


class TestEventDrivenTriggering:
    def test_connection_schedules_deferred_evaluations(self):
        ctx, policy = make_system(event_driven=True)
        ctx.join.join(0.0, 10.0, 500.0, role=Role.SUPER)
        ctx.join.join(0.0, 10.0, 500.0, role=Role.SUPER)
        before = policy.evaluations
        ctx.join.join(0.0, 10.0, 500.0)  # leaf; connects to both supers
        assert policy.evaluations == before  # deferred, not inline
        ctx.sim.run()  # drain the zero-delay evaluate events
        assert policy.evaluations > before

    def test_evaluations_deduplicated(self):
        ctx, policy = make_system(event_driven=True)
        for _ in range(2):
            ctx.join.join(0.0, 10.0, 500.0, role=Role.SUPER)
        policy.request_evaluation(0)
        policy.request_evaluation(0)
        # Requests coalesce: one drain event outstanding, pid 0 queued once.
        assert policy._drain.count(0) == 1
        drains = sum(
            1
            for ev in ctx.sim.queued_events()
            if ev.kind == EventKind.DLM_EVALUATE and not ev.cancelled
        )
        assert drains == 1

    def test_mid_drain_requests_dedup_until_the_pid_is_evaluated(self):
        """The drain releases a pid's dedup hold right before evaluating
        it: a request made mid-drain for a pid still waiting is dropped,
        one for a pid already evaluated fires in a second drain event at
        the same timestamp."""
        ctx, policy = make_system()
        for _ in range(3):
            ctx.join.join(0.0, 10.0, 500.0, role=Role.SUPER)
        drains = []  # (time, seq) of each DLM_EVALUATE event, after its drain ran
        ctx.sim.on(
            EventKind.DLM_EVALUATE, lambda sim, ev: drains.append((ev.time, ev.seq))
        )
        evaluated = []  # (index of the drain event it ran in, pid)
        real = policy.evaluate

        def spy(pid):
            evaluated.append((len(drains), pid))
            if evaluated == [(0, 0), (0, 1)]:  # 0 is done, 2 is still queued
                policy.request_evaluation(2)
                policy.request_evaluation(0)
            return real(pid)

        policy.evaluate = spy
        for pid in (0, 1, 2):
            policy.request_evaluation(pid)
        ctx.sim.run()
        assert evaluated == [(0, 0), (0, 1), (0, 2), (1, 0)]
        assert len(drains) == 2
        assert drains[0][0] == drains[1][0] and drains[0][1] < drains[1][1]
        assert not policy._pending and not policy._drain

    def test_an_evaluation_that_raises_mid_drain_leaves_the_two_views_equal(self):
        """The drain swaps the list out before evaluating; a raise at
        position k must not strand the pids behind k in the dedup set
        (every later request for them would be swallowed, and
        ``snapshot()`` -- which serializes the list -- would checkpoint
        a different state than the process holds)."""
        ctx, policy = make_system()
        for _ in range(4):
            ctx.join.join(0.0, 10.0, 500.0, role=Role.SUPER)
        evaluated = []
        real = policy.evaluate

        def flaky(pid):
            if pid == 1 and not evaluated.count(1):
                evaluated.append(1)
                policy.request_evaluation(0)  # mid-drain, 0 already done
                raise RuntimeError("boom")
            evaluated.append(pid)
            return real(pid)

        policy.evaluate = flaky
        for pid in (0, 1, 2, 3):
            policy.request_evaluation(pid)
        with pytest.raises(RuntimeError, match="boom"):
            ctx.sim.run()
        # The undrained tail is back, in order, ahead of the mid-drain request.
        assert policy._drain == [2, 3, 0]
        assert set(policy._drain) == policy._pending
        assert policy.snapshot()["pending"] == [2, 3, 0]
        policy.request_evaluation(2)  # still deduplicated, not lost
        assert policy._drain == [2, 3, 0]
        ctx.sim.run()  # exactly the drain event(s) already outstanding
        assert evaluated == [0, 1, 2, 3, 0]
        assert not policy._drain and not policy._pending

    def test_a_raise_with_nothing_requested_mid_drain_rearms_the_drain(self):
        ctx, policy = make_system()
        for _ in range(3):
            ctx.join.join(0.0, 10.0, 500.0, role=Role.SUPER)
        evaluated = []

        def flaky(pid):
            evaluated.append(pid)
            if evaluated == [0]:
                raise RuntimeError("boom")

        policy.evaluate = flaky
        for pid in (0, 1, 2):
            policy.request_evaluation(pid)
        with pytest.raises(RuntimeError, match="boom"):
            ctx.sim.run()
        assert policy._drain == [1, 2] and policy._pending == {1, 2}
        ctx.sim.run()  # a fresh drain event was scheduled for the tail
        assert evaluated == [0, 1, 2]

    def test_info_exchange_charged_on_leaf_links(self):
        ctx, policy = make_system(event_driven=True)
        ctx.join.join(0.0, 10.0, 500.0, role=Role.SUPER)
        ctx.join.join(0.0, 10.0, 500.0)
        assert ctx.messages.dlm_messages == 6


class TestPromotion:
    def build_promotion_candidate(self):
        ctx, policy = make_system()
        s0 = ctx.join.join(0.0, 10.0, 500.0, role=Role.SUPER)
        s1 = ctx.join.join(0.0, 10.0, 500.0, role=Role.SUPER)
        weak = [ctx.join.join(0.0, 5.0, 500.0) for _ in range(2)]
        star = ctx.join.join(0.0, 1000.0, 500.0)
        advance(ctx, 50.0)
        return ctx, policy, star

    def test_superior_leaf_promotes(self):
        ctx, policy, star = self.build_promotion_candidate()
        decision = policy.evaluate(star.pid)
        assert decision is not None and decision.action is Action.PROMOTE
        assert ctx.overlay.peer(star.pid).is_super
        assert policy.promotions == 1
        ctx.overlay.check_invariants()

    def test_mediocre_leaf_stays(self):
        ctx, policy = make_system()
        ctx.join.join(0.0, 100.0, 500.0, role=Role.SUPER)
        ctx.join.join(0.0, 100.0, 500.0, role=Role.SUPER)
        ctx.join.join(0.0, 100.0, 500.0)
        mediocre = ctx.join.join(0.0, 5.0, 500.0)
        advance(ctx, 50.0)
        decision = policy.evaluate(mediocre.pid)
        assert decision is not None and decision.action is Action.NONE
        assert ctx.overlay.peer(mediocre.pid).is_leaf

    def test_young_leaf_not_promoted_despite_capacity(self):
        """Age is a separate gate: a brand-new fast peer must wait."""
        ctx, policy = make_system()
        ctx.join.join(0.0, 10.0, 500.0, role=Role.SUPER)
        ctx.join.join(0.0, 10.0, 500.0, role=Role.SUPER)
        ctx.join.join(0.0, 5.0, 500.0)
        advance(ctx, 50.0)
        newborn = ctx.join.join(50.0, 1000.0, 500.0)
        decision = policy.evaluate(newborn.pid)
        assert decision is None or decision.action is Action.NONE
        assert ctx.overlay.peer(newborn.pid).is_leaf


class TestDemotion:
    def build_demotion_candidate(self):
        ctx, policy = make_system()
        strong = ctx.join.join(0.0, 100.0, 500.0, role=Role.SUPER)
        leaves = [ctx.join.join(0.0, 100.0, 500.0) for _ in range(2)]
        advance(ctx, 40.0)
        weak_sup = ctx.join.join(40.0, 1.0, 500.0, role=Role.SUPER)
        # steer both leaves onto the weak super as well
        for leaf in leaves:
            ctx.overlay.connect(leaf.pid, weak_sup.pid)
        advance(ctx, 100.0)
        return ctx, policy, weak_sup

    def test_inferior_super_demotes(self):
        ctx, policy, weak = self.build_demotion_candidate()
        decision = policy.evaluate(weak.pid)
        assert decision is not None and decision.action is Action.DEMOTE
        assert ctx.overlay.peer(weak.pid).is_leaf
        assert policy.demotions == 1
        ctx.overlay.check_invariants()

    def test_min_supers_floor_blocks_demotion(self):
        ctx, policy, weak = self.build_demotion_candidate()
        # Raise the floor above the current super count.
        policy._executor.min_supers = ctx.overlay.n_super
        decision = policy.evaluate(weak.pid)
        assert decision is not None and decision.action is Action.DEMOTE
        assert ctx.overlay.peer(weak.pid).is_super  # floor held
        assert policy.demotions == 0

    def test_strong_super_stays(self):
        ctx, policy = make_system()
        strong = ctx.join.join(0.0, 1000.0, 500.0, role=Role.SUPER)
        ctx.join.join(0.0, 10.0, 500.0, role=Role.SUPER)
        for _ in range(2):
            ctx.join.join(0.0, 5.0, 500.0)
        advance(ctx, 100.0)
        decision = policy.evaluate(strong.pid)
        assert decision is not None and decision.action is Action.NONE


class TestCooldown:
    def test_cooldown_blocks_reevaluation(self):
        ctx, policy = make_system(transition_cooldown=1000.0)
        ctx.join.join(0.0, 10.0, 500.0, role=Role.SUPER)
        ctx.join.join(0.0, 10.0, 500.0, role=Role.SUPER)
        star = ctx.join.join(0.0, 1000.0, 500.0)
        advance(ctx, 50.0)
        assert policy.evaluate(star.pid) is None  # join counts as role change

    def test_cooldown_expires(self):
        ctx, policy = make_system(transition_cooldown=30.0)
        ctx.join.join(0.0, 10.0, 500.0, role=Role.SUPER)
        ctx.join.join(0.0, 10.0, 500.0, role=Role.SUPER)
        ctx.join.join(0.0, 5.0, 500.0)
        star = ctx.join.join(0.0, 1000.0, 500.0)
        advance(ctx, 50.0)
        decision = policy.evaluate(star.pid)
        assert decision is not None


class TestNoOpNudges:
    """The four early exits of ``evaluate``: what each may and may not touch."""

    def system(self, **overrides):
        ctx, policy = make_system(min_eval_interval=1.0, **overrides)
        s0 = ctx.join.join(0.0, 10.0, 500.0, role=Role.SUPER)
        ctx.join.join(0.0, 10.0, 500.0, role=Role.SUPER)
        leaf = ctx.join.join(0.0, 5.0, 500.0)
        advance(ctx, 50.0)
        return ctx, policy, s0, leaf

    @staticmethod
    def last_eval(peer):
        return float(peer._store.last_eval[peer._slot])

    def test_rate_limited_moves_neither_the_counter_nor_the_stamp(self):
        ctx, policy, _, leaf = self.system()
        assert policy.evaluate(leaf.pid) is not None
        assert (policy.evaluations, self.last_eval(leaf)) == (1, 50.0)
        advance(ctx, 50.5)  # inside min_eval_interval
        assert policy.evaluate(leaf.pid) is None
        assert (policy.evaluations, self.last_eval(leaf)) == (1, 50.0)

    def test_cooldown_stamps_and_counts_once_and_returns_none(self):
        ctx, policy, _, leaf = self.system(transition_cooldown=1000.0)
        assert policy.evaluate(leaf.pid) is None
        assert (policy.evaluations, self.last_eval(leaf)) == (1, 50.0)
        assert policy.deferrals == 0

    def test_departed_pid_does_neither(self):
        ctx, policy, _, leaf = self.system()
        pid, store, slot = leaf.pid, leaf._store, leaf._slot
        ctx.overlay.remove_peer(pid)
        assert policy.evaluate(pid) is None
        assert policy.evaluations == 0
        assert store.last_eval[slot] == -math.inf  # the freed row's default

    def test_ineligible_leaf_counts_but_walks_and_prunes_nothing(self):
        ctx, policy, s0, leaf = self.system()
        store, slot = leaf._store, leaf._slot
        store.eligible[slot] = False
        ctx.overlay.remove_peer(s0.pid)  # a ghost in G(l) a walk would prune
        assert s0.pid in leaf.contacted_supers
        observed = []
        ctx.knowledge.observe_super = lambda *a: observed.append(a)
        assert policy.evaluate(leaf.pid) is None
        assert (policy.evaluations, self.last_eval(leaf)) == (1, 50.0)
        assert observed == []
        assert s0.pid in leaf.contacted_supers and store.kn[slot] is None


class TestForcedDemotion:
    def test_leafless_super_force_demotes_on_strong_negative_mu(self):
        ctx, policy = make_system(
            force_demote_mu=math.log(0.5), force_demote_prob=1.0, eta=40.0
        )
        for _ in range(3):
            ctx.join.join(0.0, 10.0, 500.0, role=Role.SUPER)
        lonely = ctx.join.join(0.0, 10.0, 500.0, role=Role.SUPER)
        advance(ctx, 10.0)
        policy.evaluate(lonely.pid)
        assert ctx.overlay.peer(lonely.pid).is_leaf
        assert policy.forced_demotions == 1

    def test_forced_demotion_disabled_by_config(self):
        ctx, policy = make_system(eta=40.0)  # force_demote_mu = -inf
        for _ in range(3):
            ctx.join.join(0.0, 10.0, 500.0, role=Role.SUPER)
        lonely = ctx.join.join(0.0, 10.0, 500.0, role=Role.SUPER)
        advance(ctx, 10.0)
        policy.evaluate(lonely.pid)
        assert ctx.overlay.peer(lonely.pid).is_super
        assert policy.forced_demotions == 0


class TestDamping:
    def test_action_prob_zero_point_never_acts(self):
        # action_prob must be > 0; use a tiny value and a single trial --
        # with the seeded stream the first draw exceeds it.
        ctx, policy = make_system(action_prob=0.001)
        ctx.join.join(0.0, 10.0, 500.0, role=Role.SUPER)
        ctx.join.join(0.0, 10.0, 500.0, role=Role.SUPER)
        for _ in range(2):
            ctx.join.join(0.0, 5.0, 500.0)
        star = ctx.join.join(0.0, 1000.0, 500.0)
        advance(ctx, 50.0)
        decision = policy.evaluate(star.pid)
        assert decision is not None and decision.action is Action.PROMOTE
        assert ctx.overlay.peer(star.pid).is_leaf  # decided but damped


class TestSweeps:
    def test_evaluation_sweep_promotes_without_connection_events(self):
        ctx, policy = make_system(evaluation_interval=10.0)
        ctx.join.join(0.0, 10.0, 500.0, role=Role.SUPER)
        ctx.join.join(0.0, 10.0, 500.0, role=Role.SUPER)
        ctx.join.join(0.0, 5.0, 500.0)
        star = ctx.join.join(0.0, 1000.0, 500.0)
        ctx.sim.run(until=100.0)
        assert ctx.overlay.peer(star.pid).is_super

    def test_super_sample_is_drawn_after_the_leaf_pass(self, monkeypatch):
        """A leaf promoted in the leaf pass is already in the super-id
        set the same tick's super sample draws from."""
        from repro.util.indexed_set import IndexedSet

        ctx, policy = make_system()
        ctx.join.join(0.0, 10.0, 500.0, role=Role.SUPER)
        ctx.join.join(0.0, 10.0, 500.0, role=Role.SUPER)
        for _ in range(3):  # whichever leaf the pass samples outclasses G
            ctx.join.join(0.0, 1000.0, 500.0)
        advance(ctx, 50.0)
        sampled_from = []  # members of the super-id set at each draw from it
        real = IndexedSet.sample

        def spy(self, rng, k):
            if self is ctx.overlay.super_ids:
                sampled_from.append(set(self))
            return real(self, rng, k)

        monkeypatch.setattr(IndexedSet, "sample", spy)
        policy._evaluation_sweep(ctx.sim, ctx.sim.now)
        assert policy.promotions == 1
        (promoted,) = set(ctx.overlay.super_ids) - {0, 1}
        assert sampled_from == [{0, 1, promoted}]

    def test_periodic_refresh_charges_messages(self):
        ctx, policy = make_system(periodic_interval=10.0)
        ctx.join.join(0.0, 10.0, 500.0, role=Role.SUPER)
        ctx.join.join(0.0, 10.0, 500.0)
        base = ctx.messages.dlm_messages
        ctx.sim.run(until=35.0)
        assert ctx.messages.dlm_messages > base

    def test_stop_cancels_sweeps(self):
        ctx, policy = make_system(evaluation_interval=10.0, periodic_interval=10.0)
        ctx.join.join(0.0, 10.0, 500.0, role=Role.SUPER)
        policy.stop()
        before = policy.evaluations
        ctx.sim.run(until=100.0)
        assert policy.evaluations == before
