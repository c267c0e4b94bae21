"""Differential property: the fused DLM verdicts against the un-fused
oracle (``tests/core/reference_related_set.py``).

Two identically seeded systems receive the same operation sequence --
joins, deaths of leaves and supers, promotions, demotions, time advances
(which, on the observed plane, deliver or lose the Phase-1 responses in
flight and age what was delivered past the staleness horizon).  After
every op each live peer is evaluated in both: one system runs
:class:`~repro.core.dlm.DLMPolicy`, the other
:class:`~tests.core.reference_related_set.ReferenceDLMPolicy`, which
materialises the related set, estimates µ from it and compares against
it.  Verdicts are recorded, not executed, so an evaluation round may
touch nothing but a leaf's pruned ``ct`` / cache and the policy's own
counters -- and the two systems must agree on all of it, exactly.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.context import build_context
from repro.core import comparison
from repro.core.config import DLMConfig
from repro.core.dlm import DLMPolicy
from repro.core.transitions import TransitionExecutor
from repro.overlay.roles import Role
from repro.protocol.faults import FaultPlan
from tests.core.reference_related_set import ReferenceDLMPolicy

#: One op is (name, pick, amount): ``pick`` selects the peer a death or
#: transition hits, ``amount`` is a capacity or a time step.  Joins and
#: advances are weighted up so supers gather leaves and, on the observed
#: plane, responses have time to arrive (or to go stale).
_OPS = (
    ["join"] * 5
    + ["advance"] * 6
    + ["kill_super"] * 2
    + ["repair"] * 2
    + ["join_super", "kill_leaf", "promote", "demote", "drop_link"]
)
ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(_OPS),
        st.integers(min_value=0, max_value=10**6),
        st.floats(0.5, 300.0),
    ),
    min_size=1,
    max_size=20,
)
#: Every example starts from three supers with six leaves between them,
#: two time units after the last join.
_PRELUDE = (
    [("join_super", 0, 120.0), ("join_super", 0, 40.0), ("join_super", 0, 80.0)]
    + [("join", 0, c) for c in (10.0, 250.0, 60.0, 150.0, 30.0, 90.0)]
    + [("advance", 0, 50.0)]
)


class _Recorder:
    """Stands in for the audit log and for the transition executor: every
    call is kept, nothing is written or executed."""

    def __init__(self) -> None:
        self.calls = []

    def __getattr__(self, name):
        def record(*args, **kwargs):
            self.calls.append((name, args, sorted(kwargs.items())))
            return False  # the executor's "nothing happened"

        return record


class _System:
    def __init__(self, policy_cls, faults, current_only: bool, min_g: int) -> None:
        self.ctx = ctx = build_context(seed=11, faults=faults)
        self.policy = policy = policy_cls(
            DLMConfig(
                eta=2.0,
                action_prob=1.0,
                transition_cooldown=0.0,
                min_eval_interval=0.0,
                evaluation_interval=None,
                event_driven=False,
                force_demote_mu=-math.inf,
                leaf_g_current_only=current_only,
                min_related_set=min_g,
            )
        )
        policy.bind(ctx)
        self.seen = policy._audit = policy._executor = _Recorder()
        self.transitions = TransitionExecutor(ctx, min_supers=1)

    def apply(self, op, pick, amount) -> None:
        ctx = self.ctx
        ov = ctx.overlay
        if op == "join":
            ctx.join.join(ctx.now, amount, 1e6)
        elif op == "join_super":
            ctx.join.join(ctx.now, amount, 1e6, role=Role.SUPER)
        elif op == "kill_leaf" and ov.n_leaf:
            ov.remove_peer(sorted(ov.leaf_ids)[pick % ov.n_leaf])
        elif op == "kill_super" and ov.n_super:
            # Unrepaired: the orphans keep a ghost in G(l) to prune, and
            # a later "repair" grows G(l) past the leaf's current links.
            ov.remove_peer(sorted(ov.super_ids)[pick % ov.n_super])
        elif op == "drop_link" and ov.n_leaf:
            # The super stays alive and stays in G(l): history, not links.
            leaf = ov.peer(sorted(ov.leaf_ids)[pick % ov.n_leaf])
            if leaf.super_neighbors:
                ov.disconnect(leaf.pid, leaf.super_neighbors[0])
        elif op == "repair":
            ctx.maintenance.sweep()
        elif op == "promote" and ov.n_leaf:
            self.transitions.promote(sorted(ov.leaf_ids)[pick % ov.n_leaf])
        elif op == "demote" and ov.n_super:
            self.transitions.demote(sorted(ov.super_ids)[pick % ov.n_super])
        elif op == "advance":
            # The clock sits at the last delivered event: a marker event
            # makes it reach the target whether or not anything else fires.
            ctx.sim.schedule(amount / 25.0, "test_tick")
            ctx.sim.run(until=ctx.now + amount / 25.0)

    def evaluate_everyone(self) -> list:
        evaluate = self.policy.evaluate
        return [(pid, evaluate(pid)) for pid in sorted(self.ctx.overlay._peers)]

    def state(self) -> dict:
        """Everything a verdict may read or write, in comparable form."""
        ov, policy = self.ctx.overlay, self.policy
        rows = {}
        for pid, peer in sorted(ov._peers.items()):
            cache = peer._store.kn[peer._slot]
            rows[pid] = (
                peer.role,
                peer.contacted_supers,
                None if cache is None else cache.snapshot(),
            )
        return {
            "rows": rows,
            "counters": (policy.evaluations, policy.deferrals, policy.forced_demotions),
            "seen": self.seen.calls,
            "rng": self.ctx.sim.rng.snapshot(),
            "events": self.ctx.sim.live_pending,
        }


def _differential(ops, faults, current_only, min_g, threshold) -> None:
    omniscient = faults is None
    new = _System(DLMPolicy, faults, current_only, min_g)
    ref = _System(ReferenceDLMPolicy, faults, current_only, min_g)
    # A low threshold sends these small related sets down the vectorized
    # branches too (the oracle's ``scaled_fractions`` shares the constant).
    kept, comparison._VECTOR_THRESHOLD = comparison._VECTOR_THRESHOLD, threshold
    try:
        for step in _PRELUDE:
            new.apply(*step)
            ref.apply(*step)
        for op, pick, amount in ops:
            new.apply(op, pick, amount)
            ref.apply(op, pick, amount)
            rng_before = new.ctx.sim.rng.snapshot()
            assert new.evaluate_everyone() == ref.evaluate_everyone()
            state = new.state()
            assert state == ref.state()
            if omniscient:
                # No verdict draws, none defers, and pruning a ghost must
                # not vivify an observation cache.
                assert state["rng"] == rng_before
                assert state["counters"][1] == 0
                assert all(cache is None for _, _, cache in state["rows"].values())
    finally:
        comparison._VECTOR_THRESHOLD = kept
    new.ctx.overlay.check_invariants(aggregates=True)


_shape = dict(
    ops=ops_strategy,
    current_only=st.booleans(),
    min_g=st.sampled_from([1, 2]),
    threshold=st.sampled_from([2, comparison._VECTOR_THRESHOLD]),
)


@given(**_shape)
@settings(max_examples=300, deadline=None)
def test_fused_verdicts_match_the_oracle_omniscient(
    ops, current_only, min_g, threshold
):
    _differential(ops, None, current_only, min_g, threshold)


@given(
    horizon=st.sampled_from([3.0, 8.0, math.inf]),
    loss=st.sampled_from([0.0, 0.3, 0.6]),
    **_shape,
)
@settings(max_examples=300, deadline=None)
def test_fused_verdicts_match_the_oracle_observed(
    ops, current_only, min_g, threshold, horizon, loss
):
    # One attempt per request and heavy loss: some l_nn never arrive, so
    # views hold members without a leaf count and leaves without values.
    faults = FaultPlan(
        loss_rate=loss,
        latency_scale=0.3,
        timeout=4.0,
        max_retries=0,
        staleness_horizon=horizon,
    )
    _differential(ops, faults, current_only, min_g, threshold)
