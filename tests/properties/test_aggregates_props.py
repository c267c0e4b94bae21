"""Property test: the incremental aggregate plane never drifts.

A stateful machine drives random joins (with adversarial float
capacities and join times), deaths, link churn, promotions, and
demotions, and after every step asserts the incrementally maintained
:class:`~repro.overlay.aggregates.OverlayAggregates` is **exactly**
equal to a brute-force rebuild -- counts, exact fixed-point sums, and
the leaf-link counter, not just approximately.  Exactness is the point:
the Σ counters are big-int fixed-point, so any difference at all is a
maintenance bug, never float drift.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.overlay.roles import Role
from repro.overlay.topology import Overlay
from tests.conftest import examples

#: Adversarial float values: non-dyadic decimals, subnormal-ish tiny
#: values, and large magnitudes that would swamp small addends in a
#: naive float accumulator.
_capacities = st.one_of(
    st.just(0.1),
    st.just(1e-300),
    st.just(1e12),
    st.floats(min_value=0.001, max_value=1e6, allow_nan=False),
)
_join_times = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)


class AggregatesMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.overlay = Overlay()
        self.rng = np.random.default_rng(23)
        self.next_pid = 0

    def _new_peer(self, role, capacity, join_time):
        pid = self.next_pid
        self.next_pid += 1
        self.overlay.add_peer(pid, role, capacity, join_time, lifetime=1.0)

    @rule(capacity=_capacities, join_time=_join_times)
    def join_super(self, capacity, join_time):
        self._new_peer(Role.SUPER, capacity, join_time)

    @rule(capacity=_capacities, join_time=_join_times)
    def join_leaf(self, capacity, join_time):
        self._new_peer(Role.LEAF, capacity, join_time)

    @precondition(lambda self: self.overlay.n >= 2)
    @rule(data=st.data())
    def connect_random(self, data):
        pids = sorted(p.pid for p in self.overlay.peers())
        a = data.draw(st.sampled_from(pids))
        b = data.draw(st.sampled_from(pids))
        pa, pb = self.overlay.peer(a), self.overlay.peer(b)
        if a == b or (pa.is_leaf and pb.is_leaf):
            return
        self.overlay.connect(a, b)

    @precondition(lambda self: self.overlay.n >= 1)
    @rule(data=st.data())
    def disconnect_random(self, data):
        pids = sorted(p.pid for p in self.overlay.peers())
        a = data.draw(st.sampled_from(pids))
        peer = self.overlay.peer(a)
        nbrs = sorted({*peer.super_neighbors, *peer.leaf_neighbors})
        if nbrs:
            b = data.draw(st.sampled_from(nbrs))
            self.overlay.disconnect(a, b)

    @precondition(lambda self: self.overlay.n_leaf >= 1)
    @rule(data=st.data())
    def promote_random_leaf(self, data):
        pid = data.draw(st.sampled_from(sorted(self.overlay.leaf_ids)))
        self.overlay.promote(pid)

    @precondition(lambda self: self.overlay.n_super >= 1)
    @rule(data=st.data())
    def demote_random_super(self, data):
        pid = data.draw(st.sampled_from(sorted(self.overlay.super_ids)))
        self.overlay.demote(pid, 2, self.rng)

    @precondition(lambda self: self.overlay.n >= 1)
    @rule(data=st.data())
    def remove_random_peer(self, data):
        pid = data.draw(st.sampled_from(sorted(p.pid for p in self.overlay.peers())))
        self.overlay.remove_peer(pid)

    @invariant()
    def aggregates_exactly_equal_fresh_scan(self):
        agg = self.overlay.aggregates
        assert agg.mismatches() == []
        fresh = agg.scan()
        # Exact big-int equality, not tolerance-based comparison.
        assert agg.super_layer == fresh.super_layer
        assert agg.leaf_layer == fresh.leaf_layer
        assert agg.leaf_link_count == fresh.leaf_link_count

    @invariant()
    def derived_reads_match_registries(self):
        ov = self.overlay
        assert ov.aggregates.n == ov.n
        assert ov.aggregates.super_layer.count == ov.n_super
        assert ov.aggregates.leaf_layer.count == ov.n_leaf


TestAggregatesMachine = AggregatesMachine.TestCase
TestAggregatesMachine.settings = settings(
    max_examples=examples(0.3), stateful_step_count=40
)
