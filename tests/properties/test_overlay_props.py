"""Property tests: overlay structural invariants survive any op sequence.

A stateful machine drives joins, deaths, link churn, promotions, and
demotions in random interleavings and checks the full invariant suite
after every step -- the overlay equivalent of a fuzzer.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.overlay.roles import Role
from repro.overlay.topology import Overlay
from tests.conftest import examples


class OverlayMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.overlay = Overlay()
        self.rng = np.random.default_rng(11)
        self.next_pid = 0

    def _new_peer(self, role: Role) -> int:
        pid = self.next_pid
        self.next_pid += 1
        self.overlay.add_peer(pid, role, capacity=1.0, join_time=0.0, lifetime=1.0)
        return pid

    @rule()
    def join_super(self):
        self._new_peer(Role.SUPER)

    @rule()
    def join_leaf(self):
        self._new_peer(Role.LEAF)

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

    @rule()
    def restore_roundtrip(self):
        """A restored twin re-derives every degree column and aggregate
        from the snapshot alone -- nothing syncs them behind its back."""
        twin = Overlay()
        twin.restore(self.overlay.snapshot())
        assert twin.snapshot() == self.overlay.snapshot()
        twin.check_invariants(aggregates=True)

    @invariant()
    def structural_invariants_hold(self):
        self.overlay.check_invariants()

    @invariant()
    def no_row_outside_the_registry(self):
        assert len(self.overlay.store) == self.overlay.n

    @invariant()
    def counters_consistent(self):
        ov = self.overlay
        assert ov.n == ov.n_super + ov.n_leaf
        assert ov.total_joins - ov.total_leaves == ov.n


TestOverlayMachine = OverlayMachine.TestCase
TestOverlayMachine.settings = settings(
    max_examples=examples(0.3), stateful_step_count=40
)
