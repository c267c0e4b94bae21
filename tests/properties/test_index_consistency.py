"""Property test: the incremental search index never drifts.

Random interleavings of joins, deaths, link churn, and role transitions,
with the incremental per-super index -- and the inverted ``holders(obj)``
view the flood router intersects BFS levels with -- compared against a
from-scratch rebuild after every step.  This is the invariant that makes
query simulation trustworthy.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.overlay.roles import Role
from repro.overlay.topology import Overlay
from repro.search.content import ContentCatalog
from repro.search.index import ContentDirectory
from tests.conftest import examples


class IndexMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.overlay = Overlay()
        self.directory = ContentDirectory(
            self.overlay,
            ContentCatalog(n_objects=20, s=0.5),
            np.random.default_rng(13),
            files_per_peer=4,
        )
        self.rng = np.random.default_rng(17)
        self.next_pid = 0

    def _join(self, role: Role) -> int:
        pid = self.next_pid
        self.next_pid += 1
        self.overlay.add_peer(pid, role, capacity=1.0, join_time=0.0, lifetime=1.0)
        return pid

    @rule()
    def join_super(self):
        self._join(Role.SUPER)

    @rule()
    def join_leaf(self):
        self._join(Role.LEAF)

    @precondition(lambda self: self.overlay.n_leaf >= 1 and self.overlay.n_super >= 1)
    @rule(data=st.data())
    def connect_leaf_to_super(self, data):
        lid = data.draw(st.sampled_from(sorted(self.overlay.leaf_ids)))
        sid = data.draw(st.sampled_from(sorted(self.overlay.super_ids)))
        self.overlay.connect(lid, sid)

    @precondition(lambda self: self.overlay.n_super >= 2)
    @rule(data=st.data())
    def connect_backbone(self, data):
        a = data.draw(st.sampled_from(sorted(self.overlay.super_ids)))
        b = data.draw(st.sampled_from(sorted(self.overlay.super_ids)))
        if a != b:
            self.overlay.connect(a, b)

    @precondition(lambda self: self.overlay.n >= 1)
    @rule(data=st.data())
    def disconnect_random(self, data):
        pid = data.draw(st.sampled_from(sorted(p.pid for p in self.overlay.peers())))
        peer = self.overlay.peer(pid)
        nbrs = sorted({*peer.super_neighbors, *peer.leaf_neighbors})
        if nbrs:
            self.overlay.disconnect(pid, data.draw(st.sampled_from(nbrs)))

    @precondition(lambda self: self.overlay.n_leaf >= 1)
    @rule(data=st.data())
    def promote(self, data):
        pid = data.draw(st.sampled_from(sorted(self.overlay.leaf_ids)))
        self.overlay.promote(pid)

    @precondition(lambda self: self.overlay.n_super >= 1)
    @rule(data=st.data())
    def demote(self, data):
        pid = data.draw(st.sampled_from(sorted(self.overlay.super_ids)))
        self.overlay.demote(pid, 2, self.rng)

    @precondition(lambda self: self.overlay.n >= 1)
    @rule(data=st.data())
    def die(self, data):
        pid = data.draw(st.sampled_from(sorted(p.pid for p in self.overlay.peers())))
        self.overlay.remove_peer(pid)

    @invariant()
    def index_matches_rebuild(self):
        self.directory.check_consistency()

    @invariant()
    def departed_peers_have_no_state(self):
        for pid in range(self.next_pid):
            if pid not in self.overlay:
                assert self.directory.files(pid) == ()
                assert self.directory.index_size(pid) == 0


TestIndexMachine = IndexMachine.TestCase
TestIndexMachine.settings = settings(max_examples=examples(0.3), stateful_step_count=40)
