"""Unit tests for the join procedure."""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.overlay.bootstrap import JoinProcedure
from repro.overlay.roles import Role
from repro.overlay.topology import Overlay, OverlayError
from tests.overlay import reference_join


@pytest.fixture
def join():
    return JoinProcedure(Overlay(), m=2, rng=np.random.default_rng(0), k_s=3)


class TestColdStart:
    def test_first_peer_seeds_super_layer(self, join):
        peer = join.join(0.0, capacity=10.0, lifetime=50.0)
        assert peer.is_super
        assert join.overlay.n_super == 1

    def test_second_peer_joins_as_leaf(self, join):
        join.join(0.0, 10.0, 50.0)
        peer = join.join(1.0, 20.0, 50.0)
        assert peer.is_leaf

    def test_seed_supers_threshold(self):
        join = JoinProcedure(
            Overlay(), m=2, rng=np.random.default_rng(0), k_s=3, seed_supers=3
        )
        roles = [join.join(0.0, 10.0, 50.0).role for _ in range(5)]
        assert roles[:3] == [Role.SUPER] * 3
        assert roles[3:] == [Role.LEAF] * 2


class TestLeafJoin:
    def test_leaf_connects_to_m_supers(self, join):
        for _ in range(4):  # seed + build a few supers via explicit role
            join.join(0.0, 10.0, 50.0, role=Role.SUPER)
        leaf = join.join(1.0, 5.0, 50.0)
        assert leaf.is_leaf
        assert len(leaf.super_neighbors) == 2

    def test_leaf_with_single_super_gets_one_link(self, join):
        join.join(0.0, 10.0, 50.0)  # the only super
        leaf = join.join(1.0, 5.0, 50.0)
        assert len(leaf.super_neighbors) == 1  # m=2 unreachable, no dup links

    def test_join_metadata(self, join):
        join.join(0.0, 10.0, 50.0)
        peer = join.join(3.5, 7.0, 42.0)
        assert peer.join_time == 3.5
        assert peer.capacity == 7.0
        assert peer.lifetime == 42.0
        assert peer.role_change_time == 3.5


class TestExplicitRole:
    def test_explicit_super_connects_to_backbone(self, join):
        for _ in range(5):
            join.join(0.0, 10.0, 50.0, role=Role.SUPER)
        sup = join.join(1.0, 99.0, 50.0, role=Role.SUPER)
        assert sup.is_super
        assert len(sup.super_neighbors) == 3  # k_s

    def test_explicit_leaf_role_honored(self, join):
        join.join(0.0, 10.0, 50.0)
        peer = join.join(1.0, 999.0, 50.0, role=Role.LEAF)
        assert peer.is_leaf


class TestConnectLeaf:
    def test_topup_avoids_duplicates(self, join):
        for _ in range(6):
            join.join(0.0, 10.0, 50.0, role=Role.SUPER)
        leaf = join.join(1.0, 5.0, 50.0)
        before = set(leaf.super_neighbors)
        added = join.connect_leaf(leaf.pid, 2)
        assert not set(added) & before
        assert len(leaf.super_neighbors) == 4

    def test_fully_linked_leaf_adds_nothing_and_draws_nothing(self, join):
        join.join(0.0, 10.0, 50.0)  # the lone cold-start super
        leaf = join.join(1.0, 5.0, 50.0)
        assert len(leaf.super_neighbors) == 1
        before = join.rng.bit_generator.state
        assert join.connect_leaf(leaf.pid, 2) == []
        assert join.rng.bit_generator.state == before

    @pytest.mark.parametrize("who", ["absent", "super"])
    def test_not_a_leaf_fails_before_anything_is_read_or_drawn(self, join, who):
        # An absent pid used to resolve to slot -1 -- the *last* row --
        # draw against that peer's links, and only then die in connect.
        supers = [join.join(0.0, 10.0, 50.0, role=Role.SUPER).pid for _ in range(6)]
        leaf = join.join(1.0, 5.0, 50.0).pid
        pid = 9999 if who == "absent" else supers[0]
        ov = join.overlay
        before = join.rng.bit_generator.state
        links = ov.total_connections_created
        with pytest.raises(OverlayError):
            join.connect_leaf(pid, 1)
        assert join.rng.bit_generator.state == before
        assert ov.total_connections_created == links
        assert len(ov.peer(leaf).super_neighbors) == 2

    def test_pids_are_unique_and_monotone(self, join):
        pids = [join.join(0.0, 1.0, 1.0).pid for _ in range(5)]
        assert pids == sorted(set(pids))


class _ZeroRng:
    """A generator whose bounded integers are all 0 -- the first super,
    which the leaf already holds -- so block rejection runs dry and the
    exact ``choice`` fallback picks.  Counts the fallback's calls."""

    def __init__(self) -> None:
        self.gen = np.random.default_rng(11)
        self.choices = 0

    def integers(self, n, size=None):
        return np.zeros(size, dtype=np.int64) if size else 0

    def choice(self, *args, **kwargs):
        self.choices += 1
        return self.gen.choice(*args, **kwargs)


class TestListenerOrder:
    """A leaf join and a leaf repair, linked in one ``Overlay.link_leaf``
    frame, make the listener calls and draws of the per-call chain
    (``reference_join``): the membership event first, then per pick in
    draw order the link listener ``(pid, sid, True)`` and the connection
    listener ``(pid, sid)``."""

    @staticmethod
    def system(fused, *, n_supers=6, m=2, rng=None):
        ov = Overlay()
        join = JoinProcedure(ov, m=m, rng=rng or np.random.default_rng(3), k_s=3)
        if not fused:
            join.join = partial(reference_join.join, join)
            join.connect_leaf = partial(reference_join.connect_leaf, join)
        for _ in range(n_supers):
            join.join(0.0, 10.0, 50.0, role=Role.SUPER)
        calls = []
        ov.add_membership_listener(lambda p, joined: calls.append((p.pid, joined)))
        ov.add_link_listener(lambda a, b, created: calls.append((a, b, created)))
        ov.add_connection_listener(lambda a, b: calls.append((a, b)))
        return ov, join, calls

    @staticmethod
    def state(join):
        rng = join.rng
        return (rng.gen if isinstance(rng, _ZeroRng) else rng).bit_generator.state

    @staticmethod
    def per_link(links):
        return [c for a, b in links for c in ((a, b, True), (a, b))]

    def test_a_leaf_join_is_the_per_call_chain(self):
        runs = []
        for fused in (True, False):
            ov, join, calls = self.system(fused)
            leaf = join.join(1.0, 5.0, 50.0).pid
            runs.append((calls, ov.peer(leaf).super_neighbors, self.state(join)))
        assert runs[0] == runs[1]
        calls, picks, _ = runs[0]
        assert len(picks) == 2
        assert calls == [(leaf, True)] + self.per_link((leaf, s) for s in picks)

    def test_a_repair_is_the_per_call_chain(self):
        runs = []
        for fused in (True, False):
            ov, join, calls = self.system(fused)
            for _ in range(30):
                join.join(1.0, 5.0, 50.0)
            orphans, _ = ov.remove_peer(ov.super_ids._items[0])
            del calls[:]
            links = [(lid, s) for lid in orphans for s in join.connect_leaf(lid, 1)]
            runs.append((calls, links, self.state(join)))
        assert runs[0] == runs[1]
        calls, links, _ = runs[0]
        assert len(links) == len(orphans) > 0
        assert calls == self.per_link(links)

    @pytest.mark.parametrize("n_supers, m", [(1, 2), (2, 2), (2, 3)])
    def test_at_most_m_supers_are_all_linked_undrawn(self, n_supers, m):
        ov, join, calls = self.system(True, n_supers=n_supers, m=m)
        before = self.state(join)
        leaf = join.join(1.0, 5.0, 50.0).pid
        assert ov.peer(leaf).super_neighbors == tuple(ov.super_ids)
        assert calls == [(leaf, True)] + self.per_link((leaf, s) for s in ov.super_ids)
        assert self.state(join) == before

    def test_with_no_supers_nothing_is_linked_or_drawn(self):
        ov, join, calls = self.system(True, n_supers=0)
        before = self.state(join)
        leaf = join.join(1.0, 5.0, 50.0, role=Role.LEAF).pid
        assert join.connect_leaf(leaf, 2) == []
        assert calls == [(leaf, True)]
        assert ov.peer(leaf).super_neighbors == ()
        assert self.state(join) == before

    def test_a_listener_that_promotes_the_joiner_mid_join_is_the_oracle(self):
        # After its first link the leaf is a super: the second pick is a
        # backbone link, made by `Overlay.connect` as in the chain.
        runs = []
        for fused in (True, False):
            ov, join, calls = self.system(fused)
            ov.add_connection_listener(
                lambda a, b, ov=ov: ov.peer(a).is_leaf and ov.promote(a)
            )
            leaf = join.join(1.0, 5.0, 50.0).pid
            runs.append((calls, ov.snapshot(), self.state(join)))
            ov.check_invariants(aggregates=True)
        assert runs[0] == runs[1]
        assert ov.peer(leaf).is_super and len(ov.peer(leaf).super_neighbors) == 2

    def test_a_dense_exclusion_repair_takes_the_fallback_like_the_oracle(self):
        runs = []
        for fused in (True, False):
            ov, join, calls = self.system(fused, rng=_ZeroRng())
            fallbacks = join.rng.choices
            leaf = join.join(1.0, 5.0, 50.0).pid
            first, second = ov.peer(leaf).super_neighbors
            assert first == ov.super_ids._items[0]
            ov.disconnect(leaf, second)
            del calls[:]
            picks = join.connect_leaf(leaf, 1)
            fallbacks = join.rng.choices - fallbacks
            runs.append((calls, picks, fallbacks, self.state(join)))
        assert runs[0] == runs[1]
        calls, picks, fallbacks, _ = runs[0]
        assert fallbacks == 2  # the join's second pick and the repair's pick
        assert calls == self.per_link((leaf, s) for s in picks) and len(picks) == 1


class TestValidation:
    def test_m_below_one_rejected(self):
        with pytest.raises(ValueError):
            JoinProcedure(Overlay(), m=0, rng=np.random.default_rng(0))

    def test_ks_below_one_rejected(self):
        with pytest.raises(ValueError):
            JoinProcedure(Overlay(), m=2, rng=np.random.default_rng(0), k_s=0)
