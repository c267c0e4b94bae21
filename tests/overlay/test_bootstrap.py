"""Unit tests for the join procedure."""

from __future__ import annotations

import numpy as np
import pytest

from repro.overlay.bootstrap import JoinProcedure
from repro.overlay.roles import Role
from repro.overlay.topology import Overlay, OverlayError


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


class TestValidation:
    def test_m_below_one_rejected(self):
        with pytest.raises(ValueError):
            JoinProcedure(Overlay(), m=0, rng=np.random.default_rng(0))

    def test_ks_below_one_rejected(self):
        with pytest.raises(ValueError):
            JoinProcedure(Overlay(), m=2, rng=np.random.default_rng(0), k_s=0)
