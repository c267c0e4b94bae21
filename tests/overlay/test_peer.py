"""Unit tests for the peer model."""

from __future__ import annotations

import pytest

from repro.overlay.peer import Peer
from repro.overlay.roles import Role
from tests.conftest import make_peer


class TestPeerConstruction:
    def test_defaults(self):
        p = make_peer(1)
        assert p.is_leaf and not p.is_super
        assert p.super_neighbors == set()
        assert p.leaf_neighbors == set()
        assert p.contacted_supers == set()

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            Peer(pid=1, role=Role.LEAF, capacity=-1.0, join_time=0.0, lifetime=10.0)

    def test_nonpositive_lifetime_rejected(self):
        with pytest.raises(ValueError):
            Peer(pid=1, role=Role.LEAF, capacity=1.0, join_time=0.0, lifetime=0.0)


class TestAge:
    def test_age_is_elapsed_since_join(self):
        p = make_peer(1, join_time=10.0)
        assert p.age(25.0) == 15.0

    def test_age_zero_at_join(self):
        p = make_peer(1, join_time=10.0)
        assert p.age(10.0) == 0.0

    def test_age_before_join_rejected(self):
        p = make_peer(1, join_time=10.0)
        with pytest.raises(ValueError):
            p.age(9.0)

    def test_age_never_exceeds_lifetime_at_death(self):
        """Definition 2: age <= lifetime throughout the session."""
        p = make_peer(1, join_time=5.0, lifetime=20.0)
        assert p.age(p.death_time) == p.lifetime


class TestDerived:
    def test_death_time(self):
        p = make_peer(1, join_time=3.0, lifetime=7.0)
        assert p.death_time == 10.0

    def test_degree_counts_both_link_types(self):
        p = make_peer(1, Role.SUPER)
        p.super_neighbors.update({2, 3})
        p.leaf_neighbors.update({4, 5, 6})
        assert p.degree == 5

    def test_role_flags(self):
        assert make_peer(1, Role.SUPER).is_super
        assert make_peer(1, Role.LEAF).is_leaf


class TestRoles:
    def test_str(self):
        assert str(Role.SUPER) == "super"
        assert str(Role.LEAF) == "leaf"
