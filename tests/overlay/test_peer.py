"""Unit tests for the peer model."""

from __future__ import annotations

import pytest

from repro.overlay.peer import Peer
from repro.overlay.roles import Role
from repro.overlay.topology import Overlay
from tests.conftest import add_peer


def lone_peer(pid, role=Role.LEAF, **metrics) -> Peer:
    """A lone peer; its view keeps the one-row overlay's store alive."""
    return add_peer(Overlay(), pid, role, **metrics)


class TestPeerConstruction:
    def test_defaults(self):
        p = lone_peer(1)
        assert p.is_leaf and not p.is_super
        assert p.super_neighbors == ()
        assert p.leaf_neighbors == ()
        assert p.contacted_supers == ()

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            lone_peer(1, capacity=-1.0)

    def test_nonpositive_lifetime_rejected(self):
        with pytest.raises(ValueError):
            lone_peer(1, lifetime=0.0)

    def test_peer_is_a_read_only_window(self):
        """One writer: nothing is constructed, freed or assigned through a view."""
        assert "__init__" not in vars(Peer) and "__del__" not in vars(Peer)
        props = [v for v in vars(Peer).values() if isinstance(v, property)]
        assert props and all(p.fset is None for p in props)


class TestAge:
    def test_age_is_elapsed_since_join(self):
        p = lone_peer(1, join_time=10.0)
        assert p.age(25.0) == 15.0

    def test_age_zero_at_join(self):
        p = lone_peer(1, join_time=10.0)
        assert p.age(10.0) == 0.0

    def test_age_before_join_rejected(self):
        p = lone_peer(1, join_time=10.0)
        with pytest.raises(ValueError):
            p.age(9.0)

    def test_age_never_exceeds_lifetime_at_death(self):
        """Definition 2: age <= lifetime throughout the session."""
        p = lone_peer(1, join_time=5.0, lifetime=20.0)
        assert p.age(p.death_time) == p.lifetime


class TestDerived:
    def test_death_time(self):
        p = lone_peer(1, join_time=3.0, lifetime=7.0)
        assert p.death_time == 10.0

    def test_degree_counts_both_link_types(self):
        ov = Overlay()
        p = add_peer(ov, 1, Role.SUPER)
        for pid in (2, 3):
            add_peer(ov, pid, Role.SUPER)
            ov.connect(1, pid)
        for pid in (4, 5, 6):
            add_peer(ov, pid, Role.LEAF)
            ov.connect(pid, 1)
        assert p.degree == 5

    def test_role_flags(self):
        assert lone_peer(1, Role.SUPER).is_super
        assert lone_peer(1, Role.LEAF).is_leaf


class TestRoles:
    def test_str(self):
        assert str(Role.SUPER) == "super"
        assert str(Role.LEAF) == "leaf"
