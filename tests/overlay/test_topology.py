"""Unit tests for the two-layer overlay topology."""

from __future__ import annotations

import numpy as np
import pytest

from repro.overlay.roles import Role
from repro.overlay.topology import Overlay, OverlayError
from tests.conftest import add_peer, build_small_overlay


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def two_supers_one_leaf() -> Overlay:
    ov = Overlay()
    add_peer(ov, 0, Role.SUPER)
    add_peer(ov, 1, Role.SUPER)
    add_peer(ov, 2, Role.LEAF)
    return ov


class TestMembership:
    def test_add_peer_registers_in_layer(self):
        ov = two_supers_one_leaf()
        assert ov.n == 3 and ov.n_super == 2 and ov.n_leaf == 1
        assert 0 in ov.super_ids and 2 in ov.leaf_ids

    def test_duplicate_pid_rejected(self):
        ov = Overlay()
        add_peer(ov, 0)
        with pytest.raises(OverlayError, match="duplicate"):
            add_peer(ov, 0)

    def test_add_peer_validates_its_arguments(self):
        ov = Overlay()
        ov.add_peer(0, Role.SUPER, 1.0, 0.0, 10.0)
        with pytest.raises(OverlayError, match="duplicate"):
            ov.add_peer(0, Role.LEAF, 1.0, 0.0, 10.0)
        with pytest.raises(ValueError, match="capacity"):
            ov.add_peer(1, Role.LEAF, -1.0, 0.0, 10.0)
        with pytest.raises(ValueError, match="lifetime"):
            ov.add_peer(1, Role.LEAF, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="boss"):
            ov.add_peer(1, "boss", 1.0, 0.0, 10.0)
        assert ov.n == 1 and len(ov.store) == 1
        # A role given by value is coerced, not silently filed as a leaf.
        assert ov.add_peer(1, "super", 1.0, 0.0, 10.0).role is Role.SUPER
        assert 1 in ov.super_ids and ov.n_super == 2

    def test_remove_unknown_pid_raises(self):
        with pytest.raises(OverlayError, match="unknown"):
            Overlay().remove_peer(42)

    def test_contains_and_len(self):
        ov = two_supers_one_leaf()
        assert 0 in ov and 42 not in ov
        assert len(ov) == 3

    def test_get_returns_none_for_missing(self):
        assert Overlay().get(1) is None


class TestLinks:
    def test_leaf_super_link(self):
        ov = two_supers_one_leaf()
        assert ov.connect(2, 0)
        assert ov.connected(2, 0) and ov.connected(0, 2)
        assert 0 in ov.peer(2).super_neighbors
        assert 2 in ov.peer(0).leaf_neighbors

    def test_super_super_link(self):
        ov = two_supers_one_leaf()
        assert ov.connect(0, 1)
        assert 1 in ov.peer(0).super_neighbors
        assert 0 in ov.peer(1).super_neighbors

    def test_leaf_leaf_link_rejected(self):
        ov = two_supers_one_leaf()
        add_peer(ov, 3, Role.LEAF)
        with pytest.raises(OverlayError, match="leaf-leaf"):
            ov.connect(2, 3)

    def test_self_link_rejected(self):
        ov = two_supers_one_leaf()
        with pytest.raises(OverlayError, match="self-link"):
            ov.connect(0, 0)

    def test_duplicate_link_returns_false(self):
        ov = two_supers_one_leaf()
        assert ov.connect(2, 0)
        assert not ov.connect(2, 0)
        assert not ov.connect(0, 2)
        assert ov.total_connections_created == 1

    def test_disconnect(self):
        ov = two_supers_one_leaf()
        ov.connect(2, 0)
        assert ov.disconnect(2, 0)
        assert not ov.connected(2, 0)
        assert not ov.disconnect(2, 0)

    def test_leaf_records_contacted_supers(self):
        ov = two_supers_one_leaf()
        ov.connect(2, 0)
        ov.connect(2, 1)
        ov.disconnect(2, 0)
        # contacted set is history, not current links
        assert ov.peer(2).contacted_supers == (0, 1)


class TestRemovePeer:
    def test_leaf_removal_cleans_super_side(self):
        ov = two_supers_one_leaf()
        ov.connect(2, 0)
        orphans, former = ov.remove_peer(2)
        assert orphans == [] and former == [0]
        assert 2 not in ov.peer(0).leaf_neighbors
        ov.check_invariants()

    def test_super_removal_returns_orphans(self):
        ov = two_supers_one_leaf()
        ov.connect(2, 0)
        ov.connect(0, 1)
        orphans, former = ov.remove_peer(0)
        assert orphans == [2] and former == [1]
        assert ov.peer(2).super_neighbors == ()
        ov.check_invariants()

    def test_counters(self):
        ov = two_supers_one_leaf()
        assert ov.total_joins == 3
        ov.remove_peer(2)
        assert ov.total_leaves == 1

    def test_leave_listener_reads_final_row_then_slot_is_reused(self):
        ov = Overlay()
        add_peer(ov, 0, Role.SUPER)
        gone = add_peer(ov, 1, Role.SUPER, capacity=7.5, join_time=3.0)
        ov.connect(0, 1)
        slot, seen = gone._slot, []
        ov.add_membership_listener(
            lambda p, joined: joined
            or seen.append((p.capacity, p.join_time, p.role, p.super_neighbors))
        )
        ov.remove_peer(1)
        assert seen == [(7.5, 3.0, Role.SUPER, ())]
        assert len(ov.store) == ov.n == 1
        assert add_peer(ov, 2)._slot == slot

    def test_view_kept_past_removal_raises(self):
        ov = two_supers_one_leaf()
        kept = ov.peer(2)
        ov.remove_peer(2)
        recycled = add_peer(ov, 3, Role.SUPER, capacity=9.0)
        assert recycled._slot == kept._slot and kept.pid == 2
        for field in ("capacity", "role", "super_neighbors"):
            with pytest.raises(OverlayError, match="stale"):
                getattr(kept, field)


class TestPromotion:
    def test_promote_keeps_super_links_as_backbone(self):
        """Figure 2: the promoted leaf keeps its super connections."""
        ov = two_supers_one_leaf()
        ov.connect(2, 0)
        ov.connect(2, 1)
        ov.promote(2)
        peer = ov.peer(2)
        assert peer.is_super
        assert peer.super_neighbors == (0, 1)
        assert 2 in ov.peer(0).super_neighbors
        assert 2 not in ov.peer(0).leaf_neighbors
        ov.check_invariants()

    def test_promote_moves_layer_registries(self):
        ov = two_supers_one_leaf()
        ov.promote(2)
        assert 2 in ov.super_ids and 2 not in ov.leaf_ids

    def test_promote_clears_contacted_supers(self):
        ov = two_supers_one_leaf()
        ov.connect(2, 0)
        ov.promote(2)
        assert ov.peer(2).contacted_supers == ()

    def test_promote_super_rejected(self):
        ov = two_supers_one_leaf()
        with pytest.raises(OverlayError, match="already"):
            ov.promote(0)

    def test_promotion_counter(self):
        ov = two_supers_one_leaf()
        ov.promote(2)
        assert ov.total_promotions == 1


class TestDemotion:
    def build(self) -> Overlay:
        """Super 0 with backbone {1,2,3} and leaves {10,11,12}."""
        ov = Overlay()
        for sid in range(4):
            add_peer(ov, sid, Role.SUPER)
        for sid in (1, 2, 3):
            ov.connect(0, sid)
        for lid in (10, 11, 12):
            add_peer(ov, lid, Role.LEAF)
            ov.connect(lid, 0)
        return ov

    def test_demote_keeps_m_super_links(self, rng):
        ov = self.build()
        ov.demote(0, 2, rng)
        peer = ov.peer(0)
        assert peer.is_leaf
        assert len(peer.super_neighbors) == 2
        assert set(peer.super_neighbors) <= {1, 2, 3}
        ov.check_invariants()

    def test_demote_returns_orphans(self, rng):
        """Figure 3: all leaf links are dropped; leaves are orphaned."""
        ov = self.build()
        orphans = ov.demote(0, 2, rng)
        assert sorted(orphans) == [10, 11, 12]
        for lid in orphans:
            assert ov.peer(lid).super_neighbors == ()

    def test_demoted_peer_refiled_as_leaf_on_keepers(self, rng):
        ov = self.build()
        ov.demote(0, 2, rng)
        keepers = ov.peer(0).super_neighbors
        for sid in keepers:
            assert 0 in ov.peer(sid).leaf_neighbors
            assert 0 not in ov.peer(sid).super_neighbors

    def test_demote_with_fewer_than_m_super_links_keeps_all(self, rng):
        ov = Overlay()
        add_peer(ov, 0, Role.SUPER)
        add_peer(ov, 1, Role.SUPER)
        ov.connect(0, 1)
        ov.demote(0, 2, rng)
        assert ov.peer(0).super_neighbors == (1,)
        ov.check_invariants()

    def test_demote_leaf_rejected(self, rng):
        ov = two_supers_one_leaf()
        with pytest.raises(OverlayError, match="already"):
            ov.demote(2, 2, rng)

    def test_contacted_supers_reset_to_keepers(self, rng):
        ov = self.build()
        ov.demote(0, 2, rng)
        kept = ov.peer(0)
        assert set(kept.contacted_supers) == set(kept.super_neighbors)


class TestRatio:
    def test_ratio(self):
        ov = build_small_overlay(n_supers=3, leaves_per_super=4)
        assert ov.layer_size_ratio() == pytest.approx(12 / 3)

    def test_ratio_infinite_without_supers(self):
        ov = Overlay()
        add_peer(ov, 0, Role.LEAF)
        assert ov.layer_size_ratio() == float("inf")


class TestRandomSupers:
    def test_returns_distinct_supers(self, rng):
        ov = build_small_overlay(n_supers=5, leaves_per_super=1)
        picks = ov.random_supers(rng, 3)
        assert len(picks) == len(set(picks)) == 3
        assert all(p in ov.super_ids for p in picks)

    def test_respects_exclude(self, rng):
        ov = build_small_overlay(n_supers=5, leaves_per_super=1)
        for _ in range(20):
            picks = ov.random_supers(rng, 3, exclude=(0, 1))
            assert not set(picks) & {0, 1}

    def test_k_larger_than_population(self, rng):
        ov = build_small_overlay(n_supers=3, leaves_per_super=1)
        assert sorted(ov.random_supers(rng, 10)) == [0, 1, 2]

    def test_exclusion_of_everything_yields_empty(self, rng):
        ov = build_small_overlay(n_supers=2, leaves_per_super=1)
        assert ov.random_supers(rng, 2, exclude=(0, 1)) == []


class TestListeners:
    def test_connection_listener_fires_on_create_only(self):
        ov = two_supers_one_leaf()
        seen = []
        ov.add_connection_listener(lambda a, b: seen.append((a, b)))
        ov.connect(2, 0)
        ov.disconnect(2, 0)
        assert seen == [(2, 0)]

    def test_link_listener_sees_create_and_drop(self):
        ov = two_supers_one_leaf()
        seen = []
        ov.add_link_listener(lambda a, b, created: seen.append((a, b, created)))
        ov.connect(2, 0)
        ov.disconnect(2, 0)
        assert seen == [(2, 0, True), (2, 0, False)]

    def test_membership_listener(self):
        ov = Overlay()
        seen = []
        ov.add_membership_listener(lambda p, joined: seen.append((p.pid, joined)))
        add_peer(ov, 0, Role.SUPER)
        ov.remove_peer(0)
        assert seen == [(0, True), (0, False)]

    def test_role_listener_reports_old_role(self, rng):
        ov = two_supers_one_leaf()
        ov.connect(2, 0)
        seen = []
        ov.add_role_listener(lambda p, old: seen.append((p.pid, old)))
        ov.promote(2)
        ov.demote(2, 2, rng)
        assert seen == [(2, Role.LEAF), (2, Role.SUPER)]

    def test_remove_peer_notifies_drops_before_leave(self):
        ov = two_supers_one_leaf()
        ov.connect(2, 0)
        order = []
        ov.add_link_listener(lambda a, b, created: order.append("link"))
        ov.add_membership_listener(
            lambda p, joined: order.append("leave") if not joined else None
        )
        ov.remove_peer(2)
        assert order == ["link", "leave"]

    def test_link_drop_during_removal_sees_registered_endpoints(self):
        ov = two_supers_one_leaf()
        ov.connect(2, 0)

        def check(a, b, created):
            if not created:
                assert ov.get(a) is not None and ov.get(b) is not None

        ov.add_link_listener(check)
        ov.remove_peer(2)


class TestInvariants:
    def test_clean_overlay_passes(self):
        build_small_overlay().check_invariants()

    def test_detects_asymmetric_link(self):
        ov = two_supers_one_leaf()
        ov.connect(2, 0)
        ov.store.ln_discard(ov.peer(0)._slot, 2)  # sabotage
        with pytest.raises(OverlayError, match="asymmetric"):
            ov.check_invariants()

    def test_detects_role_registry_drift(self):
        ov = two_supers_one_leaf()
        ov.store.role[ov.peer(2)._slot] = 1  # sabotage without registry update
        with pytest.raises(OverlayError):
            ov.check_invariants()

    def test_detects_leaf_with_leaf_neighbors(self):
        ov = two_supers_one_leaf()
        ov.store.ln_add(ov.peer(2)._slot, 0, ov.peer(0)._slot)  # sabotage
        with pytest.raises(OverlayError):
            ov.check_invariants()


def test_an_emptied_observation_cache_survives_a_snapshot_round_trip():
    """A cache whose observations were all forgotten snapshots as ``[]``;
    restore rebuilds it empty instead of dropping it, or a resumed run's
    ``state_digest`` differs from the run it resumed."""
    ov = two_supers_one_leaf()
    ov.store.kn[ov.peer(2)._slot] = {}
    twin = Overlay()
    twin.restore(ov.snapshot())
    assert twin.snapshot()["knowledge"] == ov.snapshot()["knowledge"]


def test_restore_refuses_a_snapshot_listing_a_pid_twice():
    """The registry is the one pid -> row map, so restore itself must
    refuse a duplicate row instead of leaving an orphaned slot."""
    snap = two_supers_one_leaf().snapshot()
    n = snap["n"]
    # Repeat the last row (the leaf, pid 2) in every per-row field.
    snap["columns"] = {
        name: raw + raw[len(raw) * (n - 1) // n :]
        for name, raw in snap["columns"].items()
    }
    for key in ("sn", "ln", "ct", "knowledge"):
        snap[key] = snap[key] + snap[key][-1:]
    with pytest.raises(OverlayError, match="duplicate pid 2"):
        Overlay().restore(snap)
