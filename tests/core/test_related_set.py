"""Unit tests for Definition-3 related sets."""

from __future__ import annotations

import pytest

from repro.overlay.roles import Role
from repro.overlay.topology import Overlay
from repro.protocol.knowledge import ObservedKnowledge, OmniscientKnowledge
from tests.conftest import add_peer
from tests.core.reference_related_set import leaf_related_set, super_related_set


@pytest.fixture
def overlay():
    ov = Overlay()
    add_peer(ov, 0, Role.SUPER, capacity=200.0, join_time=0.0)
    add_peer(ov, 1, Role.SUPER, capacity=300.0, join_time=5.0)
    add_peer(ov, 10, Role.LEAF, capacity=50.0, join_time=10.0)
    add_peer(ov, 11, Role.LEAF, capacity=60.0, join_time=12.0)
    ov.connect(10, 0)
    ov.connect(10, 1)
    ov.connect(11, 0)
    return ov


@pytest.fixture
def know(overlay):
    return OmniscientKnowledge(overlay)


class TestSuperRelatedSet:
    def test_contains_current_leaves(self, overlay, know):
        view = super_related_set(know, overlay.peer(0), now=20.0)
        assert sorted(view.members) == [10, 11]
        assert sorted(view.capacities) == [50.0, 60.0]

    def test_ages_computed_at_now(self, overlay, know):
        view = super_related_set(know, overlay.peer(0), now=20.0)
        by_member = dict(zip(view.members, view.ages))
        assert by_member[10] == 10.0 and by_member[11] == 8.0

    def test_empty_for_leafless_super(self, overlay, know):
        ov = overlay
        ov.disconnect(10, 1)
        view = super_related_set(know, ov.peer(1), now=20.0)
        assert len(view) == 0

    def test_no_leaf_counts_for_super_view(self, overlay, know):
        view = super_related_set(know, overlay.peer(0), now=20.0)
        assert view.leaf_counts == ()

    def test_omniscient_view_never_missing(self, overlay, know):
        view = super_related_set(know, overlay.peer(0), now=20.0)
        assert view.missing == 0


class TestLeafRelatedSet:
    def test_contains_contacted_supers_with_lnn(self, overlay, know):
        view = leaf_related_set(know, overlay.peer(10), now=20.0)
        assert sorted(view.members) == [0, 1]
        by_member = dict(zip(view.members, view.leaf_counts))
        assert by_member[0] == 2  # super 0 serves leaves 10 and 11
        assert by_member[1] == 1

    def test_mean_leaf_count(self, overlay, know):
        view = leaf_related_set(know, overlay.peer(10), now=20.0)
        assert view.mean_leaf_count == pytest.approx(1.5)

    def test_keeps_history_beyond_current_links(self, overlay, know):
        """G(l) covers supers contacted since join, not just current."""
        overlay.disconnect(10, 1)
        view = leaf_related_set(know, overlay.peer(10), now=20.0)
        assert sorted(view.members) == [0, 1]

    def test_prunes_departed_supers(self, overlay, know):
        overlay.remove_peer(1)
        leaf = overlay.peer(10)
        view = leaf_related_set(know, leaf, now=20.0)
        assert view.members == (0,)
        assert leaf.contacted_supers == (0,)  # lazily pruned

    def test_prunes_demoted_supers(self, overlay, know, rng):
        overlay.demote(1, 2, rng)
        leaf = overlay.peer(10)
        view = leaf_related_set(know, leaf, now=20.0)
        assert view.members == (0,)

    def test_empty_view_mean_is_zero(self, overlay, know):
        fresh = add_peer(overlay, 99, Role.LEAF, join_time=15.0)
        view = leaf_related_set(know, fresh, now=20.0)
        assert len(view) == 0 and view.mean_leaf_count == 0.0


class TestObservedViews:
    """Views built from the observation cache, not live state."""

    def test_unobserved_members_counted_missing(self, overlay):
        know = ObservedKnowledge(overlay)
        view = leaf_related_set(know, overlay.peer(10), now=20.0)
        assert len(view) == 0 and view.missing == 2

    def test_observed_values_used_not_live(self, overlay):
        know = ObservedKnowledge(overlay)
        leaf = overlay.peer(10)
        # The value response reported capacity 250 at t=15 with age 15.
        leaf.knowledge.observe_values(0, 250.0, 15.0, 15.0)
        leaf.knowledge.observe_lnn(0, 7, 15.0)
        view = leaf_related_set(know, leaf, now=20.0)
        assert view.members == (0,)
        assert view.capacities == (250.0,)  # reported, not live 200.0
        assert view.ages == (20.0,)  # 15 at obs + 5 elapsed
        assert view.leaf_counts == (7,)
        assert view.missing == 1  # super 1 still unobserved

    def test_stale_observation_is_missing(self, overlay):
        know = ObservedKnowledge(overlay, horizon=2.0)
        leaf = overlay.peer(10)
        leaf.knowledge.observe_values(0, 250.0, 15.0, 15.0)
        view = leaf_related_set(know, leaf, now=20.0)  # 5 > horizon 2
        assert len(view) == 0 and view.missing == 2

    def test_values_without_lnn_join_members_only(self, overlay):
        """A member with values but no l_nn compares but cannot feed µ."""
        know = ObservedKnowledge(overlay)
        leaf = overlay.peer(10)
        leaf.knowledge.observe_values(0, 250.0, 15.0, 15.0)
        leaf.knowledge.observe_values(1, 300.0, 10.0, 15.0)
        leaf.knowledge.observe_lnn(1, 4, 15.0)
        view = leaf_related_set(know, leaf, now=20.0)
        assert sorted(view.members) == [0, 1]
        assert view.leaf_counts == (4,)

    def test_departed_member_pruned_and_forgotten(self, overlay):
        know = ObservedKnowledge(overlay)
        leaf = overlay.peer(10)
        leaf.knowledge.observe_values(1, 300.0, 10.0, 15.0)
        overlay.remove_peer(1)
        leaf_related_set(know, leaf, now=20.0)
        assert 1 not in leaf.contacted_supers
        assert leaf.knowledge.get(1) is None

    def test_super_view_from_observations(self, overlay):
        know = ObservedKnowledge(overlay)
        sup = overlay.peer(0)
        sup.knowledge.observe_values(10, 50.0, 8.0, 18.0)
        view = super_related_set(know, sup, now=20.0)
        assert view.members == (10,)
        assert view.ages == (10.0,)  # 8 at obs + 2 elapsed
        assert view.missing == 1  # leaf 11 unobserved
