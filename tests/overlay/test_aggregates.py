"""Unit tests for the O(1) incremental aggregate plane.

Each overlay mutation path -- join, leave, promote, demote, connect,
disconnect -- must leave :class:`~repro.overlay.aggregates.OverlayAggregates`
exactly equal to a brute-force scan; the derived reads (means, ratio,
mean leaf-neighbor count) must match the definitions in
:mod:`repro.metrics.layerstats`.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.overlay.aggregates import OverlayAggregates
from repro.overlay.roles import Role
from repro.overlay.topology import Overlay, OverlayError


def add_peer(ov, pid, role, capacity=1.0, join_time=0.0):
    return ov.add_peer(pid, role, capacity, join_time, lifetime=100.0)


def assert_consistent(overlay):
    assert overlay.aggregates.mismatches() == []


class TestMembership:
    def test_fresh_overlay_is_empty(self):
        agg = Overlay().aggregates
        assert agg.n == 0
        assert agg.super_layer.count == 0
        assert agg.leaf_layer.count == 0
        assert agg.leaf_link_count == 0

    def test_join_counts_into_role_layer(self):
        ov = Overlay()
        add_peer(ov, 0, Role.SUPER, capacity=8.0, join_time=2.0)
        add_peer(ov, 1, Role.LEAF, capacity=3.0, join_time=5.0)
        agg = ov.aggregates
        assert agg.super_layer.count == 1
        assert agg.leaf_layer.count == 1
        assert agg.super_layer.mean_capacity() == 8.0
        assert agg.leaf_layer.mean_capacity() == 3.0
        assert agg.super_layer.mean_age(10.0) == 8.0
        assert agg.leaf_layer.mean_age(10.0) == 5.0
        assert_consistent(ov)

    def test_leave_is_exact_inverse_of_join(self):
        ov = Overlay()
        add_peer(ov, 0, Role.SUPER, capacity=0.1, join_time=0.3)
        add_peer(ov, 1, Role.SUPER, capacity=0.2, join_time=0.7)
        ov.remove_peer(1)
        agg = ov.aggregates
        # Exact fixed-point sums: after removal the counters equal those
        # of an overlay that never saw peer 1, even though
        # (0.1 + 0.2) - 0.2 != 0.1 in float arithmetic.
        solo = Overlay()
        add_peer(solo, 0, Role.SUPER, capacity=0.1, join_time=0.3)
        assert agg.super_layer == solo.aggregates.super_layer
        assert_consistent(ov)

    def test_leave_drops_leaf_links(self):
        ov = Overlay()
        add_peer(ov, 0, Role.SUPER)
        add_peer(ov, 1, Role.LEAF)
        ov.connect(0, 1)
        assert ov.aggregates.leaf_link_count == 1
        ov.remove_peer(0)
        assert ov.aggregates.leaf_link_count == 0
        assert_consistent(ov)


class TestLinks:
    def test_leaf_super_link_counted(self):
        ov = Overlay()
        add_peer(ov, 0, Role.SUPER)
        add_peer(ov, 1, Role.LEAF)
        ov.connect(0, 1)
        assert ov.aggregates.leaf_link_count == 1
        assert ov.aggregates.super_mean_lnn() == 1.0
        ov.disconnect(0, 1)
        assert ov.aggregates.leaf_link_count == 0
        assert_consistent(ov)

    def test_super_super_link_not_counted(self):
        ov = Overlay()
        add_peer(ov, 0, Role.SUPER)
        add_peer(ov, 1, Role.SUPER)
        ov.connect(0, 1)
        assert ov.aggregates.leaf_link_count == 0
        assert_consistent(ov)


class TestRoleTransitions:
    def _backbone(self):
        """Two supers, each with a leaf; supers interconnected."""
        ov = Overlay()
        add_peer(ov, 0, Role.SUPER, capacity=8.0, join_time=1.0)
        add_peer(ov, 1, Role.SUPER, capacity=6.0, join_time=2.0)
        add_peer(ov, 2, Role.LEAF, capacity=2.0, join_time=3.0)
        add_peer(ov, 3, Role.LEAF, capacity=1.0, join_time=4.0)
        ov.connect(0, 1)
        ov.connect(0, 2)
        ov.connect(1, 3)
        return ov

    def test_promote_moves_aggregate_and_refiles_links(self):
        ov = self._backbone()
        ov.promote(2)  # leaf 2 (attached to super 0) becomes a super
        agg = ov.aggregates
        assert agg.super_layer.count == 3
        assert agg.leaf_layer.count == 1
        # 2's link to super 0 stopped being leaf--super; 1--3 remains.
        assert agg.leaf_link_count == 1
        assert_consistent(ov)

    def test_demote_moves_aggregate_and_refiles_links(self):
        ov = self._backbone()
        rng = np.random.default_rng(7)
        ov.demote(1, 2, rng)  # super 1 drops to leaf
        agg = ov.aggregates
        assert agg.super_layer.count == 1
        assert agg.leaf_layer.count == 3
        assert_consistent(ov)

    def test_means_follow_the_moved_peer(self):
        ov = self._backbone()
        ov.promote(2)
        agg = ov.aggregates
        assert agg.super_layer.mean_capacity() == pytest.approx((8 + 6 + 2) / 3)
        assert agg.leaf_layer.mean_capacity() == pytest.approx(1.0)
        assert agg.super_layer.mean_age(10.0) == pytest.approx(10 - (1 + 2 + 3) / 3)


class TestDerivedReads:
    def test_ratio_matches_definition(self):
        ov = Overlay()
        for pid in range(3):
            add_peer(ov, pid, Role.SUPER)
        for pid in range(3, 9):
            add_peer(ov, pid, Role.LEAF)
        assert ov.aggregates.ratio() == 2.0
        assert ov.aggregates.n == 9

    def test_ratio_inf_without_supers(self):
        ov = Overlay()
        add_peer(ov, 0, Role.LEAF)
        assert math.isinf(ov.aggregates.ratio())
        assert ov.aggregates.super_mean_lnn() == 0.0

    def test_empty_layer_means_are_zero(self):
        agg = Overlay().aggregates
        assert agg.super_layer.mean_capacity() == 0.0
        assert agg.super_layer.mean_age(123.0) == 0.0


class TestExactness:
    def test_float_pathological_churn_leaves_no_residue(self):
        """0.1-style capacities through many add/removes: exactly zero residue."""
        ov = Overlay()
        add_peer(ov, 0, Role.SUPER, capacity=0.1, join_time=0.1)
        for round_ in range(50):
            pid = 1 + round_
            add_peer(ov, pid, Role.LEAF, capacity=0.2, join_time=0.3 * round_)
            ov.remove_peer(pid)
        agg = ov.aggregates
        assert agg.leaf_layer.count == 0
        assert agg.leaf_layer.capacity_sum == 0
        assert agg.leaf_layer.join_time_sum == 0
        assert agg.super_layer.mean_capacity() == 0.1
        assert_consistent(ov)


class TestVerification:
    def _corrupted(self):
        ov = Overlay()
        add_peer(ov, 0, Role.SUPER)
        ov.aggregates.super_layer.count += 1  # simulate a maintenance bug
        return ov

    def test_mismatches_reports_divergence(self):
        ov = self._corrupted()
        problems = ov.aggregates.mismatches()
        assert any("super.count" in p for p in problems)

    def test_check_invariants_skips_aggregates_by_default(self):
        # Production default: the O(n) scan is not paid per check.
        self._corrupted().check_invariants()

    def test_check_invariants_opt_in_raises(self):
        with pytest.raises(OverlayError, match="aggregate counters diverged"):
            self._corrupted().check_invariants(aggregates=True)

    def test_scan_of_consistent_overlay_equals_live_plane(self):
        ov = Overlay()
        add_peer(ov, 0, Role.SUPER, capacity=5.0)
        add_peer(ov, 1, Role.LEAF, capacity=2.0, join_time=1.0)
        ov.connect(0, 1)
        fresh = ov.aggregates.scan()
        assert isinstance(fresh, OverlayAggregates)
        assert fresh.super_layer == ov.aggregates.super_layer
        assert fresh.leaf_layer == ov.aggregates.leaf_layer
        assert fresh.leaf_link_count == ov.aggregates.leaf_link_count
