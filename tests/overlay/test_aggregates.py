"""Unit tests for the aggregate plane, the memoised fold of the columns.

Every overlay mutator must hand the next reader a fresh fold exactly
equal to a brute-force scan; the derived reads (means, ratio, mean
leaf-neighbor count) must match the definitions in
:mod:`repro.metrics.layerstats`.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.overlay.aggregates import OverlayAggregates
from repro.overlay.roles import Role
from repro.overlay.topology import Overlay, OverlayError
from tests.conftest import add_peer


def assert_consistent(overlay):
    assert overlay.aggregates.mismatches() == []


def _linked():
    """Supers 0-2 (0--1 linked), leaves 3-5: 3 on 0 and 1, 4 on 1."""
    ov = Overlay()
    for pid, cap, jt in ((0, 8.0, 1.0), (1, 6.0, 2.0), (2, 5.0, 2.5)):
        add_peer(ov, pid, Role.SUPER, capacity=cap, join_time=jt)
    for pid, cap, jt in ((3, 2.0, 3.0), (4, 1.0, 4.0), (5, 0.1, 0.3)):
        add_peer(ov, pid, Role.LEAF, capacity=cap, join_time=jt)
    for a, b in ((0, 1), (3, 0), (3, 1), (4, 1)):
        ov.connect(a, b)
    return ov


#: One call of each overlay mutator, each moving some aggregate.
_MUTATORS = {
    "add_peer": lambda ov: add_peer(ov, 9, capacity=0.2, join_time=5e-324),
    "remove_peer": lambda ov: ov.remove_peer(1),
    "connect": lambda ov: ov.connect(5, 2),
    "link_leaf": lambda ov: ov.link_leaf(5, (0, 2)),
    "disconnect": lambda ov: ov.disconnect(3, 0),
    "promote": lambda ov: ov.promote(3),
    "demote": lambda ov: ov.demote(1, 1, np.random.default_rng(7)),
}


class TestMemo:
    @pytest.mark.parametrize("name", sorted(_MUTATORS))
    def test_each_mutator_yields_a_fresh_fold_equal_to_the_scan(self, name):
        ov = _linked()
        before = ov.aggregates
        _MUTATORS[name](ov)
        after = ov.aggregates
        assert before.mismatches() != []  # so a stale memo would fail here
        assert after is not before and after.mismatches() == []
        assert ov.aggregates is after  # kept until the next mutation

    def test_restore_drops_the_memo(self):
        state = _linked().snapshot()
        twin = Overlay()
        # Memoise an empty fold under the counter values restore writes.
        twin.__dict__.update((k, v) for k, v in state.items() if k.startswith("total_"))
        assert twin.aggregates.n == 0
        twin.restore(state)
        assert_consistent(twin)
        assert twin.aggregates.n == 6 and twin.aggregates.leaf_link_count == 3

    def test_a_fresh_overlay_registers_no_listener(self):
        ov = Overlay()
        assert ov._connection_listeners == ov._link_listeners == []
        assert ov._membership_listeners == ov._role_listeners == []


class TestMembership:
    def test_fresh_overlay_is_empty(self):
        agg = Overlay().aggregates
        assert agg.n == agg.super_layer.count == agg.leaf_layer.count == 0
        assert agg.leaf_link_count == 0

    def test_join_counts_into_role_layer(self):
        ov = Overlay()
        add_peer(ov, 0, Role.SUPER, capacity=8.0, join_time=2.0)
        add_peer(ov, 1, Role.LEAF, capacity=3.0, join_time=5.0)
        agg = ov.aggregates
        assert agg.super_layer.count == agg.leaf_layer.count == 1
        assert agg.super_layer.mean_capacity() == agg.super_layer.mean_age(10.0) == 8.0
        assert agg.leaf_layer.mean_capacity() == 3.0
        assert agg.leaf_layer.mean_age(10.0) == 5.0
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


class TestRoleTransitions:
    def test_means_follow_the_moved_peer(self):
        ov = _linked()
        ov.promote(3)
        agg = ov.aggregates
        assert agg.leaf_link_count == 1  # 3's links became backbone; 1--4 stays
        assert agg.super_layer.mean_capacity() == pytest.approx((8 + 6 + 5 + 2) / 4)
        assert agg.leaf_layer.mean_capacity() == pytest.approx((1 + 0.1) / 2)
        assert agg.super_layer.mean_age(10.0) == pytest.approx(10 - 8.5 / 4)


class TestDerivedReads:
    def test_ratio_matches_definition(self):
        ov = Overlay()
        for pid in range(9):
            add_peer(ov, pid, Role.SUPER if pid < 3 else Role.LEAF)
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
        leaf = agg.leaf_layer
        assert leaf.count == leaf.capacity_sum == leaf.join_time_sum == 0
        assert agg.super_layer.mean_capacity() == 0.1
        assert_consistent(ov)


class TestVerification:
    def _corrupted(self):
        ov = Overlay()
        add_peer(ov, 0, Role.SUPER)
        ov.aggregates.super_layer.count += 1  # the memo keeps the edit
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
        agg, fresh = ov.aggregates, ov.aggregates.scan()
        assert isinstance(fresh, OverlayAggregates)
        assert fresh.super_layer == agg.super_layer
        assert fresh.leaf_layer == agg.leaf_layer
        assert fresh.leaf_link_count == agg.leaf_link_count
