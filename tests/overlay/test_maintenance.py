"""Unit tests for degree maintenance."""

from __future__ import annotations

import numpy as np
import pytest

from repro.overlay.bootstrap import JoinProcedure
from repro.overlay.maintenance import Maintenance, RepairReport
from repro.overlay.roles import Role
from repro.overlay.topology import Overlay, OverlayError
from tests.overlay.reference_sweep import reference_reconnect_orphans


@pytest.fixture
def system():
    ov = Overlay()
    join = JoinProcedure(ov, m=2, rng=np.random.default_rng(1), k_s=3)
    maint = Maintenance(ov, join, m=2, k_s=3)
    for _ in range(6):
        join.join(0.0, 10.0, 50.0, role=Role.SUPER)
    return ov, join, maint


class TestLeafRepair:
    def test_ensure_leaf_links_tops_up_to_m(self, system):
        ov, join, maint = system
        leaf = join.join(1.0, 5.0, 50.0)
        sid = next(iter(leaf.super_neighbors))
        ov.disconnect(leaf.pid, sid)
        added = maint.ensure_leaf_links(leaf.pid)
        assert added == 1
        assert len(leaf.super_neighbors) == 2

    def test_ensure_leaf_links_noop_at_target(self, system):
        ov, join, maint = system
        leaf = join.join(1.0, 5.0, 50.0)
        assert maint.ensure_leaf_links(leaf.pid) == 0

    def test_ensure_leaf_links_on_departed_pid_is_noop(self, system):
        """Was: slot -1 read the last row, drew, then KeyError in connect."""
        ov, join, maint = system
        dead = join.join(1.0, 5.0, 50.0)
        ov.remove_peer(dead.pid)
        before = join.rng.bit_generator.state
        assert maint.ensure_leaf_links(dead.pid) == 0
        assert join.rng.bit_generator.state == before

    def test_ensure_leaf_links_on_super_is_noop(self, system):
        """Was: a super below ``m`` backbone links got topped up to the
        *leaf* target with backbone links."""
        ov, join, maint = system
        sup = join.join(1.0, 10.0, 50.0, role=Role.SUPER)
        for sid in list(sup.super_neighbors):
            ov.disconnect(sup.pid, sid)
        before = join.rng.bit_generator.state
        assert maint.ensure_leaf_links(sup.pid) == 0
        assert sup.super_neighbors == ()
        assert join.rng.bit_generator.state == before

    def test_reconnect_orphans_single_link_each(self, system):
        """PAO semantics: a demotion orphan re-creates exactly one link."""
        ov, join, maint = system
        leaves = [join.join(1.0, 5.0, 50.0) for _ in range(3)]
        for leaf in leaves:
            for sid in list(leaf.super_neighbors):
                ov.disconnect(leaf.pid, sid)
        report = maint.reconnect_orphans([l.pid for l in leaves])
        assert report.leaf_reconnections == 3
        for leaf in leaves:
            assert len(leaf.super_neighbors) == 1

    def test_reconnect_orphans_skips_dead_and_promoted(self, system):
        ov, join, maint = system
        leaf = join.join(1.0, 5.0, 50.0)
        dead = join.join(1.0, 5.0, 50.0)
        ov.remove_peer(dead.pid)
        ov.promote(leaf.pid)
        report = maint.reconnect_orphans([leaf.pid, dead.pid])
        assert report.leaf_reconnections == 0

    def test_reconnect_orphan_already_at_m_is_noop(self, system):
        ov, join, maint = system
        leaf = join.join(1.0, 5.0, 50.0)
        report = maint.reconnect_orphans([leaf.pid])
        assert report.leaf_reconnections == 0


class TestSuperRepair:
    def test_ensure_super_links_tops_up_to_ks(self, system):
        ov, join, maint = system
        sup = join.join(1.0, 10.0, 50.0, role=Role.SUPER)
        for sid in list(sup.super_neighbors):
            ov.disconnect(sup.pid, sid)
        added = maint.ensure_super_links(sup.pid)
        assert added == 3
        assert len(sup.super_neighbors) == 3

    def test_ensure_super_links_on_leaf_is_noop(self, system):
        ov, join, maint = system
        leaf = join.join(1.0, 5.0, 50.0)
        assert maint.ensure_super_links(leaf.pid) == 0

    def test_repair_backbone(self, system):
        ov, join, maint = system
        victim = join.join(1.0, 10.0, 50.0, role=Role.SUPER)
        partners = list(victim.super_neighbors)
        orphans, former = ov.remove_peer(victim.pid)
        report = maint.repair_backbone(former)
        for sid in partners:
            assert len(ov.peer(sid).super_neighbors) >= 1


class TestCompositeEvents:
    def test_after_super_death_repairs_orphans_and_backbone(self, system):
        ov, join, maint = system
        sup = join.join(1.0, 10.0, 50.0, role=Role.SUPER)
        leaf = join.join(1.0, 5.0, 50.0)
        # force the leaf onto this super exclusively
        for sid in list(leaf.super_neighbors):
            ov.disconnect(leaf.pid, sid)
        ov.connect(leaf.pid, sup.pid)
        orphans, former = ov.remove_peer(sup.pid)
        report = maint.after_super_death(orphans, former)
        assert report.leaf_reconnections == 1
        assert len(leaf.super_neighbors) == 1

    def test_after_demotion_reconnects_orphans_and_topups_demoted(self, system):
        ov, join, maint = system
        sup = join.join(1.0, 10.0, 50.0, role=Role.SUPER)
        leaves = [join.join(1.0, 5.0, 50.0) for _ in range(2)]
        for leaf in leaves:
            ov.connect(leaf.pid, sup.pid)
        orphans = ov.demote(sup.pid, 2, np.random.default_rng(0))
        report = maint.after_demotion(sup.pid, orphans)
        ov.check_invariants()
        demoted = ov.peer(sup.pid)
        assert demoted.is_leaf and len(demoted.super_neighbors) == 2
        for lid in orphans:
            assert len(ov.peer(lid).super_neighbors) >= 2

    def test_after_promotion_fills_backbone(self, system):
        ov, join, maint = system
        leaf = join.join(1.0, 5.0, 50.0)
        ov.promote(leaf.pid)
        maint.after_promotion(leaf.pid)
        assert len(ov.peer(leaf.pid).super_neighbors) >= 3


class TestSweep:
    def test_sweep_repairs_everything(self, system):
        ov, join, maint = system
        leaf = join.join(1.0, 5.0, 50.0)
        for sid in list(leaf.super_neighbors):
            ov.disconnect(leaf.pid, sid)
        report = maint.sweep()
        assert report.leaf_reconnections >= 2
        assert len(leaf.super_neighbors) == 2
        ov.check_invariants()

    def test_sweep_idempotent_on_healthy_overlay(self, system):
        ov, join, maint = system
        for _ in range(4):
            join.join(1.0, 5.0, 50.0)
        maint.sweep()
        second = maint.sweep()
        assert second.leaf_reconnections == 0


    def test_cold_start_sweep_never_calls_the_sampler(self, monkeypatch):
        """One super, m = 2: every leaf is below target but already linked
        to every super that exists, so the sweep has nothing to try."""
        ov = Overlay()
        join = JoinProcedure(ov, m=2, rng=np.random.default_rng(1), k_s=3)
        maint = Maintenance(ov, join, m=2, k_s=3)
        for _ in range(51):
            join.join(0.0, 10.0, 50.0)
        assert (ov.n_super, ov.n_leaf) == (1, 50)
        asked = []
        sampler = Overlay.random_supers
        monkeypatch.setattr(
            Overlay,
            "random_supers",
            lambda self, rng, k, exclude: asked.append(k)
            or sampler(self, rng, k, exclude),
        )
        before = join.rng.bit_generator.state
        report = maint.sweep()
        # Only the lone super's (forced-empty) attempt at k_s backbone
        # links; the full scan also asked once per leaf.
        assert asked == [3]
        assert (report.leaf_reconnections, report.super_reconnections) == (0, 0)
        assert join.rng.bit_generator.state == before

    def test_sweep_repairs_in_registry_order(self, system):
        ov, join, maint = system
        leaves = [join.join(1.0, 5.0, 50.0).pid for _ in range(8)]
        # Swap-remove scrambles the registry: its order is neither pid
        # nor slot order any more.
        ov.remove_peer(leaves[0])
        ov.remove_peer(leaves[2])
        short = [leaves[5], leaves[1], leaves[7]]
        for pid in short:
            ov.disconnect(pid, ov.peer(pid).super_neighbors[0])
        repaired = []
        ov.add_connection_listener(lambda a, b: repaired.append(a))
        report = maint.sweep()
        assert repaired == [pid for pid in ov.leaf_ids if pid in short]
        assert repaired != sorted(repaired)
        assert report.leaf_reconnections == 3
        ov.check_invariants(aggregates=True)


class TestPassesDrawOnce:
    """A repair pass is the per-orphan loop replayed from one draw per
    chunk (``tests/overlay/reference_sweep.py`` is that loop)."""

    @staticmethod
    def twins(n_supers=40, n_leaves=600):
        out = []
        for _ in range(2):
            ov = Overlay()
            join = JoinProcedure(ov, m=2, rng=np.random.default_rng(1), k_s=3)
            maint = Maintenance(ov, join, m=2, k_s=3)
            for _ in range(n_supers):
                join.join(0.0, 10.0, 50.0, role=Role.SUPER)
            leaves = [join.join(1.0, 5.0, 50.0).pid for _ in range(n_leaves)]
            for pid in leaves:
                ov.disconnect(pid, ov.peer(pid).super_neighbors[0])
            links = []
            ov.add_connection_listener(lambda a, b, links=links: links.append((a, b)))
            out.append((ov, join, maint, leaves, links))
        return out

    def test_a_pass_longer_than_a_chunk_with_a_repeated_pid(self, monkeypatch):
        (ov, join, maint, leaves, links), (_, rjoin, rmaint, _, rlinks) = self.twins()
        # 600 orphans over 256-pid chunks; the eighth comes round again
        # while it still wants a link (m = 2 and both were dropped), and
        # once more when it no longer does.
        ov.disconnect(leaves[7], ov.peer(leaves[7]).super_neighbors[0])
        rov = rmaint.overlay
        rov.disconnect(leaves[7], rov.peer(leaves[7]).super_neighbors[0])
        orphans = leaves[:100] + [leaves[7]] + leaves[100:] + [leaves[7], 10**9]
        plans = []
        planned = Overlay.connect_leaves
        monkeypatch.setattr(
            Overlay,
            "connect_leaves",
            lambda self, rng, reqs: plans.append(len(reqs)) or planned(self, rng, reqs),
        )
        report = maint.reconnect_orphans(orphans)
        assert report == reference_reconnect_orphans(rmaint, orphans)
        assert report.leaf_reconnections == 601
        assert plans == [100, 256, 245]  # a new chunk at the repeat, then full ones
        assert links == rlinks
        assert join.rng.bit_generator.state == rjoin.rng.bit_generator.state
        ov.check_invariants(aggregates=True)

    def test_a_listener_that_changes_roles_mid_pass_fails_loudly(self):
        (ov, join, maint, leaves, links), _ = self.twins(n_supers=6, n_leaves=10)
        bystander = join.join(2.0, 5.0, 50.0).pid
        del links[:]
        promoted = []

        def promote_once(a, b):
            if not promoted:
                promoted.append(bystander)
                ov.promote(bystander)

        ov.add_connection_listener(promote_once)
        with pytest.raises(OverlayError, match="super layer changed"):
            maint.reconnect_orphans(leaves)
        assert promoted and len(links) == 10  # the planned chunk, then the check

    def test_links_each_above_the_deficit_is_capped(self):
        (ov, join, maint, leaves, links), (_, rjoin, rmaint, _, rlinks) = self.twins(8, 20)
        assert maint.reconnect_orphans(leaves, links_each=3) == (
            reference_reconnect_orphans(rmaint, leaves, links_each=3)
        )
        assert links == rlinks and len(links) == 20
        assert join.rng.bit_generator.state == rjoin.rng.bit_generator.state


class TestRepairReport:
    def test_merge_accumulates(self):
        a = RepairReport(leaf_reconnections=1, super_reconnections=2)
        b = RepairReport(leaf_reconnections=3, super_reconnections=4)
        a.merge(b)
        assert (a.leaf_reconnections, a.super_reconnections) == (4, 6)
