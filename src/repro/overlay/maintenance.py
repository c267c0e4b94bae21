"""Neighbor maintenance.

Keeps the overlay's degree targets after disruptive events:

* a leaf holds ``m`` links into the super-layer (Table 2: ``m = 2``);
* a super-peer maintains roughly ``k_s`` backbone links (Table 2:
  ``k_s = 3``);
* when a super-peer dies or is demoted, its orphaned leaves reconnect to
  replacement super-peers -- for a demotion each orphan creates exactly
  one new connection, the unit of Peer Adjustment Overhead in §6.

Leaf-side repairs go through :class:`~repro.overlay.bootstrap.
JoinProcedure`'s random selection so repaired links are statistically
indistinguishable from join-time links (the randomness assumption §3
relies on).  A pass over many leaves -- the orphans of a dead or demoted
super, the short leaves a sweep finds -- is one such call per leaf, in
order; the bootstrap stream is read a block ahead, so each call's draw is
a slice (DESIGN.md §8 "Draw by the block").
Super-side repair tops a super's backbone degree back up to ``k_s`` with
random picks from the same stream, so repaired backbone links are as
random as join-time ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

from .bootstrap import JoinProcedure
from .peerstore import ROLE_LEAF, ROLE_SUPER
from .topology import Overlay

__all__ = ["Maintenance", "RepairReport"]


@dataclass(slots=True)
class RepairReport:
    """What a repair pass did (consumed by the overhead ledger)."""

    leaf_reconnections: int = 0
    super_reconnections: int = 0

    def merge(self, other: "RepairReport") -> "RepairReport":
        """Accumulate another report into this one; returns self."""
        self.leaf_reconnections += other.leaf_reconnections
        self.super_reconnections += other.super_reconnections
        return self


class Maintenance:
    """Degree-target repair for the two-layer overlay."""

    def __init__(
        self,
        overlay: Overlay,
        join: JoinProcedure,
        *,
        m: int,
        k_s: int,
    ) -> None:
        self.overlay = overlay
        self.join = join
        self.m = m
        self.k_s = k_s

    # -- leaf side -------------------------------------------------------
    def ensure_leaf_links(self, pid: int) -> int:
        """Top a leaf's super links back up to ``m``; returns links added.

        Safe to call on a departed pid or a super-peer (returns 0,
        draws nothing).
        """
        return self.reconnect_orphans((pid,), links_each=self.m).leaf_reconnections

    def reconnect_orphans(
        self, orphans: Iterable[int], *, links_each: int = 1
    ) -> RepairReport:
        """Reconnect leaves that lost a super-peer.

        ``links_each = 1`` matches the paper's demotion accounting (each
        disconnected leaf makes one new connection); deaths use the same
        single-link repair since only one link was lost.

        Departed pids, supers and leaves at ``m`` are skipped, undrawn.
        """
        leaves = self.overlay.leaf_ids._index
        peers = self.overlay._peers
        n_super_links = self.overlay.store.n_super_links
        report = RepairReport()
        for pid in orphans:
            if pid in leaves:
                want = min(links_each, self.m - n_super_links[peers[pid]._slot])
                if want > 0:
                    report.leaf_reconnections += len(self.join.connect_leaf(pid, want))
        return report

    # -- super side --------------------------------------------------------
    def ensure_super_links(self, pid: int) -> int:
        """Top a super's backbone links back up to ``k_s``; returns links
        added.  Safe to call on a departed or demoted pid (returns 0,
        draws nothing)."""
        overlay = self.overlay
        store = overlay.store
        peer = overlay.get(pid)
        if peer is None or store.role[peer._slot] != ROLE_SUPER:
            return 0
        sn = store.sn[peer._slot]
        deficit = self.k_s - len(sn)
        if deficit <= 0:
            return 0
        exclude = set(sn)
        exclude.add(pid)
        added = 0
        for sid in overlay.random_supers(self.join.rng, deficit, exclude=exclude):
            if overlay.connect(pid, sid):
                added += 1
        return added

    def repair_backbone(self, former_supers: Iterable[int]) -> RepairReport:
        """Restore backbone degree of supers that lost a super neighbor."""
        report = RepairReport()
        for sid in former_supers:
            if sid in self.overlay and self.overlay.peer(sid).is_super:
                report.super_reconnections += self.ensure_super_links(sid)
        return report

    # -- composite events -------------------------------------------------------
    def after_super_death(
        self, orphans: List[int], former_supers: List[int]
    ) -> RepairReport:
        """Repairs after a super-peer leaves the network."""
        report = self.reconnect_orphans(orphans)
        return report.merge(self.repair_backbone(former_supers))

    def after_demotion(self, demoted: int, orphans: List[int]) -> RepairReport:
        """Repairs after a demotion (Figure 3): orphans reconnect once each;
        the demoted peer itself is topped up to ``m`` super links."""
        report = self.reconnect_orphans(orphans)
        self.ensure_leaf_links(demoted)
        return report

    def after_promotion(self, promoted: int) -> RepairReport:
        """Repairs after a promotion (Figure 2): the new super-peer's
        backbone degree is filled to ``k_s``."""
        return RepairReport(super_reconnections=self.ensure_super_links(promoted))

    def sweep(self) -> RepairReport:
        """Top up every peer's degree targets.

        A repair can fail transiently (e.g. orphans of the very last
        super-peer have nothing to reconnect to until the next join seeds
        the layer); the periodic sweep retries those, modeling the
        connection-maintenance loop every real client runs.

        The leaf pass is by exception: a leaf can gain a link iff its
        degree is below ``min(m, n_super)`` (linked to every super, the
        sampler returns ``[]`` undrawn).  One column scan finds those
        rows; visiting them in ``leaf_ids`` registry order makes exactly
        the repairs, in the order, of a walk over every leaf, and the pass
        changes none of the scan's inputs (DESIGN.md §8) -- which is also
        why the rows may be found before one :meth:`reconnect_orphans` pass.
        The super pass stays a walk: one super's repair changes another's
        degree.
        """
        overlay = self.overlay
        store = overlay.store
        live = store.live_slots()
        short = live[
            (store.column("role")[live] == ROLE_LEAF)
            & (store.column("n_super_links")[live] < min(self.m, overlay.n_super))
        ]
        order = overlay.leaf_ids._index.__getitem__
        report = self.reconnect_orphans(
            sorted(store.column("pid")[short].tolist(), key=order), links_each=self.m
        )
        for pid in list(overlay.super_ids):
            report.super_reconnections += self.ensure_super_links(pid)
        return report
