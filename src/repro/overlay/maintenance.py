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
a slice (DESIGN.md §8 "Draw by the block, charge by the count").
Super-side repair is structure-specific and delegates to
the bound :class:`~repro.overlay.family.OverlayFamily`: the superpeer
family tops backbone degree back up with random picks, the Chord family
stabilizes ring successors/fingers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from .bootstrap import JoinProcedure
from .family import OverlayFamily
from .peerstore import ROLE_LEAF
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
        family: Optional[OverlayFamily] = None,
    ) -> None:
        self.overlay = overlay
        self.join = join
        self.m = m
        self.k_s = k_s
        #: Structure-specific super-side repair (default: the family the
        #: join procedure is already bound to).
        self.family = family if family is not None else join.family

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
        store = self.overlay.store
        report = RepairReport()
        for pid in orphans:
            if pid in leaves:
                want = min(links_each, self.m - store.n_super_links[store.slot(pid)])
                if want > 0:
                    report.leaf_reconnections += len(self.join.connect_leaf(pid, want))
        return report

    # -- super side --------------------------------------------------------
    def ensure_super_links(self, pid: int) -> int:
        """Restore a super's structural links; returns links added.

        Family-delegated: degree top-up for the superpeer family, ring
        stabilization for Chord.  Safe to call on a departed or demoted
        pid (returns 0).
        """
        return self.family.repair_super(pid)

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
        report.merge(self.repair_backbone(former_supers))
        report.super_reconnections += self.family.heal_ring()
        return report

    def after_demotion(self, demoted: int, orphans: List[int]) -> RepairReport:
        """Repairs after a demotion (Figure 3): orphans reconnect once each;
        the demoted peer itself is topped up to ``m`` super links; ring
        families additionally heal the vacated ring position."""
        report = self.reconnect_orphans(orphans)
        self.ensure_leaf_links(demoted)
        report.super_reconnections += self.family.heal_ring()
        return report

    def after_promotion(self, promoted: int) -> RepairReport:
        """Repairs after a promotion (Figure 2): the new super-peer is
        wired into the super-layer structure (backbone degree fill for
        the superpeer family; ring links for Chord)."""
        report = RepairReport()
        report.super_reconnections += self.family.connect_promoted(promoted)
        return report

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
