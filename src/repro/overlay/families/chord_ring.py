"""Hierarchical Chord ring family: supers form a sorted ring.

Maps the "Three Layer Hierarchical Model for Chord" construction
(PAPERS.md) onto the DLM election core: the super-layer is a Chord ring
over a 64-bit identifier space, leaves hang off the ring exactly as in
the superpeer family (``m`` random super links), and promotion/demotion
insert into / heal the ring instead of making random backbone links.

Identifier scheme
-----------------
A peer's ring key is a deterministic splitmix64 hash of its pid
(:func:`ring_key`) -- no RNG stream is consumed, so enabling the family
never perturbs the sample paths of the shared planes (churn, DLM,
queries).  Objects hash into the same space; the super whose arc covers
a key owns it.

State & exactness contract
--------------------------
The family keeps the authoritative ring as a sorted ``(key, pid)`` list
mirrored from the overlay's membership/role event streams, and writes
two :class:`~repro.overlay.peerstore.PeerStore` columns:

* ``ring_succ`` -- the ring successor pid, **exact after every
  operation** (join, leave, promote, demote);
* ``fg`` -- the finger pids, computed at ring entry and refreshed by
  the maintenance sweep (Chord's ``fix_fingers``), so between sweeps
  they may lag churn -- exactly like real Chord, where stale fingers
  cost extra routing hops but never correctness (the exact successor
  chain is the fallback).

Listeners only write columns and the ring list; actual *link* mutations
(connect/disconnect) happen in the repair hooks the maintenance plane
drives, so link events keep firing at the same well-defined points as
in the superpeer family and every family-agnostic derived plane
(aggregates, content directory, DLM's event-driven exchange) just
works.  Backbone links mirror the ring structure: each super links to
its successor and its fingers; stabilization prunes super--super links
no longer justified by either endpoint's ring state.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import List, Tuple

from ..family import OverlayFamily, _ordered_unique, register_family
from ..peer import Peer
from ..peerstore import ROLE_SUPER
from ..roles import Role

__all__ = ["ChordRingFamily", "ring_key", "RING_BITS"]

#: Width of the ring identifier space.
RING_BITS = 64
_MASK = (1 << RING_BITS) - 1


def ring_key(ident: int) -> int:
    """Deterministic 64-bit ring key of a pid or object id (splitmix64).

    Pure arithmetic -- consuming no RNG stream keeps the family's key
    placement out of every other plane's sample path.
    """
    z = (ident + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


@register_family("chord")
class ChordRingFamily(OverlayFamily):
    """Supers in a Chord ring; leaves attach with ``m`` random links."""

    name = "chord"

    def __init__(self) -> None:
        super().__init__()
        #: Authoritative ring: sorted (key, pid), mirrored from overlay
        #: membership/role events.
        self._ring: List[Tuple[int, int]] = []
        #: Predecessors of departed ring members, awaiting stabilization
        #: (drained by :meth:`heal_ring`).
        self._heal: List[int] = []

    def _install(self) -> None:
        self.overlay.add_membership_listener(self._on_membership)
        self.overlay.add_role_listener(self._on_role)

    # -- ring bookkeeping (columns + sorted list; no link mutations) -----
    def ring_size(self) -> int:
        """Number of supers currently on the ring."""
        return len(self._ring)

    def ring_members(self) -> List[int]:
        """The ring members in key order (successor order)."""
        return [pid for _k, pid in self._ring]

    def _succ_of_key(self, key: int) -> int:
        """The ring member owning ``key`` (its successor on the ring)."""
        ring = self._ring
        i = bisect_left(ring, (key, -1))
        if i == len(ring):
            i = 0
        return ring[i][1]

    def ring_owner(self, key: int) -> int:
        """Public alias: the super responsible for ``key``."""
        if not self._ring:
            raise LookupError("ring is empty")
        return self._succ_of_key(key)

    def _ideal_fingers(self, pid: int, key: int) -> tuple:
        """Chord finger table: successor of ``key + 2^i`` per bit.

        Deduped in bit order; excludes the node itself and its direct
        successor (which has its own column and link).
        """
        ring = self._ring
        if len(ring) <= 2:
            return ()
        succ = self._succ_of_key((key + 1) & _MASK)
        owners = [
            self._succ_of_key((key + (1 << i)) & _MASK) for i in range(1, RING_BITS)
        ]
        return tuple(x for x in _ordered_unique(owners) if x != pid and x != succ)

    def _ring_insert(self, pid: int) -> None:
        store = self.overlay.store
        entry = (ring_key(pid), pid)
        insort(self._ring, entry)
        ring = self._ring
        n = len(ring)
        i = bisect_left(ring, entry)
        succ = ring[(i + 1) % n][1]
        pred = ring[(i - 1) % n][1]
        store.ring_succ[store.slot(pid)] = succ
        store.ring_succ[store.slot(pred)] = pid
        store.fg[store.slot(pid)] = self._ideal_fingers(pid, entry[0])

    def _ring_remove(self, pid: int) -> None:
        ring = self._ring
        entry = (ring_key(pid), pid)
        i = bisect_left(ring, entry)
        if i >= len(ring) or ring[i] != entry:  # pragma: no cover - defensive
            return
        del ring[i]
        if ring:
            store = self.overlay.store
            n = len(ring)
            pred = ring[(i - 1) % n][1]
            store.ring_succ[store.slot(pred)] = ring[i % n][1]
            self._heal.append(pred)
            # Drop the departed pid from every member's finger column so
            # fingers always point on-ring (the router never chases a
            # dead pid); the sweep recomputes ideal tables later.
            for _k, mid in ring:
                mslot = store.slot(mid)
                fg = store.fg[mslot]
                if pid in fg:
                    store.fg[mslot] = tuple(x for x in fg if x != pid)

    def _on_membership(self, peer: Peer, joined: bool) -> None:
        if peer.is_super:
            if joined:
                self._ring_insert(peer.pid)
            else:
                self._ring_remove(peer.pid)

    def _on_role(self, peer: Peer, old_role: Role) -> None:
        if old_role is Role.LEAF:
            self._ring_insert(peer.pid)
        else:
            self._ring_remove(peer.pid)
            # The demoted peer keeps its row; clear its ring columns.
            store = self.overlay.store
            slot = store.slot(peer.pid)
            store.ring_succ[slot] = -1
            store.fg[slot] = ()

    # -- bootstrap attachment --------------------------------------------
    def attach_super(self, pid: int) -> None:
        """Link a ring entrant to its successor/predecessor and fingers.

        The membership/role listener has already placed ``pid`` on the
        ring (columns included); this creates the physical links.
        """
        self._connect_ring_links(pid)

    def attach_leaf(self, pid: int) -> None:
        """Leaves attach exactly as in the superpeer family."""
        self.join.connect_leaf(pid, self.m)

    def _connect_ring_links(self, pid: int) -> int:
        overlay = self.overlay
        store = overlay.store
        slot = store.slot(pid)
        added = 0
        succ = store.ring_succ[slot]
        if succ != pid and succ >= 0:
            if overlay.connect(pid, succ):
                added += 1
        # The predecessor's succ column already points at pid; creating
        # the link from this side saves it a stabilization round.
        ring = self._ring
        n = len(ring)
        if n > 1:
            i = bisect_left(ring, (ring_key(pid), pid))
            pred = ring[(i - 1) % n][1]
            if pred != pid and overlay.connect(pid, pred):
                added += 1
        for fid in store.fg[slot]:
            if fid != pid and overlay.connect(pid, fid):
                added += 1
        return added

    # -- maintenance repair (Chord stabilization) -------------------------
    def repair_super(self, pid: int) -> int:
        """Stabilize one ring member: refresh successor and fingers from
        the authoritative ring, create any missing structural links, and
        prune super--super links neither endpoint's ring state justifies.

        Returns links added (0 if the peer is gone or not a super).
        """
        overlay = self.overlay
        store = overlay.store
        slot = store.slot(pid)
        if slot < 0 or store.role[slot] != ROLE_SUPER:
            return 0
        ring = self._ring
        n = len(ring)
        key = ring_key(pid)
        i = bisect_left(ring, (key, pid))
        if i >= n or ring[i][1] != pid:  # pragma: no cover - defensive
            return 0
        store.ring_succ[slot] = ring[(i + 1) % n][1]
        store.fg[slot] = self._ideal_fingers(pid, key)
        added = self._connect_ring_links(pid)
        # Prune: a backbone link survives iff it is a successor or finger
        # link *from either endpoint's perspective* (the neighbor's
        # columns may be one sweep stale; its own stabilization will
        # re-add anything pruned prematurely).
        my_succ = store.ring_succ[slot]
        my_fg = store.fg[slot]
        for sid in list(store.sn[slot]):
            if sid == my_succ or sid in my_fg:
                continue
            oslot = store.slot(sid)
            if oslot < 0:  # pragma: no cover - defensive
                continue
            if store.ring_succ[oslot] == pid or pid in store.fg[oslot]:
                continue
            overlay.disconnect(pid, sid)
        return added

    def connect_promoted(self, pid: int) -> int:
        """A promoted peer enters the ring: full stabilization (link the
        successor/fingers; its leaf-era random links get pruned)."""
        return self.repair_super(pid)

    def heal_ring(self) -> int:
        """Stabilize predecessors of departed ring members.

        Gives the ring its succession-exactness back immediately after a
        death or demotion instead of waiting for the next sweep.
        """
        added = 0
        while self._heal:
            added += self.repair_super(self._heal.pop())
        return added

    # -- query routing ----------------------------------------------------
    def build_router(self, directory, search_config, *, ledger=None):
        """Greedy key-routing over the ring (successor + fingers)."""
        from ...search.ring import RingRouter

        return RingRouter(self.overlay, directory, self, ledger=ledger)

    # -- invariants --------------------------------------------------------
    def check_invariants(self) -> None:
        """Ring membership and successor columns must match the overlay.

        * ring == super-layer, sorted by (key, pid);
        * every ``ring_succ`` column equals the ring successor;
        * leaves carry no ring state.
        """
        overlay = self.overlay
        store = overlay.store
        ring = self._ring
        members = {pid for _k, pid in ring}
        supers = set(overlay.super_ids)
        if members != supers:
            raise AssertionError(
                f"ring/super-layer mismatch: {members ^ supers} differ"
            )
        if ring != sorted(ring):
            raise AssertionError("ring list is not sorted")
        for j, (k, pid) in enumerate(ring):
            if ring_key(pid) != k:
                raise AssertionError(f"stale ring key for pid {pid}")
            slot = store.slot(pid)
            want = ring[(j + 1) % len(ring)][1]
            have = store.ring_succ[slot]
            if have != want:
                raise AssertionError(
                    f"ring_succ drift for pid {pid}: {have} != {want}"
                )
            for fid in store.fg[slot]:
                if fid not in members:
                    raise AssertionError(
                        f"finger of pid {pid} points off-ring: {fid}"
                    )
        for pid in overlay.leaf_ids:
            slot = store.slot(pid)
            if store.ring_succ[slot] != -1 or store.fg[slot]:
                raise AssertionError(f"leaf {pid} carries ring state")

    # -- graph export ------------------------------------------------------
    def annotate_graph(self, g) -> None:
        """Ring layout + link classification for the networkx export.

        Nodes gain ``ring_key`` (supers) and ``pos`` on the unit circle
        by key angle; successor/finger backbone edges gain a ``ring``
        attribute so promotion-audit renderings can draw the ring.
        """
        import math

        store = self.overlay.store
        for _k, pid in self._ring:
            angle = 2.0 * math.pi * (_k / float(1 << RING_BITS))
            g.nodes[pid]["ring_key"] = _k
            g.nodes[pid]["pos"] = (math.cos(angle), math.sin(angle))
            slot = store.slot(pid)
            succ = store.ring_succ[slot]
            if succ != pid and g.has_edge(pid, succ):
                g.edges[pid, succ]["ring"] = "successor"
            for fid in store.fg[slot]:
                if g.has_edge(pid, fid) and "ring" not in g.edges[pid, fid]:
                    g.edges[pid, fid]["ring"] = "finger"

    # -- checkpointing -----------------------------------------------------
    def snapshot(self) -> dict:
        """Ring-derived state that is *not* a pure function of topology.

        The ring order and the successor columns are fully derivable
        from the restored super-layer (keys are deterministic), but the
        finger columns are history -- refreshed by sweeps, stale in
        between -- and the heal backlog is pending work; both must ride
        the checkpoint for bit-identical resume.
        """
        store = self.overlay.store
        return {
            "fingers": [
                (pid, store.fg[store.slot(pid)]) for _k, pid in self._ring
            ],
            "heal": list(self._heal),
        }

    def restore(self, state: dict) -> None:
        """Rebuild the ring from the restored overlay, then overlay the
        checkpointed finger tables and heal backlog."""
        overlay = self.overlay
        store = overlay.store
        self._ring = sorted((ring_key(pid), pid) for pid in overlay.super_ids)
        ring = self._ring
        n = len(ring)
        for j, (_k, pid) in enumerate(ring):
            store.ring_succ[store.slot(pid)] = ring[(j + 1) % n][1]
        for pid, fingers in state["fingers"]:
            slot = store.slot(pid)
            if slot >= 0:
                store.fg[slot] = tuple(fingers)
        self._heal = list(state["heal"])
