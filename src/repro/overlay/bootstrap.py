"""Bootstrap and join procedures.

New peers "randomly select active peers as neighbors based on the
bootstrapping and joining mechanisms currently used" (paper §3), and under
DLM "the new peer is always assigned to leaf layer first" (§5).  The only
exception is the cold start: while the network has no super-peers at all,
joiners seed the super-layer directly so that subsequent leaves have
somewhere to attach.

*What* links a joiner creates is the bound
:class:`~repro.overlay.family.OverlayFamily`'s decision (random backbone
picks for the superpeer family, ring insertion for Chord); this module
owns the family-agnostic parts -- pid allocation, cold-start seeding,
and the random leaf->super selection helper every family's leaf tier
shares.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .family import OverlayFamily
from .peer import Peer
from .roles import Role
from .topology import Overlay, OverlayError

__all__ = ["JoinProcedure"]


class JoinProcedure:
    """Creates peers and wires them into the overlay.

    Parameters
    ----------
    overlay:
        The overlay to mutate.
    m:
        Number of super-peer links a joining leaf establishes (Table 2:
        ``m = 2``).
    rng:
        Stream for random neighbor selection.
    seed_supers:
        Cold-start threshold: while ``n_super < seed_supers`` joiners
        become super-peers directly (default 1 -- only the very first
        peer).
    family:
        The :class:`~repro.overlay.family.OverlayFamily` owning
        structure-specific attachment (default: a fresh superpeer
        family).  The join procedure is the family's single wiring
        point: it binds the family to this overlay/rng/degree set.
    """

    def __init__(
        self,
        overlay: Overlay,
        m: int,
        rng: np.random.Generator,
        *,
        k_s: int = 3,
        seed_supers: int = 1,
        family: Optional[OverlayFamily] = None,
    ) -> None:
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        if k_s < 1:
            raise ValueError(f"k_s must be >= 1, got {k_s}")
        self.overlay = overlay
        self.m = m
        self.k_s = k_s
        self.rng = rng
        self.seed_supers = seed_supers
        self._next_id = 0
        if family is None:
            from .families.superpeer import SuperPeerFamily

            family = SuperPeerFamily()
        self.family = family
        family.wire(overlay=overlay, join=self, m=m, k_s=k_s)

    def next_pid(self) -> int:
        """Allocate a fresh peer id."""
        pid = self._next_id
        self._next_id = pid + 1
        return pid

    def snapshot(self) -> dict:
        """The id-allocation watermark (pids are never reused)."""
        return {"next_pid": self._next_id}

    def restore(self, state: dict) -> None:
        """Resume id allocation where the snapshot left off."""
        self._next_id = state["next_pid"]

    def join(
        self,
        now: float,
        capacity: float,
        lifetime: float,
        *,
        pid: Optional[int] = None,
        role: Optional[Role] = None,
        eligible: bool = True,
    ) -> Peer:
        """Create a peer at time ``now`` and connect it.

        ``role`` lets a layer policy choose the join layer (DLM always
        joins peers as leaves; the preconfigured baseline admits
        over-threshold peers straight into the super-layer).  With
        ``role=None`` the peer joins as a leaf, except during cold start
        (see ``seed_supers``) when it seeds the super-layer.

        Attachment is the bound family's: under the superpeer family a
        joining leaf makes ``m`` connections to random super-peers and a
        joining super makes ``k_s`` backbone connections; the Chord
        family inserts supers into the ring instead.
        """
        if pid is None:
            pid = self.next_pid()
        if role is None:
            cold_start = self.overlay.n_super < self.seed_supers
            role = Role.SUPER if cold_start else Role.LEAF
        peer = self.overlay.add_peer(
            pid, role, capacity, now, lifetime, eligible=eligible
        )
        if role is Role.SUPER:
            self.family.attach_super(pid)
        else:
            self.family.attach_leaf(pid)
        return peer

    def connect_leaf(self, pid: int, want: int) -> List[int]:
        """Give leaf ``pid`` up to ``want`` additional random super links.

        Used both at join time (``want = m``) and when maintenance
        restores links lost to super-peer deaths/demotions.  Returns the
        super-peers actually connected.
        """
        overlay = self.overlay
        if pid not in overlay.leaf_ids._index:
            raise OverlayError(f"connect_leaf: pid {pid} is not a leaf here")
        store = overlay.store
        # Column-direct read: this runs on every join and every repair,
        # so even resolving the pid to its Peer view is measurable here.
        exclude = set(store.sn[store.slot(pid)])
        exclude.add(pid)
        chosen = overlay.random_supers(self.rng, want, exclude=exclude)
        for sid in chosen:
            overlay.connect(pid, sid)
        return chosen
