"""Bootstrap and join procedures.

New peers "randomly select active peers as neighbors based on the
bootstrapping and joining mechanisms currently used" (paper §3), and under
DLM "the new peer is always assigned to leaf layer first" (§5).  The only
exception is the cold start: while the network has no super-peers at all,
joiners seed the super-layer directly so that subsequent leaves have
somewhere to attach.

A joining super makes ``k_s`` random backbone links and a joining leaf
``m`` random super links, every pick drawn from the ``"bootstrap"``
stream in join order.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

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
    """

    def __init__(
        self,
        overlay: Overlay,
        m: int,
        rng: np.random.Generator,
        *,
        k_s: int = 3,
        seed_supers: int = 1,
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

        A joining leaf makes ``m`` connections to random super-peers and
        a joining super makes ``k_s`` backbone connections.
        """
        overlay = self.overlay
        if pid is None:
            pid = self._next_id
            self._next_id = pid + 1
        # One `Role.X` read here, one in `add_peer`: ~0.16 µs each on 3.11.
        if role is None:
            leaf = len(overlay.super_ids._items) >= self.seed_supers
            role = Role.LEAF if leaf else Role.SUPER
        else:
            leaf = role is Role.LEAF or Role(role) is Role.LEAF
        peer = overlay.add_peer(pid, role, capacity, now, lifetime, eligible=eligible)
        if leaf:
            self.connect_leaf(pid, self.m)
        else:
            for sid in overlay.random_supers(self.rng, self.k_s, exclude=(pid,)):
                overlay.connect(pid, sid)
        return peer

    def connect_leaf(self, pid: int, want: int) -> List[int]:
        """Give leaf ``pid`` up to ``want`` additional random super links.

        Used both at join time (``want = m``) and when maintenance
        restores links lost to super-peer deaths/demotions.  Returns the
        super-peers picked.  The draw is ``Overlay.random_supers``' own
        (:meth:`IndexedSet._fresh`) and the links go in one
        ``Overlay.link_leaf`` frame; ``tests/overlay/reference_join.py``
        is the same chain with a ``connect`` per pick.
        """
        overlay = self.overlay
        if pid not in overlay.leaf_ids._index:
            raise OverlayError(f"connect_leaf: pid {pid} is not a leaf here")
        if want <= 0:
            return []
        # Column-direct read: this runs on every join and every repair.
        seen = {pid, *overlay.store.sn[overlay._peers[pid]._slot]}
        chosen = overlay.super_ids._fresh(self.rng, want, seen, 16 * want)
        overlay.link_leaf(pid, chosen)
        return chosen
