"""Greedy key-routing over the hierarchical Chord super-layer ring.

The Chord family's counterpart to :class:`~repro.search.flooding.
FloodRouter`: instead of flooding the backbone, a query routes greedily
toward the super-peer whose ring arc covers ``ring_key(obj)`` -- each
hop jumps to the neighbor (successor or finger) clockwise-closest to the
target without passing it, the classic ``closest_preceding_node`` walk,
so lookups take O(log n) backbone hops instead of O(ttl-ball) messages.

Content placement follows the idealized-DHT convention of the
hierarchical-Chord literature: every shared object is *published* to the
super owning its key, so the owner's provider record lists all live
copies network-wide.  Publication traffic is not charged (the provider
registry updates instantly on join/leave); only the lookup path and the
responses riding back along it are, which keeps the per-query message
accounting comparable with flooding's.

On the way to the owner each visited super also checks its own files and
leaf index (the directory every family maintains), so popular objects
resolve opportunistically before the owner is reached -- the hierarchy's
leaf indexes matter under ring routing exactly as they do under
flooding.

Outcomes are :class:`~repro.search.flooding.QueryOutcome` instances, so
:class:`~repro.search.stats.QueryStats` and every figure harness consume
ring-routed queries unchanged.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Optional, Tuple

from ..overlay.families.chord_ring import RING_BITS, ChordRingFamily, ring_key
from ..overlay.peer import Peer
from ..overlay.peerstore import ROLE_SUPER
from ..overlay.topology import Overlay
from ..protocol.accounting import MessageLedger
from ..protocol.messages import QueryHitMessage, QueryMessage
from .flooding import QueryOutcome
from .index import ContentDirectory

__all__ = ["RingRouter"]

_MASK = (1 << RING_BITS) - 1

#: Routing-failure guard; greedy Chord routing needs O(log n) hops, so
#: anything approaching this bound means the ring is broken, not big.
_MAX_HOPS = 128


class RingRouter:
    """Routes queries to the ring owner of the object's key."""

    def __init__(
        self,
        overlay: Overlay,
        directory: ContentDirectory,
        family: ChordRingFamily,
        *,
        ledger: Optional[MessageLedger] = None,
    ) -> None:
        self.overlay = overlay
        self.directory = directory
        self.family = family
        self.ledger = ledger
        # The idealized DHT provider registry: obj -> live copy count.
        # Mirrored from membership events with a private copy of each
        # peer's file set -- the directory pops a leaver's files before
        # later-registered listeners (us) run, so decrements need it.
        self._providers: Counter = Counter()
        self._by_peer: Dict[int, Tuple[int, ...]] = {}
        overlay.add_membership_listener(self._on_membership)

    # -- provider registry maintenance ------------------------------------
    def _on_membership(self, peer: Peer, joined: bool) -> None:
        if joined:
            files = self.directory.files(peer.pid)
            self._by_peer[peer.pid] = files
            providers = self._providers
            for obj in files:
                providers[obj] += 1
        else:
            providers = self._providers
            for obj in self._by_peer.pop(peer.pid, ()):
                cnt = providers[obj] - 1
                if cnt > 0:
                    providers[obj] = cnt
                else:
                    del providers[obj]

    def resync(self) -> None:
        """Rebuild the provider registry from the directory's file table.

        Checkpoint restore loads state without firing membership events;
        the directory's restored table is exactly the live-peer file
        map, so re-deriving from it is exact.
        """
        files_map, _ = self.directory.hit_tables()
        self._by_peer = dict(files_map)
        providers: Counter = Counter()
        for files in self._by_peer.values():
            for obj in files:
                providers[obj] += 1
        self._providers = providers

    # -- routing -----------------------------------------------------------
    def query(self, source: int, obj: int) -> QueryOutcome:
        """Route one query for ``obj`` from ``source`` to the key owner.

        A leaf source hands the query to the super neighbor clockwise-
        closest to the target (one message); each greedy hop is one
        message.  A hit -- opportunistic at a visited super's index, or
        the provider record at the owner -- routes responses back along
        the query path, one message per hop, matching flooding's
        QueryHit accounting.
        """
        directory = self.directory
        if obj in directory.files(source):
            # Local storage satisfies the query without any traffic.
            return QueryOutcome(
                obj=obj,
                source=source,
                found=True,
                hits=1,
                supers_visited=0,
                query_messages=0,
                hit_messages=0,
                first_hit_hops=0,
            )

        family = self.family
        peer = self.overlay.peer(source)
        store = self.overlay.store
        target = ring_key(obj)
        query_messages = 0

        if family.ring_size() == 0:
            return self._finish(obj, source, 0, 0, 0, 0, None)
        owner = family.ring_owner(target)

        if peer.is_super:
            cur = source
            depth = 0
        else:
            # Enter the ring at the super neighbor clockwise-closest to
            # the target (deterministic; ties break on sn order).
            entry = -1
            best_d = None
            for sid in store.sn[store.slot(source)]:
                d = (target - ring_key(sid)) & _MASK
                if best_d is None or d < best_d:
                    entry, best_d = sid, d
            if entry < 0:
                # Orphaned leaf: nowhere to submit the query.
                return self._finish(obj, source, 0, 0, 0, 0, None)
            query_messages += 1
            cur = entry
            depth = 1

        files_map, index_map = directory.hit_tables()
        files_get = files_map.get
        index_get = index_map.get
        visited = 0
        hits = 0
        hit_messages = 0
        first_hit_hops: Optional[int] = None
        hops = 0
        while True:
            visited += 1
            # Opportunistic check of the visited super's own files and
            # leaf index (inlined ContentDirectory.super_hit).
            own = files_get(cur)
            if own is not None and obj in own:
                hit = True
            else:
                idx = index_get(cur)
                hit = idx is not None and idx.get(obj, 0) > 0
            if hit:
                hits = 1
                hit_messages = depth
                first_hit_hops = depth
                break
            if cur == owner:
                # The owner's provider record lists every live copy.
                hits = self._providers.get(obj, 0)
                if hits > 0:
                    hit_messages = depth
                    first_hit_hops = depth
                break
            if hops >= _MAX_HOPS:  # pragma: no cover - broken-ring guard
                break
            slot = store.slot(cur)
            succ = store.ring_succ[slot]
            d_cur = (target - ring_key(cur)) & _MASK
            # closest_preceding_node: the candidate clockwise-closest to
            # the target without passing it; the exact successor is the
            # fallback (if nothing precedes the target, owner == succ).
            nxt = succ
            best_d = None
            for cand in (succ, *store.fg[slot]):
                cslot = store.slot(cand)
                if cslot < 0 or store.role[cslot] != ROLE_SUPER:
                    continue  # pragma: no cover - fingers stay on-ring
                d = (target - ring_key(cand)) & _MASK
                if d < d_cur and (best_d is None or d < best_d):
                    nxt, best_d = cand, d
            query_messages += 1
            cur = nxt
            depth += 1
            hops += 1

        return self._finish(
            obj, source, hits, visited, query_messages, hit_messages, first_hit_hops
        )

    def _finish(
        self,
        obj: int,
        source: int,
        hits: int,
        visited: int,
        query_messages: int,
        hit_messages: int,
        first_hit_hops: Optional[int],
    ) -> QueryOutcome:
        if self.ledger is not None:
            self.ledger.record(QueryMessage, query_messages)
            self.ledger.record(QueryHitMessage, hit_messages)
        return QueryOutcome(
            obj=obj,
            source=source,
            found=hits > 0,
            hits=hits,
            supers_visited=visited,
            query_messages=query_messages,
            hit_messages=hit_messages,
            first_hit_hops=first_hit_hops,
        )
