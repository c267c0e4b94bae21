"""TTL-bounded flooding over the super-layer backbone.

The search mechanism of §3: "both super-peers and leaf-peers can submit
queries, but only super-peers relay queries and query responses.  A
super-peer may forward an incoming query to its neighboring super-peers.
When receiving a query, a super-peer first checks if the queried data is
stored in local or in its leaf-peers ... If some results are found in a
peer, it will send a QueryHit message back to the query source along the
inverse query path."

The router is a BFS with per-copy TTL semantics: every transmission of
the query over a backbone link is one ``query`` message (duplicates
included -- floods pay for redundant deliveries); every hit routes one
``query_hit`` back along the inverse path, one message per hop.

Hot-path notes (profiled with ``python -m repro.profile flooding``):

The flood is *level-synchronous*: level ``d`` is the set of supers at
backbone distance ``d`` from the entry points, and every outcome field
is a sum or minimum over levels (``supers_visited = sum |level|``,
``query_messages`` the summed degree of the levels below the TTL,
``hits_d = |level & holders|``, ``hit_messages = sum hits_d * d``,
``first_hit_hops`` the first ``d`` with a hit), independent of the order
supers are expanded within a level.  So a level costs a few C-level set
operations, not one interpreted iteration per super and per link:
``holders`` is the directory's inverted view
(:meth:`ContentDirectory.holders`), adjacency a ``pid -> super_neighbors``
dict of the store's own tuples, rebuilt lazily on the first query after
an event that can change the backbone (super--super link churn, role
changes, super join/leave).  Once every super is seen the flood stops
short of its last expansion, whose copies (counted) are all duplicates.
The per-copy BFS this replaced is the test oracle
(``tests/search/reference_flood.py``); outcomes are bit-identical.

A timed flood (``latency=``) reports the first hit's round trip as the
sum of ``2 * d`` fresh i.i.d. hop draws: ``d`` hops out, ``d`` back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..overlay.peer import Peer
from ..overlay.roles import Role
from ..overlay.topology import Overlay
from ..protocol.accounting import MessageLedger
from ..protocol.latency import LatencyModel
from ..protocol.messages import QueryHitMessage, QueryMessage
from .index import ContentDirectory

__all__ = ["FloodRouter", "QueryOutcome"]


@dataclass(frozen=True, slots=True)
class QueryOutcome:
    """What one query did."""

    obj: int
    source: int
    found: bool
    hits: int
    supers_visited: int
    query_messages: int
    hit_messages: int
    first_hit_hops: Optional[int]
    first_hit_latency: Optional[float] = None

    @property
    def total_messages(self) -> int:
        """Query plus hit messages."""
        return self.query_messages + self.hit_messages


class FloodRouter:
    """Floods queries across the backbone and checks super indexes."""

    def __init__(
        self,
        overlay: Overlay,
        directory: ContentDirectory,
        *,
        ttl: int = 7,
        ledger: Optional[MessageLedger] = None,
        latency: Optional[LatencyModel] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if ttl < 1:
            raise ValueError(f"ttl must be >= 1, got {ttl}")
        if latency is not None and rng is None:
            raise ValueError("a latency model needs an rng to sample from")
        self.overlay = overlay
        self.directory = directory
        self.ttl = ttl
        self.ledger = ledger
        self.latency = latency
        self.rng = rng
        # Backbone snapshot, pid -> super_neighbors (rebuilt lazily).
        self._dirty = True
        self._adj: Dict[int, Tuple[int, ...]] = {}
        overlay.add_link_listener(self._on_link)
        overlay.add_membership_listener(self._on_membership)
        overlay.add_role_listener(self._on_role)

    def resync(self) -> None:
        """Invalidate derived state after a checkpoint restore.

        Restore loads topology without firing link events, so the lazy
        backbone snapshot must be marked stale explicitly.  (Routers
        share this protocol; the flood router's state is all derived,
        so invalidation is the whole job.)
        """
        self._dirty = True

    # -- snapshot maintenance ---------------------------------------------
    def _on_link(self, a: int, b: int, created: bool) -> None:
        supers = self.overlay.super_ids
        if a in supers and b in supers:
            self._dirty = True

    def _on_membership(self, peer: Peer, joined: bool) -> None:
        if peer.is_super:
            self._dirty = True

    def _on_role(self, peer: Peer, old_role: Role) -> None:
        # Promotions/demotions re-file links without link events.
        self._dirty = True

    def _rebuild(self) -> None:
        """Snapshot every super's backbone links (the store's own tuples)."""
        store = self.overlay.store
        sn = store.sn
        slot = store.slot
        self._adj = {sid: sn[slot(sid)] for sid in self.overlay.super_ids}
        self._dirty = False

    def query(self, source: int, obj: int) -> QueryOutcome:
        """Issue a query for ``obj`` from peer ``source``.

        A leaf source first checks its own storage, then hands the query
        to each of its super-peers (one message per link); a super source
        starts the flood itself.
        """
        directory = self.directory
        timed = self.latency is not None
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
                first_hit_latency=0.0 if timed else None,
            )

        if self._dirty:
            self._rebuild()
        adj = self._adj
        if source in adj:
            level = {source}
            query_messages = 0
            d = 0
        else:
            entry = self.overlay.peer(source).super_neighbors
            level = set(entry)
            query_messages = len(entry)  # one copy per access link
            d = 1
        holders = directory.holders(obj)
        ttl = self.ttl
        seen: set = set()
        visited = hits = hit_messages = 0
        first_hit_hops: Optional[int] = None
        while level:
            visited += len(level)
            if holders:
                h = len(level.intersection(holders))
                if h:
                    hits += h
                    hit_messages += h * d  # QueryHits back along inverse paths
                    if first_hit_hops is None:
                        first_hit_hops = d
            if d >= ttl:
                break
            seen |= level
            nbrs = [adj[p] for p in level]
            query_messages += sum(map(len, nbrs))  # every copy, dup or not
            if len(seen) == len(adj):
                break  # whole backbone reached: those copies were all dups
            level = set().union(*nbrs) - seen
            d += 1

        if self.ledger is not None:
            self.ledger.record(QueryMessage, query_messages)
            self.ledger.record(QueryHitMessage, hit_messages)

        first_hit_latency: Optional[float] = None
        if timed and first_hit_hops is not None:
            # d hops out along a shortest path, d back along its inverse.
            first_hit_latency = float(
                self.latency.sample(self.rng, 2 * first_hit_hops).sum()
            )
        return QueryOutcome(
            obj=obj,
            source=source,
            found=hits > 0,
            hits=hits,
            supers_visited=visited,
            query_messages=query_messages,
            hit_messages=hit_messages,
            first_hit_hops=first_hit_hops,
            first_hit_latency=first_hit_latency,
        )
