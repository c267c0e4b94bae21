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

Hot-path notes (profiled and timed with ``repro profile flooding``):

Apart from its hits, a flood's outcome is a function of the backbone
snapshot, the entry set and the TTL (level ``d`` is the set of supers at
distance ``d`` from the entry points; ``supers_visited`` sums the levels,
``query_messages`` their degrees below the TTL).  So each entry -- a
super source's pid, or the frozenset of a leaf source's *live* supers,
since leaf--super links leave the backbone alone -- is flooded once per
snapshot, level by level in C-level set operations, into a reach row:
``(visited, expansion messages, dist)``, ``dist`` one small int per
super in dense snapshot order (``ttl + 1`` if unreached, and for a pid
absent from the snapshot; a ``bytearray`` while that fits a byte -- not
sets, which cost megabytes).  A query is one pass over
:meth:`ContentDirectory.holders`: a holder at ``d <= ttl`` is a hit that
sends ``d`` QueryHit messages back, and the least ``d`` is
``first_hit_hops``.  The snapshot and its rows are rebuilt on the first
query after super--super link churn, a role change, a super join/leave
or :meth:`resync`.  The per-copy BFS all this replaced is the test
oracle (``tests/search/reference_flood.py``); outcomes are bit-identical.

A timed flood (``latency=``) reports the first hit's round trip as the
sum of ``2 * d`` fresh i.i.d. hop draws: ``d`` hops out, ``d`` back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..overlay.peer import Peer
from ..overlay.roles import Role
from ..overlay.topology import Overlay
from ..protocol.accounting import MessageLedger
from ..protocol.latency import LatencyModel
from ..protocol.messages import QueryHitMessage, QueryMessage
from .index import ContentDirectory

__all__ = ["FloodRouter", "QueryOutcome"]


@dataclass(slots=True)
class QueryOutcome:
    """What one query did (built once, never mutated; not frozen, because
    a frozen dataclass pays ``object.__setattr__`` per field per query)."""

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
        # Backbone snapshot (rebuilt lazily): pid -> dense index, and each
        # super's links as dense indices; reach rows, entry key -> row.
        self._dirty = True
        self._pos: Dict[int, int] = {}
        self._adj: List[List[int]] = []
        self._reach: Dict[object, Tuple[int, int, Sequence[int]]] = {}
        overlay.add_link_listener(self._on_link)
        overlay.add_membership_listener(self._on_membership)
        overlay.add_role_listener(self._on_role)

    def resync(self) -> None:
        """Invalidate derived state after a checkpoint restore.

        Restore loads topology without firing link events, so the lazy
        backbone snapshot must be marked stale explicitly; the router's
        state is all derived, so invalidation is the whole job.
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
        """Snapshot the backbone: number the supers densely, keep each
        one's links as dense indices, and drop every reach row."""
        sn = self.overlay.store.sn
        ids = list(self.overlay.super_ids)
        pos = self._pos = dict(zip(ids, range(len(ids))))
        index = pos.__getitem__
        self._adj = [[*map(index, sn[p._slot])] for p in map(self.overlay.get, ids)]
        self._reach = {}
        self._dirty = False

    def _flood(self, key) -> Tuple[int, int, Sequence[int]]:
        """Flood the snapshot once from the entry ``key`` names -- a super
        source's pid (depth 0), or a leaf source's frozenset of supers
        (depth 1) -- and keep the result as its reach row."""
        pos = self._pos
        if type(key) is frozenset:
            level, d = set(map(pos.__getitem__, key)), 1
        else:
            level, d = {pos[key]}, 0
        adj = self._adj
        ttl = self.ttl
        fill = ttl + 1  # unreached; the extra last slot is every absent pid
        n = len(adj) + 1
        dist = bytearray((fill,)) * n if fill < 256 else [fill] * n
        seen: set = set()
        visited = messages = 0
        while level:
            visited += len(level)
            for i in level:
                dist[i] = d
            if d >= ttl:
                break
            seen |= level
            nbrs = [adj[i] for i in level]
            messages += sum(map(len, nbrs))  # every copy, dup or not
            if len(seen) == len(adj):
                break  # whole backbone reached: those copies were all dups
            level = set().union(*nbrs) - seen
            d += 1
        row = self._reach[key] = (visited, messages, dist)
        return row

    def query(self, source: int, obj: int) -> QueryOutcome:
        """Issue a query for ``obj`` from peer ``source``.

        A leaf source first checks its own storage, then hands the query
        to each of its super-peers (one message per link); a super source
        starts the flood itself.
        """
        directory = self.directory
        if obj in directory.files(source):
            # Local storage satisfies the query without any traffic.
            return QueryOutcome(
                obj, source, True, 1, 0, 0, 0, 0, None if self.latency is None else 0.0
            )

        if self._dirty:
            self._rebuild()
        pos = self._pos
        if source in pos:
            entry: Tuple[int, ...] = ()
            key = source
        else:
            # Read live: leaf--super links do not dirty the snapshot.
            entry = self.overlay.peer(source).super_neighbors
            key = frozenset(entry)
        row = self._reach.get(key)
        if row is None:
            row = self._flood(key)
        visited, query_messages, dist = row
        query_messages += len(entry)  # one copy per access link

        ttl = self.ttl
        at = pos.get
        absent = len(pos)
        hits = hit_messages = 0
        first_hit_hops: Optional[int] = None
        for h in directory.holders(obj):
            d = dist[at(h, absent)]
            if d <= ttl:
                hits += 1
                hit_messages += d  # a QueryHit back along the inverse path
                if first_hit_hops is None or d < first_hit_hops:
                    first_hit_hops = d

        if self.ledger is not None:
            self.ledger.record(QueryMessage, query_messages)
            self.ledger.record(QueryHitMessage, hit_messages)

        first_hit_latency: Optional[float] = None
        if self.latency is not None and first_hit_hops is not None:
            # d hops out along a shortest path, d back along its inverse.
            first_hit_latency = float(
                self.latency.sample(self.rng, 2 * first_hit_hops).sum()
            )
        return QueryOutcome(
            obj,
            source,
            hits > 0,
            hits,
            visited,
            query_messages,
            hit_messages,
            first_hit_hops,
            first_hit_latency,
        )
