"""Reference model for :class:`repro.search.flooding.FloodRouter`.

The per-copy FIFO BFS that ``FloodRouter.query`` ran before it became
level-synchronous set algebra, kept as the oracle the differential test
compares against (``tests/properties/test_search_props.py``): one
interpreted iteration per visited super, ``super_hit`` probed against
the directory's live tables, depth and delay carried per node.  The loop
is the old method's; only its caching is gone -- it rebuilds the dense
snapshot on every call, so it needs no invalidation, reads neither the
router's snapshot nor the directory's holder view, and charges no ledger.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

import numpy as np

from repro.overlay.topology import Overlay
from repro.protocol.latency import LatencyModel
from repro.search.flooding import QueryOutcome
from repro.search.index import ContentDirectory

__all__ = ["reference_query"]


def reference_query(
    overlay: Overlay,
    directory: ContentDirectory,
    source: int,
    obj: int,
    *,
    ttl: int = 7,
    latency: Optional[LatencyModel] = None,
    rng: Optional[np.random.Generator] = None,
) -> QueryOutcome:
    """What one flood for ``obj`` from ``source`` does, the slow way."""
    peer = overlay.peer(source)
    query_messages = 0
    hits = 0
    first_hit_hops: Optional[int] = None
    timed = latency is not None

    if obj in directory.files(source):
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

    pids = list(overlay.super_ids)
    pid_index = {sid: i for i, sid in enumerate(pids)}
    adjacency = [
        [pid_index[n] for n in overlay.peer(sid).super_neighbors] for sid in pids
    ]
    n = len(pids)
    seen = [False] * n
    depth = [0] * n
    delay = [0.0] * n
    files_map, index_map = directory.hit_tables()

    frontier: deque[int] = deque()
    if peer.is_super:
        i = pid_index[source]
        seen[i] = True
        frontier.append(i)
    else:
        for sid in peer.super_neighbors:
            query_messages += 1
            i = pid_index[sid]
            if not seen[i]:
                seen[i] = True
                depth[i] = 1
                delay[i] = float(latency.sample(rng, 1)[0]) if timed else 0.0
                frontier.append(i)

    hit_messages = 0
    visited = 0
    first_hit_latency: Optional[float] = None
    while frontier:
        i = frontier.popleft()
        d = depth[i]
        visited += 1
        pid = pids[i]
        own = files_map.get(pid)
        if own is not None and obj in own:
            hit = True
        else:
            idx = index_map.get(pid)
            hit = idx is not None and idx.get(obj, 0) > 0
        if hit:
            hits += 1
            hit_messages += d  # QueryHit back along the inverse path
            if first_hit_hops is None:
                first_hit_hops = d
                if timed:
                    # Forward delay plus a freshly sampled return path
                    # of the same hop count.
                    back = float(latency.sample(rng, d).sum()) if d else 0.0
                    first_hit_latency = delay[i] + back
        if d >= ttl:
            continue
        neighbors = adjacency[i]
        query_messages += len(neighbors)  # every transmission, dup or not
        for j in neighbors:
            if not seen[j]:
                seen[j] = True
                depth[j] = d + 1
                if timed:
                    delay[j] = delay[i] + float(latency.sample(rng, 1)[0])
                frontier.append(j)

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
