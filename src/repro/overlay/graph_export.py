"""Export the overlay to ``networkx`` for offline analysis.

The analysis package (degree distributions, connectivity, backbone
diameter) and some tests work on a :class:`networkx.Graph` snapshot rather
than the live adjacency, so exports are explicit copies.  ``networkx`` is
imported inside the functions: every run imports ``repro.overlay``, none
calls an export.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .family import OverlayFamily
from .topology import Overlay

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

__all__ = ["to_networkx", "backbone_graph"]


def to_networkx(
    overlay: Overlay, *, now: float = 0.0, family: Optional[OverlayFamily] = None
) -> nx.Graph:
    """Full overlay snapshot with per-node attributes.

    Node attributes: ``role`` ("super"/"leaf"), ``capacity``, ``age``.
    Edge attribute: ``layer`` ("backbone" for super--super, "access" for
    leaf--super).

    Passing the run's bound ``family`` lets it annotate the snapshot
    with structure only it knows about -- the Chord family adds ring
    keys, a unit-circle ``pos`` layout for the supers, and a ``ring``
    attribute ("successor"/"finger") on the backbone edges the ring
    justifies.  The superpeer family adds nothing.
    """
    import networkx as nx

    g = nx.Graph()
    for peer in overlay.peers():
        g.add_node(
            peer.pid,
            role=str(peer.role),
            capacity=peer.capacity,
            age=peer.age(now) if now >= peer.join_time else 0.0,
        )
    for peer in overlay.peers():
        for sid in peer.super_neighbors:
            if peer.is_leaf:
                # Each access edge appears exactly once, from the leaf side.
                g.add_edge(peer.pid, sid, layer="access")
            elif peer.pid < sid:
                # Backbone edges appear on both endpoints; dedup by order.
                g.add_edge(peer.pid, sid, layer="backbone")
    if family is not None:
        family.annotate_graph(g)
    return g


def backbone_graph(overlay: Overlay) -> nx.Graph:
    """Snapshot of the super-layer only (the query-flooding backbone)."""
    import networkx as nx

    g = nx.Graph()
    for sid in overlay.super_ids:
        g.add_node(sid)
    for sid in overlay.super_ids:
        peer = overlay.peer(sid)
        for other in peer.super_neighbors:
            if sid < other:
                g.add_edge(sid, other)
    return g
