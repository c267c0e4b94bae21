"""Layered super-peer overlay substrate.

Peers, roles, the layered adjacency with its structural invariants,
join/bootstrap procedures and degree maintenance.
"""

from .aggregates import LayerAggregate, OverlayAggregates
from .bootstrap import JoinProcedure
from .maintenance import Maintenance, RepairReport
from .peer import Peer
from .roles import Role
from .topology import ConnectionListener, Overlay, OverlayError

__all__ = [
    "LayerAggregate",
    "OverlayAggregates",
    "JoinProcedure",
    "Maintenance",
    "RepairReport",
    "Peer",
    "Role",
    "ConnectionListener",
    "Overlay",
    "OverlayError",
]
