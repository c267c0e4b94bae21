"""Peer roles.

The paper's super-peer overlay has exactly two layers (§3): the
*super-layer* whose members relay queries and index their leaves'
content, and the *leaf-layer* whose members hold ``m`` links into the
super-layer.  A promotion moves a leaf to the super-layer and a demotion
moves a super to the leaf-layer (Figures 2-3).
"""

from __future__ import annotations

import enum

__all__ = ["Role", "ROLE_LEAF", "ROLE_SUPER"]

#: Integer role codes of the ``PeerStore.role`` column.
ROLE_LEAF = 0
ROLE_SUPER = 1


class Role(enum.Enum):
    """Layer membership of a peer."""

    SUPER = "super"
    LEAF = "leaf"

    def __str__(self) -> str:
        return self.value
