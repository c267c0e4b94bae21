"""Peer roles.

The paper's super-peer overlay has exactly two layers (§3): the
*super-layer* whose members relay queries and index their leaves'
content, and the *leaf-layer* whose members hold ``m`` links into the
super-layer.  Other overlay families (see :mod:`repro.overlay.family`)
reuse the same two role codes -- e.g. the hierarchical Chord family's
supers form a ring -- and a future three-tier family may extend the
enum.

Which role a promotion or demotion lands in is a *family* decision:
use :meth:`~repro.overlay.family.OverlayFamily.transition_target`
rather than assuming the two-layer flip, so that a family with more
than two tiers cannot silently inherit the wrong mapping.
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
