"""Executing promotions and demotions (the mechanics of Figures 2-3).

The executor is the single place where a DLM decision touches the
overlay, so overhead accounting (§6) and repair (degree maintenance)
cannot be forgotten by a caller:

* **Promotion** (Figure 2): the leaf keeps its super links (they become
  backbone links); maintenance then fills its backbone degree to ``k_s``.
  No peer is disconnected, so no PAO.
* **Demotion** (Figure 3): the super keeps ``m`` of its super links as
  its new leaf->super links and drops its leaves; each orphan makes one
  replacement connection -- the PAO -- and the demoted peer is topped up
  to ``m`` links if needed.
"""

from __future__ import annotations

from ..context import SystemContext
from ..overlay.roles import Role

__all__ = ["TransitionExecutor"]


class TransitionExecutor:
    """Applies role transitions to a bound system context."""

    def __init__(self, ctx: SystemContext, *, min_supers: int = 1) -> None:
        if min_supers < 1:
            raise ValueError(f"min_supers must be >= 1, got {min_supers}")
        self.ctx = ctx
        self.min_supers = min_supers

    def promote(self, pid: int) -> bool:
        """Promote leaf ``pid``; returns False if it is gone or not a leaf."""
        ctx = self.ctx
        peer = ctx.overlay.get(pid)
        if peer is None or not peer.is_leaf:
            return False
        self._check_target(peer.role, Role.SUPER)
        ctx.overlay.promote(pid)
        ctx.overlay.store.role_change_time[peer._slot] = ctx.now
        ctx.maintenance.after_promotion(pid)
        ctx.overhead.record_promotion()
        return True

    def demote(self, pid: int) -> bool:
        """Demote super ``pid``; returns False if it is gone, not a super,
        or the super-layer is at its hard floor."""
        ctx = self.ctx
        peer = ctx.overlay.get(pid)
        if peer is None or not peer.is_super:
            return False
        if ctx.overlay.n_super <= self.min_supers:
            return False
        self._check_target(peer.role, Role.LEAF)
        rng = ctx.sim.rng.get("transitions")
        orphans = ctx.overlay.demote(pid, ctx.m, rng)
        ctx.overlay.store.role_change_time[peer._slot] = ctx.now
        report = ctx.maintenance.after_demotion(pid, orphans)
        ctx.overhead.record_demotion(len(orphans), report.leaf_reconnections)
        return True

    def _check_target(self, role: Role, expected: Role) -> None:
        """Ask the bound family where a transition from ``role`` lands.

        This executor implements the two-layer mechanics (Figures 2-3),
        so it refuses -- loudly, never silently -- any family whose
        transition mapping lands elsewhere (e.g. a three-tier family
        promoting into an intermediate tier).  The family's own
        ``transition_target`` already raises for unmanaged roles and
        for >2-tier families that have not overridden the default flip.
        """
        family = self.ctx.family
        target = family.transition_target(role)
        if target is not expected:
            raise NotImplementedError(
                f"family {family.name!r} maps {role} transitions to "
                f"{target}; the two-layer executor only applies "
                f"{role} -> {expected}"
            )

    def apply(self, pid: int, action_role: Role) -> bool:
        """Move ``pid`` into ``action_role`` if it is not already there."""
        peer = self.ctx.overlay.get(pid)
        if peer is None or peer.role is action_role:
            return False
        return self.promote(pid) if action_role is Role.SUPER else self.demote(pid)
