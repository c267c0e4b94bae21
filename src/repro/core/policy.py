"""The layer-management policy interface.

DLM and every baseline implement this interface so the churn driver and
the experiment harness can run any of them interchangeably.  A policy

* may choose the layer a joining peer enters (:meth:`role_for_new_peer`;
  returning ``None`` takes the default: leaf, or cold-start super-seed);
* is bound to a :class:`~repro.context.SystemContext` once, where it
  installs whatever listeners/handlers it needs;
* is notified of joins so it can bootstrap per-peer state.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

from ..context import SystemContext
from ..overlay.peer import Peer
from ..overlay.roles import Role

__all__ = ["LayerPolicy"]


class LayerPolicy(ABC):
    """Abstract layer-management policy."""

    #: Human-readable policy name (used by reports and plots).
    name: str = "abstract"

    def __init__(self) -> None:
        self._ctx: Optional[SystemContext] = None

    @property
    def ctx(self) -> SystemContext:
        """The bound context; raises if :meth:`bind` has not run."""
        if self._ctx is None:
            raise RuntimeError(f"policy {self.name!r} is not bound to a context")
        return self._ctx

    def bind(self, ctx: SystemContext) -> None:
        """Attach to a system; idempotent re-binding is an error."""
        if self._ctx is not None:
            raise RuntimeError(f"policy {self.name!r} is already bound")
        self._ctx = ctx
        self._install(ctx)

    @abstractmethod
    def _install(self, ctx: SystemContext) -> None:
        """Register listeners/handlers on the context (subclass hook)."""

    def role_for_new_peer(
        self, capacity: float, *, eligible: bool = True
    ) -> Optional[Role]:
        """Layer for a joining peer; ``None`` delegates to the default.

        ``eligible`` carries the non-capacity super-peer requirements
        (paper §2); policies must not place ineligible peers in the
        super-layer.
        """
        return None

    def on_peer_joined(self, peer: Peer) -> None:
        """Called by the churn driver after a peer has joined and wired up."""

    def on_peer_left(self, pid: int) -> None:
        """Called by the churn driver after a peer has been removed."""

    # -- checkpointing -------------------------------------------------------
    def snapshot(self) -> dict:
        """Checkpoint state; the base implementation covers stateless
        policies (static, preconfigured, random -- whose only randomness
        lives in the simulator's restored RNG streams).

        Policies holding mutable state or recurring processes (DLM,
        oracle) MUST override both hooks: a silently
        un-captured sweep process would dangle after restore.
        """
        return {"policy": self.name}

    def restore(self, state: dict, sim) -> None:
        """Restore a :meth:`snapshot`; validates the policy identity."""
        if state.get("policy") != self.name:
            raise ValueError(
                f"checkpoint was taken under policy {state.get('policy')!r}, "
                f"cannot restore into {self.name!r}"
            )
