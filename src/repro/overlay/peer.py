"""The peer model.

A peer carries the two DLM metrics (paper §4, Definitions 1 and 2):

* **capacity** -- its ability to process and relay queries, fixed for the
  whole session and known at join time.  The paper's simulation uses
  bandwidth as the single capacity metric; the weighted multi-metric
  combiner lives in :mod:`repro.core.capacity`.
* **age** -- time since the peer joined, ``now - join_time``.  Age is the
  observable proxy for the unobservable *lifetime* (the peer's total
  session length): the longer a peer has lived, the longer it is expected
  to keep living.

``death_time = join_time + lifetime`` is sampled by the churn substrate at
join; the peer itself never inspects it (that would be cheating -- DLM only
sees ages).

A ``Peer`` is a read-only ``(store, slot)`` window on one row of its
overlay's :class:`~repro.overlay.peerstore.PeerStore`: the scalar state
lives in NumPy columns, adjacency in the store's tuple/IdSet columns,
and every property converts NumPy scalars back to builtins so values
print, hash, and digest as plain Python numbers.  Nothing is written
through it -- rows are created by
:meth:`~repro.overlay.topology.Overlay.add_peer`, changed by ``Overlay``
/ ``PeerStore`` methods and freed by ``remove_peer``, after which any
read through a view somebody kept raises
:class:`~repro.overlay.topology.OverlayError` instead of showing
whichever peer recycled the slot.
"""

from __future__ import annotations

from typing import Tuple, Union

from ..util.idset import IdSet
from .knowledge import NeighborKnowledge
from .roles import ROLE_LEAF, ROLE_SUPER, Role

__all__ = ["Peer"]


class Peer:
    """State of one participant in the overlay (a read-only view of a
    store row, obtained from the overlay -- never constructed directly).

    Attributes
    ----------
    pid:
        Unique integer id, never reused within a run.
    role:
        Current layer (:class:`Role`).
    capacity:
        Session-constant capacity value (Definition 1).
    join_time:
        Simulated time the peer joined (for age computation).
    lifetime:
        Sampled total session length; ``join_time + lifetime`` is when the
        churn process removes the peer.  Hidden from the DLM algorithm.
    super_neighbors / leaf_neighbors:
        Adjacency, maintained by :class:`~repro.overlay.topology.Overlay`.
        A leaf's ``leaf_neighbors`` is always empty.  Insertion-ordered:
        neighbor iteration order feeds RNG-indexed selection, so it must
        be deterministic and reconstructible from a checkpoint.
        ``super_neighbors`` is the store's own tuple; ``leaf_neighbors``
        the store's :class:`~repro.util.idset.IdSet` (treat it as
        read-only), or ``()`` for a peer that never had a leaf link.
    contacted_supers:
        For a leaf, every super-peer it has connected to since joining --
        the paper's related set ``G(l)`` (§4 Phase 2), as a tuple.
        Cleared on role changes (a fresh super builds ``G`` from its
        leaves instead).
    role_change_time:
        When the peer last changed layer (join counts); drives the DLM
        anti-flapping cooldown.
    knowledge:
        The peer's :class:`~repro.overlay.knowledge.NeighborKnowledge`
        cache of observed neighbor metric values, populated by Phase-1
        responses (message-driven mode) and read by the evaluator
        through a :class:`~repro.protocol.knowledge.KnowledgeSource`.
        Created on first touch: omniscient runs never allocate one.
    eligible:
        Whether the peer meets the super-peer capability requirements
        the Gnutella Ultrapeer proposal lists besides capacity -- "not
        fire walled, suitable operating system" (paper §2).  Ineligible
        peers are never promoted (cold-start seeding excepted: an
        all-ineligible bootstrap population must still form a network).
    """

    __slots__ = ("pid", "_store", "_slot")

    # -- scalar fields -------------------------------------------------------
    @property
    def role(self) -> Role:
        return Role.SUPER if self._store.role[self._slot] == ROLE_SUPER else Role.LEAF

    @property
    def capacity(self) -> float:
        return float(self._store.capacity[self._slot])

    @property
    def join_time(self) -> float:
        return float(self._store.join_time[self._slot])

    @property
    def lifetime(self) -> float:
        return float(self._store.lifetime[self._slot])

    @property
    def role_change_time(self) -> float:
        return float(self._store.role_change_time[self._slot])

    @property
    def eligible(self) -> bool:
        return bool(self._store.eligible[self._slot])

    # -- adjacency -----------------------------------------------------------
    @property
    def super_neighbors(self) -> Tuple[int, ...]:
        return self._store.sn[self._slot]

    @property
    def leaf_neighbors(self) -> Union[IdSet, Tuple[()]]:
        return self._store.ln[self._slot] or ()

    @property
    def contacted_supers(self) -> Tuple[int, ...]:
        return self._store.ct[self._slot]

    @property
    def knowledge(self) -> NeighborKnowledge:
        return self._store.knowledge_of(self._slot)

    # -- derived quantities --------------------------------------------------
    def age(self, now: float) -> float:
        """Definition 2: time since join, up to ``now``."""
        join_time = float(self._store.join_time[self._slot])
        if now < join_time:
            raise ValueError(f"now={now} precedes join_time={join_time}")
        return now - join_time

    @property
    def death_time(self) -> float:
        """When the churn process will remove this peer."""
        s = self._store
        return float(s.join_time[self._slot] + s.lifetime[self._slot])

    @property
    def is_super(self) -> bool:
        """Whether the peer is currently in the super-layer."""
        return bool(self._store.role[self._slot] == ROLE_SUPER)

    @property
    def is_leaf(self) -> bool:
        """Whether the peer is currently in the leaf-layer."""
        return bool(self._store.role[self._slot] == ROLE_LEAF)

    @property
    def degree(self) -> int:
        """Total number of overlay links."""
        s = self._store
        return int(s.n_super_links[self._slot]) + int(s.n_leaf_links[self._slot])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Peer(pid={self.pid}, role={self.role}, capacity={self.capacity:.1f}, "
            f"deg={self.degree})"
        )
