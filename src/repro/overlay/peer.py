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

Since the columnar refactor a ``Peer`` is a thin index-carrying *view*
over a :class:`~repro.overlay.peerstore.PeerStore` row: the scalar state
lives in NumPy columns, adjacency in the store's tuple/IdSet columns.
The attribute API of the old dataclass is preserved exactly -- every
property converts NumPy scalars back to builtins so values print, hash,
and digest identically to the pre-columnar code.  A standalone ``Peer``
(constructed directly, as tests do) lives in the module-level detached
store until an :class:`~repro.overlay.topology.Overlay` adopts it.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .knowledge import NeighborKnowledge
from .peerstore import DETACHED, ROLE_LEAF, ROLE_SUPER, CountedIdSet, LinkSet
from .roles import Role

__all__ = ["Peer", "check_peer_metrics"]


def check_peer_metrics(capacity: float, lifetime: float) -> None:
    """The range checks every new peer passes, however its row is made."""
    if capacity < 0:
        raise ValueError(f"capacity must be >= 0, got {capacity}")
    if lifetime <= 0:
        raise ValueError(f"lifetime must be > 0, got {lifetime}")


class Peer:
    """State of one participant in the overlay (a view over a store row).

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
        ``super_neighbors`` is a :class:`~repro.overlay.peerstore.LinkSet`
        view over a backing tuple; ``leaf_neighbors`` is a lazily created
        :class:`~repro.overlay.peerstore.CountedIdSet` (only super-peers
        allocate one).
    contacted_supers:
        For a leaf, every super-peer it has connected to since joining --
        the paper's related set ``G(l)`` (§4 Phase 2).  Cleared on role
        changes (a fresh super builds ``G`` from its leaves instead).
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

    __slots__ = ("pid", "_store", "_slot", "_sn_view", "_ct_view")

    def __init__(
        self,
        pid: int,
        role: Role,
        capacity: float,
        join_time: float,
        lifetime: float,
        super_neighbors: Optional[Iterable[int]] = None,
        leaf_neighbors: Optional[Iterable[int]] = None,
        contacted_supers: Optional[Iterable[int]] = None,
        role_change_time: float = 0.0,
        eligible: bool = True,
        knowledge: Optional[NeighborKnowledge] = None,
    ) -> None:
        check_peer_metrics(capacity, lifetime)
        role = Role(role)
        slot = DETACHED.alloc(
            pid,
            ROLE_SUPER if role is Role.SUPER else ROLE_LEAF,
            capacity,
            join_time,
            lifetime,
            role_change_time,
            eligible,
        )
        self.pid = pid
        self._store = DETACHED
        self._slot = slot
        self._sn_view: Optional[LinkSet] = None
        self._ct_view: Optional[LinkSet] = None
        if super_neighbors:
            sn = tuple(dict.fromkeys(super_neighbors))
            DETACHED.sn[slot] = sn
            DETACHED.n_super_links[slot] = len(sn)
        if leaf_neighbors:
            DETACHED.leaf_set(slot).update(leaf_neighbors)
        if contacted_supers:
            DETACHED.ct[slot] = tuple(dict.fromkeys(contacted_supers))
        if knowledge is not None:
            DETACHED.kn[slot] = knowledge

    def __del__(self) -> None:
        # Standalone peers own their detached row; adopted peers' slots
        # belong to the overlay store.  Guarded: interpreter shutdown may
        # have torn down the store already.
        try:
            store = self._store
            if store.ephemeral:
                store.free(self._slot)
        except Exception:
            pass

    # -- scalar fields -------------------------------------------------------
    @property
    def role(self) -> Role:
        return Role.SUPER if self._store.role[self._slot] == ROLE_SUPER else Role.LEAF

    @role.setter
    def role(self, value: Role) -> None:
        self._store.role[self._slot] = (
            ROLE_SUPER if Role(value) is Role.SUPER else ROLE_LEAF
        )

    @property
    def capacity(self) -> float:
        return float(self._store.capacity[self._slot])

    @capacity.setter
    def capacity(self, value: float) -> None:
        self._store.capacity[self._slot] = value

    @property
    def join_time(self) -> float:
        return float(self._store.join_time[self._slot])

    @join_time.setter
    def join_time(self, value: float) -> None:
        self._store.join_time[self._slot] = value

    @property
    def lifetime(self) -> float:
        return float(self._store.lifetime[self._slot])

    @lifetime.setter
    def lifetime(self, value: float) -> None:
        self._store.lifetime[self._slot] = value

    @property
    def role_change_time(self) -> float:
        return float(self._store.role_change_time[self._slot])

    @role_change_time.setter
    def role_change_time(self, value: float) -> None:
        self._store.role_change_time[self._slot] = value

    @property
    def eligible(self) -> bool:
        return bool(self._store.eligible[self._slot])

    @eligible.setter
    def eligible(self, value: bool) -> None:
        self._store.eligible[self._slot] = value

    # -- adjacency -----------------------------------------------------------
    @property
    def super_neighbors(self) -> LinkSet:
        v = self._sn_view
        if v is None:
            v = self._sn_view = LinkSet(self, "sn")
        return v

    @super_neighbors.setter
    def super_neighbors(self, value: Iterable[int]) -> None:
        sn = tuple(dict.fromkeys(value))
        self._store.sn[self._slot] = sn
        self._store.n_super_links[self._slot] = len(sn)

    @property
    def leaf_neighbors(self) -> CountedIdSet:
        return self._store.leaf_set(self._slot)

    @leaf_neighbors.setter
    def leaf_neighbors(self, value: Iterable[int]) -> None:
        store, slot = self._store, self._slot
        ln = CountedIdSet(dict.fromkeys(value))
        ln._store, ln._slot = store, slot
        store.ln[slot] = ln
        store.n_leaf_links[slot] = len(ln)

    @property
    def contacted_supers(self) -> LinkSet:
        v = self._ct_view
        if v is None:
            v = self._ct_view = LinkSet(self, "ct")
        return v

    @contacted_supers.setter
    def contacted_supers(self, value: Iterable[int]) -> None:
        self._store.ct[self._slot] = tuple(dict.fromkeys(value))

    @property
    def knowledge(self) -> NeighborKnowledge:
        return self._store.knowledge_of(self._slot)

    @knowledge.setter
    def knowledge(self, value: NeighborKnowledge) -> None:
        self._store.kn[self._slot] = value

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
