"""The columnar peer core: a struct-of-arrays registry of peer state.

At Table-3 scale the per-peer object web was the memory and throughput
ceiling: 100k peers cost ~305MB RSS and every DLM evaluation walked
Python objects one attribute at a time.  ``PeerStore`` keeps the scalar
peer state -- role, capacity, join time, alive flag, link degrees, the
exact fields the evaluator reads -- in parallel NumPy columns indexed by
*slot*, so the evaluator (:mod:`repro.core.dlm`) reads its gates as
scalar column loads and compares a super against all its leaves in one
vectorized gather (:func:`repro.core.comparison.compare_leaves_observed`).

:class:`~repro.overlay.peer.Peer` objects are retained as thin
index-carrying views (a ``(store, slot)`` pair) so the rest of the
codebase keeps its existing API; adjacency stays per-peer but compact:

* ``super_neighbors`` / ``contacted_supers`` are stored as small tuples
  (a leaf holds ``m`` links; tuples cost ~72B against ~184B for a dict-
  backed set at 1M peers that difference is ~200MB) and exposed through
  :class:`LinkSet` views with the ordered-set API of
  :class:`~repro.util.idset.IdSet`;
* ``leaf_neighbors`` is a lazily created :class:`CountedIdSet` -- only
  super-peers ever allocate one, so a million leaves pay nothing;
* ``knowledge`` (the message-driven observation cache) is lazily
  created -- omniscient runs never allocate a single cache.

Slot lifecycle: slots are recycled through a LIFO free list.  A
standalone ``Peer`` (tests, figure harnesses) lives in the module's
*detached* store; :meth:`PeerStore.adopt` migrates the row into an
overlay's store when the peer is added, rebinding the same view object,
and :meth:`PeerStore.evict` migrates it back out on removal so that
listeners (and any caller still holding the view) keep reading valid
state after the overlay slot is freed for reuse.

Iteration-order discipline is unchanged from the IdSet design: tuples
append on add and preserve order on discard, so neighbor iteration
order remains a pure function of the operation sequence and is exactly
reconstructible from a checkpoint.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional

import numpy as np

from ..util.idset import IdSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .knowledge import NeighborKnowledge
    from .peer import Peer

__all__ = ["PeerStore", "LinkSet", "CountedIdSet", "ROLE_LEAF", "ROLE_SUPER"]

#: Integer role codes used by the ``role`` column.
ROLE_LEAF = 0
ROLE_SUPER = 1

#: pids below this bound map to slots through a dense array; larger
#: (or negative) pids spill to a dict so a stray huge pid cannot force
#: a giant allocation.
_DENSE_PID_LIMIT = 1 << 24

_SCALAR_COLUMNS = (
    ("pid", np.int64, -1),
    ("role", np.int8, ROLE_LEAF),
    ("capacity", np.float64, 0.0),
    ("join_time", np.float64, 0.0),
    ("lifetime", np.float64, 0.0),
    ("role_change_time", np.float64, 0.0),
    ("eligible", np.bool_, False),
    ("alive", np.bool_, False),
    ("n_super_links", np.int32, 0),
    ("n_leaf_links", np.int32, 0),
    # Rate-limit bookkeeping for the DLM evaluator: simulated time of the
    # last committed evaluation, -inf = never evaluated.
    ("last_eval", np.float64, -np.inf),
    # Ring successor pid for ring-structured overlay families (the Chord
    # family); -1 for leaves, detached rows, and non-ring families.
    ("ring_succ", np.int64, -1),
    # Pending natural-death bookkeeping, owned by the churn driver's
    # DeathLedger (the calendar queue's lazy-event source): ``dv`` is the
    # unmaterialized death time (+inf = none pending -- never scheduled,
    # already harvested into the scheduler's active window, or cancelled)
    # and ``dseq`` the scheduler seq reserved for it (-1 = none).
    ("dv", np.float64, np.inf),
    ("dseq", np.int64, -1),
)


class PeerStore:
    """Struct-of-arrays peer state with slot allocation and recycling."""

    __slots__ = (
        "pid",
        "role",
        "capacity",
        "join_time",
        "lifetime",
        "role_change_time",
        "eligible",
        "alive",
        "n_super_links",
        "n_leaf_links",
        "last_eval",
        "ring_succ",
        "dv",
        "dseq",
        "sn",
        "ct",
        "fg",
        "ln",
        "kn",
        "views",
        "_free",
        "_size",
        "_track_pids",
        "_slot_by_pid",
        "_slot_spill",
        "ephemeral",
    )

    def __init__(self, *, track_pids: bool = False, ephemeral: bool = False) -> None:
        cap = 64
        for name, dtype, fill in _SCALAR_COLUMNS:
            col = np.zeros(cap, dtype=dtype)
            if fill:
                col.fill(fill)
            setattr(self, name, col)
        #: Object columns: super/contacted link tuples, lazy leaf IdSet,
        #: lazy knowledge cache, and the cached Peer view per slot.
        self.sn: List[tuple] = [()] * cap
        self.ct: List[tuple] = [()] * cap
        #: Ring finger pids (tuple) for ring-structured families; always
        #: ``()`` outside the Chord family, so non-ring runs pay only the
        #: list slot.
        self.fg: List[tuple] = [()] * cap
        self.ln: List[Optional[CountedIdSet]] = [None] * cap
        self.kn: List[Optional["NeighborKnowledge"]] = [None] * cap
        self.views: List[Optional["Peer"]] = [None] * cap
        self._free: List[int] = []
        self._size = 0  # high-water mark: slots ever handed out
        self._track_pids = track_pids
        self._slot_by_pid = np.full(0, -1, dtype=np.int64)
        self._slot_spill: Dict[int, int] = {}
        #: Ephemeral stores (the detached pool) free rows from
        #: ``Peer.__del__`` when the last view reference dies.
        self.ephemeral = ephemeral

    # -- capacity ----------------------------------------------------------
    def __len__(self) -> int:
        return self._size - len(self._free)

    @property
    def capacity_slots(self) -> int:
        """Currently allocated column length."""
        return len(self.pid)

    def _grow(self) -> None:
        old = len(self.pid)
        new = old * 2
        for name, dtype, fill in _SCALAR_COLUMNS:
            col = getattr(self, name)
            grown = np.empty(new, dtype=dtype)
            grown[:old] = col
            grown[old:] = fill
            setattr(self, name, grown)
        pad = new - old
        self.sn.extend([()] * pad)
        self.ct.extend([()] * pad)
        self.fg.extend([()] * pad)
        self.ln.extend([None] * pad)
        self.kn.extend([None] * pad)
        self.views.extend([None] * pad)

    @property
    def nbytes(self) -> int:
        """Approximate resident bytes of the columnar state.

        Counts the NumPy columns and the pid->slot map exactly, plus a
        per-entry estimate for the object columns (list slots only; the
        tuples/IdSets themselves are shared Python objects).
        """
        total = sum(getattr(self, name).nbytes for name, _d, _f in _SCALAR_COLUMNS)
        total += self._slot_by_pid.nbytes
        total += 6 * 8 * len(self.pid)  # the six object-column list slots
        return total

    # -- pid -> slot mapping ------------------------------------------------
    def slot(self, pid: int) -> int:
        """The live slot of ``pid``, or -1 if absent."""
        if 0 <= pid < len(self._slot_by_pid):
            return int(self._slot_by_pid[pid])
        return self._slot_spill.get(pid, -1)

    def slots_of(self, pids: np.ndarray) -> np.ndarray:
        """Vectorized pid->slot lookup (absent pids map to -1)."""
        dense = self._slot_by_pid
        n = len(dense)
        in_range = (pids >= 0) & (pids < n)
        out = np.full(len(pids), -1, dtype=np.int64)
        idx = pids[in_range]
        out[in_range] = dense[idx] if len(idx) else -1
        if not in_range.all():
            spill = self._slot_spill
            for i in np.nonzero(~in_range)[0]:
                out[i] = spill.get(int(pids[i]), -1)
        return out

    def _register(self, pid: int, slot: int) -> None:
        if 0 <= pid < _DENSE_PID_LIMIT:
            dense = self._slot_by_pid
            if pid >= len(dense):
                new_len = max(1024, len(dense) * 2, pid + 1)
                grown = np.full(min(new_len, _DENSE_PID_LIMIT), -1, dtype=np.int64)
                grown[: len(dense)] = dense
                self._slot_by_pid = grown
                dense = grown
            if dense[pid] != -1:
                raise ValueError(f"duplicate pid {pid} in store")
            dense[pid] = slot
        else:
            if pid in self._slot_spill:
                raise ValueError(f"duplicate pid {pid} in store")
            self._slot_spill[pid] = slot

    def _unregister(self, pid: int) -> None:
        if 0 <= pid < len(self._slot_by_pid):
            self._slot_by_pid[pid] = -1
        else:
            self._slot_spill.pop(pid, None)

    # -- slot lifecycle ----------------------------------------------------
    def alloc(
        self,
        pid: int,
        role_code: int,
        capacity: float,
        join_time: float,
        lifetime: float,
        role_change_time: float,
        eligible: bool,
    ) -> int:
        """Allocate a slot and write the scalar row; returns the slot."""
        if self._free:
            s = self._free.pop()
        else:
            s = self._size
            if s >= len(self.pid):
                self._grow()
            self._size = s + 1
        self.pid[s] = pid
        self.role[s] = role_code
        self.capacity[s] = capacity
        self.join_time[s] = join_time
        self.lifetime[s] = lifetime
        self.role_change_time[s] = role_change_time
        self.eligible[s] = eligible
        self.alive[s] = True
        self.n_super_links[s] = 0
        self.n_leaf_links[s] = 0
        self.last_eval[s] = -np.inf
        self.ring_succ[s] = -1
        self.dv[s] = np.inf
        self.dseq[s] = -1
        self.sn[s] = ()
        self.ct[s] = ()
        self.fg[s] = ()
        self.ln[s] = None
        self.kn[s] = None
        self.views[s] = None
        if self._track_pids:
            self._register(pid, s)
        return s

    def free(self, slot: int) -> None:
        """Release a slot back to the free list."""
        if self._track_pids:
            self._unregister(int(self.pid[slot]))
        self.pid[slot] = -1
        self.alive[slot] = False
        self.ring_succ[slot] = -1
        self.dv[slot] = np.inf
        self.dseq[slot] = -1
        self.sn[slot] = ()
        self.ct[slot] = ()
        self.fg[slot] = ()
        self.ln[slot] = None
        self.kn[slot] = None
        self.views[slot] = None
        self._free.append(slot)

    def adopt(self, peer: "Peer") -> int:
        """Migrate ``peer``'s row from its current store into this one.

        The view object is rebound in place, so every existing reference
        to it keeps working; the old row is freed.  Returns the new slot.
        """
        src = peer._store
        s_old = peer._slot
        s = self.alloc(
            int(src.pid[s_old]),
            int(src.role[s_old]),
            float(src.capacity[s_old]),
            float(src.join_time[s_old]),
            float(src.lifetime[s_old]),
            float(src.role_change_time[s_old]),
            bool(src.eligible[s_old]),
        )
        self.n_super_links[s] = src.n_super_links[s_old]
        self.n_leaf_links[s] = src.n_leaf_links[s_old]
        self.dv[s] = src.dv[s_old]
        self.dseq[s] = src.dseq[s_old]
        self.sn[s] = src.sn[s_old]
        self.ct[s] = src.ct[s_old]
        self.ln[s] = src.ln[s_old]
        self.kn[s] = src.kn[s_old]
        ln = self.ln[s]
        if ln is not None:
            ln._store, ln._slot = self, s
        src.free(s_old)
        peer._store, peer._slot = self, s
        # Ephemeral stores never hold a strong reference to their views:
        # the detached pool relies on ``Peer.__del__`` to free rows, which
        # a ``views[s] = peer`` backreference would keep alive forever.
        if not self.ephemeral:
            self.views[s] = peer
        return s

    def evict(self, slot: int, detached: "PeerStore") -> "Peer":
        """Move a row out to ``detached`` (on removal from an overlay).

        The cached view is rebound to the detached row so that removal
        listeners -- and any caller that kept the ``Peer`` -- continue to
        read the peer's final state; the overlay slot is freed for reuse.
        """
        peer = self.views[slot]
        if peer is None:
            peer = self.view(slot)
        detached.adopt(peer)
        return peer

    # -- views -------------------------------------------------------------
    def view(self, slot: int) -> "Peer":
        """The cached :class:`Peer` view of ``slot`` (created on demand)."""
        v = self.views[slot]
        if v is None:
            from .peer import Peer

            v = Peer.__new__(Peer)
            v.pid = int(self.pid[slot])
            v._store = self
            v._slot = slot
            v._sn_view = None
            v._ct_view = None
            if not self.ephemeral:
                self.views[slot] = v
        return v

    # -- adjacency helpers --------------------------------------------------
    def leaf_set(self, slot: int) -> "CountedIdSet":
        """The slot's leaf-neighbor set, vivified on first use."""
        ln = self.ln[slot]
        if ln is None:
            ln = CountedIdSet()
            ln._store, ln._slot = self, slot
            self.ln[slot] = ln
        return ln

    def knowledge_of(self, slot: int) -> "NeighborKnowledge":
        """The slot's observation cache, vivified on first use."""
        kn = self.kn[slot]
        if kn is None:
            from .knowledge import NeighborKnowledge

            kn = NeighborKnowledge()
            self.kn[slot] = kn
        return kn

    def sn_add(self, slot: int, pid: int) -> None:
        t = self.sn[slot]
        if pid not in t:
            self.sn[slot] = t + (pid,)
            self.n_super_links[slot] += 1

    def sn_discard(self, slot: int, pid: int) -> None:
        t = self.sn[slot]
        if pid in t:
            self.sn[slot] = tuple(x for x in t if x != pid)
            self.n_super_links[slot] -= 1

    def ln_add(self, slot: int, pid: int) -> None:
        self.leaf_set(slot).add(pid)

    def ln_discard(self, slot: int, pid: int) -> None:
        ln = self.ln[slot]
        if ln is not None:
            ln.discard(pid)

    def ct_add(self, slot: int, pid: int) -> None:
        t = self.ct[slot]
        if pid not in t:
            self.ct[slot] = t + (pid,)

    def ct_discard(self, slot: int, pid: int) -> None:
        t = self.ct[slot]
        if pid in t:
            self.ct[slot] = tuple(x for x in t if x != pid)

    def live_slots(self) -> np.ndarray:
        """Slots currently alive, in slot order (scans the columns)."""
        return np.nonzero(self.alive[: self._size])[0]


#: The pool standalone peers live in until an overlay adopts them.
DETACHED = PeerStore(ephemeral=True)


class LinkSet:
    """Ordered-set view over a store's tuple-backed link column.

    Mirrors the :class:`~repro.util.idset.IdSet` API (the pre-columnar
    adjacency type): insertion-ordered, deletions preserve order, content
    equality against sets/IdSets/other views.  Mutations rewrite the
    backing tuple and keep the degree column in sync.  The view is bound
    to the *peer*, not a ``(store, slot)`` pair, so it follows the row
    through adopt/evict migrations and can be cached on the Peer.
    """

    __slots__ = ("_peer", "_kind")

    def __init__(self, peer: "Peer", kind: str) -> None:
        self._peer = peer
        self._kind = kind  # "sn" or "ct"

    def _get(self) -> tuple:
        p = self._peer
        return getattr(p._store, self._kind)[p._slot]

    def _set(self, value: tuple) -> None:
        p = self._peer
        getattr(p._store, self._kind)[p._slot] = value
        if self._kind == "sn":
            p._store.n_super_links[p._slot] = len(value)

    # -- set API ----------------------------------------------------------
    def add(self, x: int) -> None:
        t = self._get()
        if x not in t:
            self._set(t + (x,))

    def discard(self, x: int) -> None:
        t = self._get()
        if x in t:
            self._set(tuple(v for v in t if v != x))

    def remove(self, x: int) -> None:
        t = self._get()
        if x not in t:
            raise KeyError(x)
        self._set(tuple(v for v in t if v != x))

    def clear(self) -> None:
        self._set(())

    def update(self, items: Iterable[int]) -> None:
        t = self._get()
        for x in items:
            if x not in t:
                t = t + (x,)
        self._set(t)

    def copy(self) -> IdSet:
        """An order-preserving detached copy."""
        return IdSet(self._get())

    def pop_last(self) -> int:
        t = self._get()
        if not t:
            raise KeyError("pop from an empty LinkSet")
        self._set(t[:-1])
        return t[-1]

    # -- queries ----------------------------------------------------------
    def __contains__(self, x: int) -> bool:
        return x in self._get()

    def __iter__(self) -> Iterator[int]:
        return iter(self._get())

    def __len__(self) -> int:
        return len(self._get())

    def __bool__(self) -> bool:
        return bool(self._get())

    def __or__(self, other: Iterable[int]) -> set:
        out = set(self._get())
        out.update(other)
        return out

    __ror__ = __or__

    def __le__(self, other) -> bool:
        return all(x in other for x in self._get())

    def __ge__(self, other: Iterable[int]) -> bool:
        t = self._get()
        return all(x in t for x in other)

    def issubset(self, other) -> bool:
        return self.__le__(other)

    def issuperset(self, other: Iterable[int]) -> bool:
        return self.__ge__(other)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LinkSet):
            return set(self._get()) == set(other._get())
        if isinstance(other, (set, frozenset)):
            return set(self._get()) == other
        if isinstance(other, dict):  # IdSet
            return set(self._get()) == set(other)
        if isinstance(other, (tuple, list)):
            return set(self._get()) == set(other)
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LinkSet({list(self._get())!r})"


class CountedIdSet(IdSet):
    """An :class:`IdSet` that mirrors its size into ``n_leaf_links``.

    Super-peers' leaf adjacency needs O(1) add/discard at hundreds of
    members, so it stays dict-backed; the subclass keeps the store's
    degree column exact through every mutation path (including direct
    mutation by tests), which the evaluator reads as ``l_nn``.
    """

    __slots__ = ("_store", "_slot")

    def __init__(self, items: Iterable[int] = ()) -> None:
        self._store: Optional[PeerStore] = None
        self._slot = -1
        super().__init__(items)

    def _sync(self) -> None:
        if self._store is not None:
            self._store.n_leaf_links[self._slot] = len(self)

    def add(self, x: int) -> None:
        self[x] = None
        self._sync()

    def discard(self, x: int) -> None:
        dict.pop(self, x, None)
        self._sync()

    def remove(self, x: int) -> None:
        del self[x]
        self._sync()

    def update(self, items: Iterable[int]) -> None:  # type: ignore[override]
        for x in items:
            self[x] = None
        self._sync()

    def clear(self) -> None:  # type: ignore[override]
        dict.clear(self)
        self._sync()

    def pop(self, *args):  # type: ignore[override]
        out = dict.pop(self, *args)
        self._sync()
        return out
