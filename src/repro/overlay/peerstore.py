"""The columnar peer core: a struct-of-arrays registry of peer state.

At Table-3 scale the per-peer object web was the memory and throughput
ceiling: 100k peers cost ~305MB RSS and every DLM evaluation walked
Python objects one attribute at a time.  ``PeerStore`` keeps the scalar
peer state -- role, capacity, join time, alive flag, link degrees, the
exact fields the evaluator reads -- in parallel NumPy columns indexed by
*slot*, so the evaluator (:mod:`repro.core.dlm`) reads its gates as
scalar column loads and compares a super against all its leaves in one
vectorized gather (:func:`repro.core.comparison.compare_leaves_observed`).

A row lives in exactly one place -- the store of the
:class:`~repro.overlay.topology.Overlay` that created it -- from
``alloc`` to ``free``; :class:`~repro.overlay.peer.Peer` objects are
read-only ``(store, slot)`` windows on it.  Adjacency stays per-peer but
compact, and is written only here and in
:mod:`~repro.overlay.topology` -- the ``sn_``/``ln_`` helpers below keep
the degree columns exact through every add and discard:

* ``sn`` / ``ct`` (super links, contacted supers) are small tuples (a
  leaf holds ``m`` links; tuples cost ~72B against ~184B for a dict-
  backed set -- at 1M peers that difference is ~200MB), and the tuple
  itself is what ``Peer.super_neighbors`` / ``contacted_supers`` return;
* ``ln`` (leaf links) is a lazily created
  :class:`~repro.util.idset.IdSet` -- a super holds hundreds of leaves
  and needs O(1) add/discard; only super-peers ever allocate one, so a
  million leaves pay nothing;
* ``kn`` (the message-driven observation cache) is lazily created --
  omniscient runs never allocate a single cache.

Slots are recycled through a LIFO free list, so a slot number outlives
the peer that held it; the overlay invalidates a departed peer's view
when it frees the slot.

Iteration-order discipline is unchanged from the IdSet design: tuples
append on add and preserve order on discard, so neighbor iteration
order remains a pure function of the operation sequence and is exactly
reconstructible from a checkpoint.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..util.idset import IdSet
from .knowledge import NeighborKnowledge
from .peer import Peer
from .roles import ROLE_LEAF, ROLE_SUPER

__all__ = ["PeerStore", "ROLE_LEAF", "ROLE_SUPER"]

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
    # family); -1 for leaves and non-ring families.
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
        "_slot_by_pid",
        "_slot_spill",
    )

    def __init__(self) -> None:
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
        self.ln: List[Optional[IdSet]] = [None] * cap
        self.kn: List[Optional[NeighborKnowledge]] = [None] * cap
        self.views: List[Optional[Peer]] = [None] * cap
        self._free: List[int] = []
        self._size = 0  # high-water mark: slots ever handed out
        self._slot_by_pid = np.full(0, -1, dtype=np.int64)
        self._slot_spill: Dict[int, int] = {}

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
        """Vectorized pid->slot lookup (absent pids map to -1).

        When every pid indexes the dense map -- the super comparison's
        case: a live super's leaf ids -- the answer is one gather.
        """
        dense = self._slot_by_pid
        n = len(dense)
        if len(pids) and 0 <= pids.min() and pids.max() < n:
            return dense[pids]
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
        """Allocate a slot and write what differs per peer; returns the slot.

        Every other column already reads its default: the fill on a fresh
        slot, what :meth:`free` restored on a recycled one.
        """
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
        self._register(pid, s)
        return s

    def free(self, slot: int) -> None:
        """Release a slot to the free list with every degree, bookkeeping
        and object column back at its default (:meth:`alloc` relies on it)."""
        self._unregister(int(self.pid[slot]))
        self.pid[slot] = -1
        self.alive[slot] = False
        self.n_super_links[slot] = 0
        self.n_leaf_links[slot] = 0
        self.last_eval[slot] = -np.inf
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

    # -- views -------------------------------------------------------------
    def view(self, slot: int, pid: int) -> Peer:
        """The cached :class:`Peer` view of ``slot`` (created on demand for
        ``pid``, which the caller has just allocated the slot to)."""
        v = self.views[slot]
        if v is None:
            v = Peer.__new__(Peer)
            v.pid = pid
            v._store = self
            v._slot = slot
            self.views[slot] = v
        return v

    # -- adjacency helpers --------------------------------------------------
    def knowledge_of(self, slot: int) -> NeighborKnowledge:
        """The slot's observation cache, vivified on first use."""
        kn = self.kn[slot]
        if kn is None:
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
        ln = self.ln[slot]
        if ln is None:
            ln = self.ln[slot] = IdSet()
        if pid not in ln:
            ln[pid] = None
            self.n_leaf_links[slot] += 1

    def ln_discard(self, slot: int, pid: int) -> None:
        ln = self.ln[slot]
        if ln is not None and pid in ln:
            del ln[pid]
            self.n_leaf_links[slot] -= 1

    def ln_clear(self, slot: int) -> None:
        ln = self.ln[slot]
        if ln:
            ln.clear()
            self.n_leaf_links[slot] = 0

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
