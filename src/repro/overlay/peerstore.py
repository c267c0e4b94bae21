"""The columnar peer core: a struct-of-arrays registry of peer state.

At Table-3 scale the per-peer object web was the memory and throughput
ceiling: 100k peers cost ~305MB RSS and every DLM evaluation walked
Python objects one attribute at a time.  ``PeerStore`` keeps the scalar
peer state -- role, capacity, join time, alive flag, link degrees, the
exact fields the evaluator reads -- in parallel typed columns indexed by
*slot*.  Each scalar column is an :class:`array.array` of one fixed
width (typecodes ``q``, ``b``, ``d``, ``i``), so a Python read returns a
plain ``int`` or ``float`` and a write stores one, with no NumPy scalar
boxed on either side.  Vector passes -- the super comparison's gather
(:func:`repro.core.comparison.compare_leaves_observed`), the liveness
scan, the death ledger, the checkpoint -- read the same bytes through
:meth:`PeerStore.column`, a zero-copy NumPy view.

**The view rule.**  A NumPy view pins its array's buffer, and
``array.extend`` raises :class:`BufferError` while one is alive.  The
store caches one view per column and drops the cache before it grows a
column; a caller may use a view only until its next call that can
allocate a slot (``alloc``, hence any join).

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
  :class:`~repro.util.idset.IdSet` mapping each leaf pid to the leaf's
  own slot (the very ``int`` its view holds, so an entry adds no
  object) -- a super holds hundreds of leaves and needs O(1)
  add/discard, and the super comparison reads the leaves' columns at
  the carried slots; only super-peers ever allocate one, so a million
  leaves pay nothing;
* ``kn`` (the message-driven observation cache) is ``None`` until the
  transport's response arrival writes a ``dict`` of
  :class:`~repro.overlay.knowledge.Observation` there -- omniscient runs
  never allocate a single cache.

The store knows slots, not pids: the overlay's registry is the one map
from a pid to its :class:`~repro.overlay.peer.Peer` view, whose
``_slot`` names the row.  Slots are recycled through a LIFO free list,
so a slot number outlives the peer that held it; the overlay invalidates
a departed peer's view when it frees the slot.

Iteration-order discipline is unchanged from the IdSet design: tuples
append on add and preserve order on discard, so neighbor iteration
order remains a pure function of the operation sequence and is exactly
reconstructible from a checkpoint.
"""

from __future__ import annotations

from array import array
from math import inf
from typing import Dict, List, Optional

import numpy as np

from ..util.idset import IdSet
from .knowledge import Observation
from .roles import ROLE_LEAF, ROLE_SUPER

__all__ = ["PeerStore", "ROLE_LEAF", "ROLE_SUPER"]

#: ``(name, array typecode, fill)``; booleans are ``b`` columns of 0/1.
_SCALAR_COLUMNS = (
    ("pid", "q", -1),
    ("role", "b", ROLE_LEAF),
    ("capacity", "d", 0.0),
    ("join_time", "d", 0.0),
    ("lifetime", "d", 0.0),
    ("role_change_time", "d", 0.0),
    ("eligible", "b", 0),
    ("alive", "b", 0),
    ("n_super_links", "i", 0),
    ("n_leaf_links", "i", 0),
    # Rate-limit bookkeeping for the DLM evaluator: simulated time of the
    # last committed evaluation, -inf = never evaluated.
    ("last_eval", "d", -inf),
    # Pending natural-death bookkeeping, owned by the churn driver's
    # DeathLedger (the event queue's lazy-event source): ``dv`` is the
    # unmaterialized death time (+inf = none pending -- never scheduled,
    # already harvested into the scheduler's heap, or cancelled)
    # and ``dseq`` the scheduler seq reserved for it (-1 = none).
    ("dv", "d", inf),
    ("dseq", "q", -1),
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
        "dv",
        "dseq",
        "sn",
        "ct",
        "ln",
        "kn",
        "_free",
        "_size",
        "_np",
    )

    def __init__(self) -> None:
        cap = 64
        for name, code, fill in _SCALAR_COLUMNS:
            setattr(self, name, array(code, (fill,)) * cap)
        #: Object columns: super/contacted link tuples, lazy leaf IdSet
        #: and lazy observation cache.
        self.sn: List[tuple] = [()] * cap
        self.ct: List[tuple] = [()] * cap
        self.ln: List[Optional[IdSet]] = [None] * cap
        self.kn: List[Optional[Dict[int, Observation]]] = [None] * cap
        self._free: List[int] = []
        self._size = 0  # high-water mark: slots ever handed out
        #: Cached whole-length NumPy views, column name -> ndarray.
        self._np: Dict[str, np.ndarray] = {}

    # -- capacity ----------------------------------------------------------
    def __len__(self) -> int:
        return self._size - len(self._free)

    @property
    def capacity_slots(self) -> int:
        """Currently allocated column length."""
        return len(self.pid)

    def _grow(self) -> None:
        pad = len(self.pid)
        self._np.clear()  # a live view would make extend raise BufferError
        for name, code, fill in _SCALAR_COLUMNS:
            getattr(self, name).extend(array(code, (fill,)) * pad)
        self.sn.extend([()] * pad)
        self.ct.extend([()] * pad)
        self.ln.extend([None] * pad)
        self.kn.extend([None] * pad)

    def column(self, name: str) -> np.ndarray:
        """A zero-copy, writable NumPy view of the used slots of scalar
        column ``name`` -- valid until the next call that can allocate a
        slot (see the view rule in the module docstring).  The whole
        array's view is cached; NumPy reads the array's typecode as the
        same C type, so the view's width is the array's own itemsize."""
        v = self._np.get(name)
        if v is None:
            col = getattr(self, name)
            v = self._np[name] = np.frombuffer(col, dtype=col.typecode)
        return v[: self._size]

    @property
    def nbytes(self) -> int:
        """Approximate resident bytes of the columnar state.

        Counts the scalar columns exactly, plus a per-entry estimate for
        the object columns (list slots only; the tuples/IdSets themselves
        are shared Python objects).
        """
        total = sum(
            len(col) * col.itemsize
            for col in (getattr(self, name) for name, _c, _f in _SCALAR_COLUMNS)
        )
        return total + 4 * 8 * len(self.pid)  # the four object-column list slots

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
        return s

    def free(self, slot: int) -> None:
        """Release a slot to the free list with every degree, bookkeeping
        and object column back at its default (:meth:`alloc` relies on it)."""
        self.pid[slot] = -1
        self.alive[slot] = False
        self.n_super_links[slot] = 0
        self.n_leaf_links[slot] = 0
        self.last_eval[slot] = -inf
        self.dv[slot] = inf
        self.dseq[slot] = -1
        self.sn[slot] = ()
        self.ct[slot] = ()
        self.ln[slot] = None
        self.kn[slot] = None
        self._free.append(slot)

    # -- adjacency helpers --------------------------------------------------
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

    def ln_add(self, slot: int, pid: int, leaf_slot: int) -> None:
        ln = self.ln[slot]
        if ln is None:
            ln = self.ln[slot] = IdSet()
        if pid not in ln:
            ln[pid] = leaf_slot
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
        return np.nonzero(self.column("alive"))[0]
