"""The two-layer overlay graph.

Maintains the peer registry, the super/leaf partition, and the adjacency
between and within layers, enforcing the structural rules of a super-peer
network (paper §3):

* leaf--super links: each leaf holds links to super-peers only;
* super--super links: the super-layer backbone along which queries flood;
* leaf--leaf links never exist.

Role transitions (the mechanics of Figures 2 and 3) are implemented here:

* :meth:`promote` -- the leaf keeps its existing connections to other
  super-peers, which simply become backbone links (Figure 2).
* :meth:`demote` -- the super-peer keeps only ``m`` of its super links
  (which become its leaf->super links) and drops all leaf links; the
  orphaned leaves are returned so the maintenance layer can reconnect them
  (Figure 3).  Those reconnects are the Peer Adjustment Overhead of §6.

Peer state lives in a columnar :class:`~repro.overlay.peerstore.PeerStore`
owned by the overlay, and a row lives nowhere else: :meth:`add_peer` is
the one place a row is created, :meth:`remove_peer` the one place it is
freed, and the methods here (through the store's ``sn_``/``ln_``/``ct_``
helpers, which keep the ``n_super_links``/``n_leaf_links`` degree columns
the DLM evaluator reads as ``l_nn``) are the only writers of its role and
link columns.  The registry maps pids to read-only :class:`Peer` views of
the rows; it is the only map from a pid to its slot.  ``remove_peer`` fires its leave listeners while the severed
row is still in place, then frees the slot for reuse and invalidates the
view: any later read through it raises :class:`OverlayError`.

Observers can subscribe to four event streams, which together are
sufficient to maintain any derived state (the search index relies on
this):

* **link events** -- ``fn(a, b, created)`` on every link creation/drop,
  fired while both endpoints are still registered with their
  at-event-time roles;
* **connection listeners** -- creation-only convenience stream (DLM's
  event-driven information exchange hangs off it);
* **membership events** -- ``fn(peer, joined)``; the leave notification
  fires after the peer's links have been dropped and it has left the
  registry, and is the last moment its :class:`Peer` view is readable;
* **role events** -- ``fn(peer, old_role)`` after a promotion/demotion
  has re-filed the peer's links.

:meth:`random_supers` draws call by call from a stream a run reads a
block ahead (DESIGN.md §8 "Draw by the block").
"""

from __future__ import annotations

import itertools
from array import array
from typing import Callable, Dict, Iterable, List, NoReturn, Optional, Tuple

import numpy as np

from ..util.idset import IdSet
from ..util.indexed_set import IndexedSet
from .aggregates import OverlayAggregates
from .knowledge import restore_cache, snapshot_cache
from .peer import Peer
from .peerstore import ROLE_LEAF, ROLE_SUPER, PeerStore
from .roles import Role

__all__ = [
    "Overlay",
    "OverlayError",
    "ConnectionListener",
    "LinkListener",
    "MembershipListener",
    "RoleListener",
]

ConnectionListener = Callable[[int, int], None]
LinkListener = Callable[[int, int, bool], None]
MembershipListener = Callable[[Peer, bool], None]
RoleListener = Callable[[Peer, Role], None]


class OverlayError(RuntimeError):
    """Structural violation of the two-layer overlay rules."""


class _Departed:
    """What a view's ``_store`` becomes when its peer leaves: the slot
    may already belong to another peer, so every column read raises."""

    __slots__ = ()

    def __getattr__(self, name: str) -> NoReturn:
        raise OverlayError("peer has left the overlay; its view is stale")


_DEPARTED = _Departed()


def _view(store: PeerStore, slot: int, pid: int) -> Peer:
    """The one :class:`Peer` view of the row ``pid`` was just given."""
    v = Peer.__new__(Peer)
    v.pid = pid
    v._store = store
    v._slot = slot
    return v

#: The store columns a snapshot carries, in snapshot order -- which is
#: also :meth:`PeerStore.alloc`'s argument order.
_SNAPSHOT_COLUMNS = (
    "pid", "role", "capacity", "join_time", "lifetime", "role_change_time", "eligible"
)


class Overlay:
    """Registry + adjacency for a two-layer super-peer network."""

    def __init__(self) -> None:
        #: Columnar state for every registered peer; the registry below
        #: is the one map from a pid to its row (``_peers[pid]._slot``).
        self.store = PeerStore()
        self._peers: Dict[int, Peer] = {}
        # Bound-lookup cache: `get` is the hottest overlay call -- DLM's
        # Phase-1/2 paths (info exchange, related-set construction, the
        # fused super evaluation) resolve pids through it on every
        # connection event.  Binding the registry dict's own `.get` here
        # shadows the method below and drops one Python frame per lookup;
        # the method definition stays as the documented contract.
        self.get = self._peers.get
        self.super_ids = IndexedSet()
        self.leaf_ids = IndexedSet()
        self._connection_listeners: List[ConnectionListener] = []
        self._link_listeners: List[LinkListener] = []
        self._membership_listeners: List[MembershipListener] = []
        self._role_listeners: List[RoleListener] = []
        # Cumulative structural-churn counters (consumed by metrics).
        self.total_joins = 0
        self.total_leaves = 0
        self.total_promotions = 0
        self.total_demotions = 0
        self.total_connections_created = 0
        # The O(1) aggregate plane rides the listener hooks above; it
        # must register first so derived state (samplers, DLM probes)
        # reading it from a later listener sees post-event values.
        self.aggregates = OverlayAggregates(self)

    # -- registry --------------------------------------------------------
    def __contains__(self, pid: int) -> bool:
        return pid in self._peers

    def __len__(self) -> int:
        return len(self._peers)

    @property
    def n(self) -> int:
        """Total number of peers."""
        return len(self._peers)

    @property
    def n_super(self) -> int:
        """Size of the super-layer."""
        return len(self.super_ids)

    @property
    def n_leaf(self) -> int:
        """Size of the leaf-layer."""
        return len(self.leaf_ids)

    def layer_size_ratio(self) -> float:
        """η = n_leaf / n_super (paper §3); ``inf`` with no super-peers."""
        if self.n_super == 0:
            return float("inf")
        return self.n_leaf / self.n_super

    def peer(self, pid: int) -> Peer:
        """Look up a peer; ``KeyError`` if absent."""
        return self._peers[pid]

    def get(self, pid: int) -> Optional[Peer]:
        """Look up a peer or ``None``."""
        return self._peers.get(pid)

    def peers(self) -> Iterable[Peer]:
        """All peers (no order guarantee)."""
        return self._peers.values()

    # -- listeners ---------------------------------------------------------
    def add_connection_listener(self, fn: ConnectionListener) -> None:
        """``fn(a, b)`` fires after every new link is created."""
        self._connection_listeners.append(fn)

    def add_link_listener(self, fn: LinkListener) -> None:
        """``fn(a, b, created)`` fires on every link creation and drop."""
        self._link_listeners.append(fn)

    def add_membership_listener(self, fn: MembershipListener) -> None:
        """``fn(peer, joined)`` fires on every join and leave."""
        self._membership_listeners.append(fn)

    def add_role_listener(self, fn: RoleListener) -> None:
        """``fn(peer, old_role)`` fires after every promotion/demotion."""
        self._role_listeners.append(fn)

    def _notify_link(self, a: int, b: int, created: bool) -> None:
        for fn in self._link_listeners:
            fn(a, b, created)
        if created:
            for fn in self._connection_listeners:
                fn(a, b)

    # -- membership --------------------------------------------------------
    def add_peer(
        self,
        pid: int,
        role: Role,
        capacity: float,
        join_time: float,
        lifetime: float,
        *,
        eligible: bool = True,
    ) -> Peer:
        """Create an unconnected peer in ``role``'s layer; returns its view.

        The only way a peer row comes into existence.  ``role`` may be a
        :class:`Role` or its string value; the row's ``role_change_time``
        starts at ``join_time`` (joining counts as a role change).
        """
        if pid in self._peers:
            raise OverlayError(f"duplicate pid {pid}")
        role = Role(role)
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        if lifetime <= 0:
            raise ValueError(f"lifetime must be > 0, got {lifetime}")
        store = self.store
        code = ROLE_SUPER if role is Role.SUPER else ROLE_LEAF
        peer = self._peers[pid] = _view(
            store,
            store.alloc(pid, code, capacity, join_time, lifetime, join_time, eligible),
            pid,
        )
        (self.super_ids if role is Role.SUPER else self.leaf_ids).add(pid)
        self.total_joins += 1
        for fn in self._membership_listeners:
            fn(peer, True)
        return peer

    def remove_peer(self, pid: int) -> Tuple[List[int], List[int]]:
        """Remove a peer and sever all its links.

        Returns ``(orphaned_leaves, former_super_neighbors)``: leaves that
        lost this peer as one of their supers (empty unless the peer was a
        super), and the super-peers it was linked to.  The maintenance
        layer uses these to restore the orphans' link counts.
        """
        peer = self._peers.get(pid)
        if peer is None:
            raise OverlayError(f"unknown pid {pid}")
        store = self.store
        slot = peer._slot
        is_super = store.role[slot] == ROLE_SUPER
        former_supers = list(store.sn[slot])
        ln = store.ln[slot]
        orphans = list(ln) if ln else []
        # Notify drops while both endpoints are still registered.
        for other in former_supers:
            self._notify_link(pid, other, False)
        for other in orphans:
            self._notify_link(pid, other, False)
        # Sever.
        peers = self._peers
        for sid in former_supers:
            oslot = peers[sid]._slot
            if is_super:
                store.sn_discard(oslot, pid)
            else:
                store.ln_discard(oslot, pid)
        for lslot in ln.values() if ln else ():
            store.sn_discard(lslot, pid)
        store.sn[slot] = ()
        store.n_super_links[slot] = 0
        store.ln_clear(slot)
        del peers[pid]
        (self.super_ids if is_super else self.leaf_ids).discard(pid)
        self.total_leaves += 1
        # Leave listeners read the peer's final state from the row, so it
        # is freed only after they ran; a view kept past this point must
        # not show whichever peer takes the slot next.
        for fn in self._membership_listeners:
            fn(peer, False)
        store.free(slot)
        peer._store = _DEPARTED
        return orphans, former_supers

    # -- links --------------------------------------------------------------
    def connected(self, a: int, b: int) -> bool:
        """Whether a link exists between peers ``a`` and ``b``."""
        store = self.store
        slot = self._peers[a]._slot
        ln = store.ln[slot]
        return b in store.sn[slot] or (ln is not None and b in ln)

    def connect(self, a: int, b: int) -> bool:
        """Create a link; returns False if it already existed.

        Valid link types are leaf--super and super--super; leaf--leaf and
        self-links raise :class:`OverlayError`.
        """
        if a == b:
            raise OverlayError(f"self-link on pid {a}")
        store = self.store
        peers = self._peers
        sa, sb = peers[a]._slot, peers[b]._slot
        leaf_index = self.leaf_ids._index
        a_leaf = a in leaf_index
        b_leaf = b in leaf_index
        if a_leaf and b_leaf:
            raise OverlayError(f"leaf-leaf link {a}--{b} is not allowed")
        # Inlined `connected` check against the already-resolved slot:
        # connect fires on every join/repair, so duplicate lookups were
        # measurable at Table-3 scale.
        ln_a = store.ln[sa]
        if b in store.sn[sa] or (ln_a is not None and b in ln_a):
            return False
        if b_leaf:
            store.ln_add(sa, b, sb)
        else:
            store.sn_add(sa, b)
        if a_leaf:
            store.ln_add(sb, a, sa)
        else:
            store.sn_add(sb, a)
        if a_leaf:
            store.ct_add(sa, b)
        if b_leaf:
            store.ct_add(sb, a)
        self.total_connections_created += 1
        self._notify_link(a, b, True)
        return True

    def disconnect(self, a: int, b: int) -> bool:
        """Remove the link between ``a`` and ``b``; False if absent."""
        store = self.store
        peers = self._peers
        sa, sb = peers[a]._slot, peers[b]._slot
        ln_a = store.ln[sa]
        if b not in store.sn[sa] and (ln_a is None or b not in ln_a):
            return False
        self._notify_link(a, b, False)
        store.sn_discard(sa, b)
        store.ln_discard(sa, b)
        store.sn_discard(sb, a)
        store.ln_discard(sb, a)
        return True

    # -- role transitions ----------------------------------------------------
    def promote(self, pid: int) -> None:
        """Leaf -> super (Figure 2).

        The peer keeps its current links to super-peers; on both endpoints
        they are re-filed from leaf--super to super--super links.  Its
        leaf-side related-set bookkeeping is cleared (a super-peer's ``G``
        is its leaf neighbors, which start empty).
        """
        peer = self._peers[pid]
        if peer.is_super:
            raise OverlayError(f"pid {pid} is already a super-peer")
        store = self.store
        slot = peer._slot
        store.role[slot] = ROLE_SUPER
        self.leaf_ids.discard(pid)
        self.super_ids.add(pid)
        peers = self._peers
        for sid in store.sn[slot]:
            oslot = peers[sid]._slot
            store.ln_discard(oslot, pid)
            store.sn_add(oslot, pid)
        store.ct[slot] = ()
        self.total_promotions += 1
        for fn in self._role_listeners:
            fn(peer, Role.LEAF)

    def demote(self, pid: int, m: int, rng: np.random.Generator) -> List[int]:
        """Super -> leaf (Figure 3).

        Keeps ``m`` randomly chosen super links (they become the new
        leaf's super connections), drops the rest, and drops all leaf
        links.  Returns the orphaned leaf pids; each must be reconnected
        to one replacement super-peer by the maintenance layer (this is
        the PAO of §6: one new connection each, versus ``m`` for a fresh
        join).
        """
        peer = self._peers[pid]
        if peer.is_leaf:
            raise OverlayError(f"pid {pid} is already a leaf-peer")
        store = self.store
        slot = peer._slot

        supers = list(store.sn[slot])
        if len(supers) > m:
            kept_idx = rng.choice(len(supers), size=m, replace=False)
            # Keep `kept` an ordered list (adjacency order): it is iterated
            # below and seeds contacted_supers, so its order must be
            # deterministic and checkpoint-reconstructible.
            kept = [supers[int(i)] for i in kept_idx]
        else:
            kept = supers
        kept_set = set(kept)

        # Drop surplus super links and all leaf links (notifying while the
        # peer is still a super-peer, so observers see the true link types).
        peers = self._peers
        ln = store.ln[slot]
        orphans = list(ln) if ln else []
        for sid in supers:
            if sid not in kept_set:
                self._notify_link(pid, sid, False)
                store.sn_discard(peers[sid]._slot, pid)
                store.sn_discard(slot, sid)
        for lid, lslot in ln.items() if ln else ():
            self._notify_link(pid, lid, False)
            store.sn_discard(lslot, pid)
        store.ln_clear(slot)

        store.role[slot] = ROLE_LEAF
        self.super_ids.discard(pid)
        self.leaf_ids.add(pid)
        # Re-file the retained links on the other endpoints.
        for sid in kept:
            oslot = peers[sid]._slot
            store.sn_discard(oslot, pid)
            store.ln_add(oslot, pid, slot)
        store.ct[slot] = tuple(kept)
        self.total_demotions += 1
        for fn in self._role_listeners:
            fn(peer, Role.SUPER)
        return orphans

    # -- sampling -------------------------------------------------------------
    def random_supers(
        self, rng: np.random.Generator, k: int, exclude: Iterable[int] = ()
    ) -> List[int]:
        """Up to ``k`` distinct random super-peers, avoiding ``exclude``.

        Models the paper's assumption that "new peers randomly select
        active peers as neighbors based on the bootstrapping and joining
        mechanisms currently used" (§3).

        Sampling is block-rejection over the super layer's dense member
        list (:meth:`IndexedSet._fresh`).  One ``rng.integers`` call
        costs microseconds whether it returns 5 indices or 500, more than
        everything else in this method, so a run reads the stream through
        a :class:`~repro.sim.rng.DrawAhead`, which makes it a slice of a
        block (DESIGN.md §8).  When exclusion leaves at most ``k``
        candidates the result is forced, so no randomness is consumed
        at all.

        ``exclude`` is any iterable of pids, never mutated (a set is read
        in place, anything else copied into one); non-supers in it are
        ignored.  A caller linked to every super gets ``[]`` undrawn.
        """
        supers = self.super_ids
        items = supers._items
        if k <= 0 or not items:
            return []
        excl = exclude if isinstance(exclude, (set, frozenset)) else set(exclude)
        if not excl:
            return supers.sample(rng, k)
        index = supers._index
        avail = len(items)
        for x in excl:
            if x in index:
                avail -= 1
        if avail <= 0:
            return []
        if avail <= k:
            # Every non-excluded super is chosen: the outcome is forced,
            # draw nothing.
            return [s for s in items if s not in excl]
        seen = set(excl)
        out = supers._fresh(rng, k, seen, 16 * k)
        if len(out) < k:
            # Dense exclusion defeated rejection; exact filtered draw.
            pool = [s for s in items if s not in seen]
            size = min(k - len(out), len(pool))
            idx = rng.choice(len(pool), size=size, replace=False)
            out.extend(pool[int(i)] for i in np.atleast_1d(idx))
        return out

    # -- invariants -------------------------------------------------------------
    def check_invariants(self, *, aggregates: bool = False) -> None:
        """Verify the structural rules; raises :class:`OverlayError`.

        Intended for tests and debugging -- O(edges).  With
        ``aggregates=True`` the O(1) aggregate counters are additionally
        verified against a brute-force scan.  Also cross-verifies the
        store's degree columns against the actual adjacency containers.
        """
        if aggregates:
            problems = self.aggregates.mismatches()
            if problems:
                raise OverlayError(
                    "aggregate counters diverged from scan: "
                    + "; ".join(problems)
                )
        # Layer set algebra over sorted int64 arrays, not Python sets: at
        # n=10^6 the three set copies were a ~130 MB transient that
        # dominated the process peak RSS the million-peer probe records.
        supers = self.super_ids
        leaves = self.leaf_ids
        both = np.fromiter(
            itertools.chain(supers, leaves),
            dtype=np.int64,
            count=len(supers) + len(leaves),
        )
        both.sort(kind="stable")
        # Each registry is duplicate-free, so a repeat across the
        # concatenation is a pid present in both layers.
        if both.size and np.any(both[1:] == both[:-1]):
            raise OverlayError("a pid is in both layers")
        pids = np.fromiter(self._peers, dtype=np.int64, count=len(self._peers))
        pids.sort(kind="stable")
        if not np.array_equal(both, pids):
            raise OverlayError("layer registries out of sync with peer registry")
        del both, pids
        store = self.store
        for peer in self._peers.values():
            slot = peer._slot
            if store.pid[slot] != peer.pid or not store.alive[slot]:
                raise OverlayError(f"stale store row for pid {peer.pid}")
            if store.n_super_links[slot] != len(store.sn[slot]):
                raise OverlayError(f"n_super_links drift for pid {peer.pid}")
            ln = store.ln[slot]
            if store.n_leaf_links[slot] != (len(ln) if ln else 0):
                raise OverlayError(f"n_leaf_links drift for pid {peer.pid}")
            if peer.is_super != (peer.pid in supers):
                raise OverlayError(f"role mismatch for pid {peer.pid}")
            if peer.is_leaf and ln:
                raise OverlayError(f"leaf {peer.pid} has leaf neighbors")
            for sid in store.sn[slot]:
                other = self._peers.get(sid)
                if other is None or not other.is_super:
                    raise OverlayError(
                        f"pid {peer.pid} lists non-super {sid} as super neighbor"
                    )
                back = (
                    other.super_neighbors if peer.is_super else other.leaf_neighbors
                )
                if peer.pid not in back:
                    raise OverlayError(f"asymmetric link {peer.pid}--{sid}")
            for lid, s in ln.items() if ln else ():
                other = self._peers.get(lid)
                if other is None or not other.is_leaf:
                    raise OverlayError(
                        f"pid {peer.pid} lists non-leaf {lid} as leaf neighbor"
                    )
                # The carried slot is the leaf's own, live, leaf row.
                if (
                    other._slot is not s
                    or store.pid[s] != lid
                    or not (store.alive[s] and store.role[s] == ROLE_LEAF)
                ):
                    raise OverlayError(f"pid {peer.pid} carries slot {s!r} for {lid}")
                if peer.pid not in other.super_neighbors:
                    raise OverlayError(f"asymmetric link {peer.pid}--{lid}")

    # -- checkpointing -----------------------------------------------------------
    def snapshot(self) -> dict:
        """Full topology state: columnar peer arrays (with ordered
        adjacency), layers, cumulative counters.

        The scalar columns are emitted in registry (insertion) order --
        compact to pickle and exactly sufficient to rebuild the store.
        Listener lists are wiring, not state, and the aggregates are
        derived -- both are re-established by the composition root.
        """
        store = self.store
        n = len(self._peers)
        slots = np.fromiter(
            (p._slot for p in self._peers.values()), dtype=np.int64, count=n
        )
        # Columns are emitted as raw little-endian bytes: as compact as
        # the arrays themselves, but plain data -- picklable, hashable,
        # and `==`-comparable like every other snapshot in the system.
        return {
            "n": n,
            "columns": {
                name: store.column(name)[slots].tobytes() for name in _SNAPSHOT_COLUMNS
            },
            "sn": [store.sn[s] for s in slots],
            "ln": [tuple(store.ln[s]) if store.ln[s] else None for s in slots],
            "ct": [store.ct[s] for s in slots],
            "knowledge": [snapshot_cache(store.kn[s]) for s in slots],
            "super_ids": self.super_ids.snapshot(),
            "leaf_ids": self.leaf_ids.snapshot(),
            "total_joins": self.total_joins,
            "total_leaves": self.total_leaves,
            "total_promotions": self.total_promotions,
            "total_demotions": self.total_demotions,
            "total_connections_created": self.total_connections_created,
        }

    def restore(self, state: dict) -> None:
        """Rebuild the topology from a :meth:`snapshot`.

        Must be called on a freshly wired (empty) overlay.  Rows are
        rebuilt in snapshot order (preserving registry iteration order);
        no membership/link listeners fire, since derived state
        (aggregates, search index) restores from its own snapshot or a
        rebuild.  The registry dict is mutated in place: ``self.get`` is
        a bound method of that exact dict.
        """
        peers = self._peers
        if peers:
            raise OverlayError("restore requires an empty overlay")
        store = self.store
        raw = state["columns"]
        cols = [array(getattr(store, c).typecode, raw[c]) for c in _SNAPSHOT_COLUMNS]
        linked = []
        for i, row in enumerate(zip(*cols)):
            pid = row[0]
            if pid in peers:
                raise OverlayError(f"duplicate pid {pid} in snapshot")
            slot = store.alloc(*row)
            sn = tuple(state["sn"][i])
            store.sn[slot] = sn
            store.n_super_links[slot] = len(sn)
            if state["ln"][i]:
                linked.append((slot, state["ln"][i]))
            store.ct[slot] = tuple(state["ct"][i])
            kn = state["knowledge"][i]
            if kn is not None:  # an emptied cache stays a cache
                store.kn[slot] = restore_cache(kn)
            peers[pid] = _view(store, slot, pid)
        # Each leaf link carries the leaf's slot: the int its view holds.
        for slot, ln in linked:
            store.ln[slot] = IdSet({lid: peers[lid]._slot for lid in ln})
            store.n_leaf_links[slot] = len(ln)
        self.super_ids.restore(state["super_ids"])
        self.leaf_ids.restore(state["leaf_ids"])
        self.total_joins = state["total_joins"]
        self.total_leaves = state["total_leaves"]
        self.total_promotions = state["total_promotions"]
        self.total_demotions = state["total_demotions"]
        self.total_connections_created = state["total_connections_created"]
        self.aggregates.resync()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Overlay(n={self.n}, supers={self.n_super}, leaves={self.n_leaf}, "
            f"eta={self.layer_size_ratio():.2f})"
        )
