"""The content directory: per-peer files and per-super leaf indexes.

"Each super-peer behaves like a proxy or agent of its leaf-peers, and
keeps an index of its leaf-peers' shared data" (§3).  The directory
subscribes to the overlay's event streams and maintains, incrementally:

* ``files(pid)`` -- the immutable shared-file set assigned at join;
* a per-super multiset index of the objects its *current* leaf neighbors
  share, updated on every link change, role change, and departure;
* the inverted view of both, ``holders(obj)`` -- the supers that resolve
  ``obj`` from their own files or their index -- which lets the flood
  router test a whole BFS level for hits with one set intersection.

Incremental maintenance is what makes query simulation affordable; its
correctness against a from-scratch rebuild is property-tested
(``tests/properties/test_index_consistency.py``).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..overlay.peer import Peer
from ..overlay.roles import Role
from ..overlay.topology import Overlay
from .content import ContentCatalog

__all__ = ["ContentDirectory"]


class ContentDirectory:
    """Assigns shared files at join and keeps super-peer indexes current."""

    def __init__(
        self,
        overlay: Overlay,
        catalog: ContentCatalog,
        rng: np.random.Generator,
        *,
        files_per_peer: int = 10,
    ) -> None:
        if files_per_peer < 0:
            raise ValueError(f"files_per_peer must be >= 0, got {files_per_peer}")
        self.overlay = overlay
        self.catalog = catalog
        self.files_per_peer = files_per_peer
        self._rng = rng
        self._files: Dict[int, Tuple[int, ...]] = {}
        self._index: Dict[int, Counter] = {}
        # obj -> supers s with super_hit(s, obj); no empty entries.  Lists:
        # a set each doubles their memory, set.intersection takes iterables.
        self._holders: Dict[int, List[int]] = {}
        overlay.add_membership_listener(self._on_membership)
        overlay.add_link_listener(self._on_link)
        overlay.add_role_listener(self._on_role_change)

    # -- queries the router uses ---------------------------------------------
    def files(self, pid: int) -> Tuple[int, ...]:
        """The shared-file set of a live peer (empty if unknown)."""
        return self._files.get(pid, ())

    def super_hit(self, super_id: int, obj: int) -> bool:
        """Does this super-peer resolve ``obj`` locally or via its index?"""
        if obj in self._files.get(super_id, ()):
            return True
        idx = self._index.get(super_id)
        return bool(idx) and idx.get(obj, 0) > 0

    def holders(self, obj: int) -> Sequence[int]:
        """The supers for which :meth:`super_hit` is true, in no order.

        The directory's live state: callers must not mutate or keep it.
        """
        return self._holders.get(obj, ())

    def hit_tables(self) -> Tuple[Dict[int, Tuple[int, ...]], Dict[int, Counter]]:
        """The live ``(files, index)`` lookup tables, for read-only use.

        A caller testing :meth:`super_hit` for many supers can inline it
        against these.  Callers must treat both mappings as read-only;
        they are the directory's live state.
        """
        return self._files, self._index

    def holders_via_super(self, super_id: int, obj: int) -> int:
        """Number of copies reachable through this super (self + leaves)."""
        own = 1 if obj in self._files.get(super_id, ()) else 0
        idx = self._index.get(super_id)
        return own + (idx.get(obj, 0) if idx else 0)

    def index_size(self, super_id: int) -> int:
        """Total indexed (object, leaf) entries for a super-peer."""
        idx = self._index.get(super_id)
        return int(sum(idx.values())) if idx else 0

    # -- event maintenance -----------------------------------------------------
    # (The two per-link loops run once per shared file on every leaf
    # attach/detach: they probe the Counter with C-level calls only --
    # ``Counter.__missing__`` is interpreted.)
    def _index_leaf(self, sup: int, leaf_files: Tuple[int, ...]) -> None:
        """A leaf sharing ``leaf_files`` attached to super ``sup``."""
        idx = self._index.get(sup)
        if idx is None:
            idx = self._index[sup] = Counter()
        own = self._files.get(sup, ())
        count = idx.get
        holders = self._holders
        for obj in leaf_files:
            cnt = count(obj)
            if cnt:
                idx[obj] = cnt + 1
            else:
                idx[obj] = 1
                if obj not in own:
                    holders.setdefault(obj, []).append(sup)

    def _unindex_leaf(self, sup: int, leaf_files: Tuple[int, ...]) -> None:
        """A leaf sharing ``leaf_files`` detached from super ``sup``."""
        idx = self._index[sup]
        own = self._files.get(sup, ())
        holders = self._holders
        for obj in leaf_files:
            cnt = idx[obj]
            if cnt > 1:
                idx[obj] = cnt - 1
            else:
                del idx[obj]
                if obj not in own:  # _unhold, inlined
                    h = holders[obj]
                    if len(h) == 1:
                        del holders[obj]
                    else:
                        h.remove(sup)

    def _unhold(self, sup: int, obj: int) -> None:
        """``sup`` stops resolving ``obj`` (no empty entry stays behind)."""
        h = self._holders[obj]
        if len(h) == 1:
            del self._holders[obj]
        else:
            h.remove(sup)

    def _open_index(self, pid: int) -> None:
        """``pid`` is a super from now on: empty index, own files held."""
        self._index[pid] = Counter()
        for obj in self._files.get(pid, ()):
            self._holders.setdefault(obj, []).append(pid)

    def _close_index(self, pid: int) -> None:
        """``pid`` stops being a super (if it was one).  Its leaf links
        were all notified as dropped first, so only own files are held."""
        if self._index.pop(pid, None) is not None:
            for obj in self._files.get(pid, ()):
                self._unhold(pid, obj)

    def _on_membership(self, peer: Peer, joined: bool) -> None:
        if joined:
            self._files[peer.pid] = self.catalog.sample_shared_set(
                self._rng, self.files_per_peer
            )
            if peer.is_super:
                self._open_index(peer.pid)
        else:
            self._close_index(peer.pid)
            self._files.pop(peer.pid, None)

    def _on_link(self, a: int, b: int, created: bool) -> None:
        supers = self.overlay.super_ids  # a dict probe, not a Peer view
        a_super = a in supers
        if a_super == (b in supers):
            return  # backbone links carry no index entries
        sup, leaf = (a, b) if a_super else (b, a)
        if created:
            self._index_leaf(sup, self._files.get(leaf, ()))
        else:
            self._unindex_leaf(sup, self._files.get(leaf, ()))

    def _on_role_change(self, peer: Peer, old_role: Role) -> None:
        my_files = self._files.get(peer.pid, ())
        if old_role is Role.LEAF:
            # Promotion: retained links became backbone links, so the
            # peer's files leave its former supers' indexes; it starts
            # indexing (no leaves yet).
            for sid in peer.super_neighbors:
                self._unindex_leaf(sid, my_files)
            self._open_index(peer.pid)
        else:
            # Demotion: orphan/surplus drops were notified as links while
            # still super; the retained links were re-filed to
            # leaf--super, so the new leaf's files enter the keepers'
            # indexes, and its own index dissolves.
            self._close_index(peer.pid)
            for sid in peer.super_neighbors:
                self._index_leaf(sid, my_files)

    # -- checkpointing -----------------------------------------------------------
    def snapshot(self) -> dict:
        """Checkpoint state: the per-peer file assignments only.

        The per-super indexes and the holder view over them are derived
        data -- rebuilt from the restored overlay topology plus the file
        table, exactly as :meth:`rebuild_index` defines them -- so they
        are not pickled.
        """
        return {"files": list(self._files.items())}

    def restore(self, state: dict) -> None:
        """Restore the file table and re-derive the indexes and holders."""
        self._files = {pid: tuple(files) for pid, files in state["files"]}
        self._index = {
            int(sid): self.rebuild_index(int(sid)) for sid in self.overlay.super_ids
        }
        self._holders = self._invert(self._index)

    # -- verification ------------------------------------------------------------
    def _invert(self, index: Dict[int, Counter]) -> Dict[int, List[int]]:
        """The holder view of ``index`` plus every indexed super's own files."""
        holders: Dict[int, List[int]] = {}
        for sid, idx in index.items():
            for obj in idx.keys() | self._files.get(sid, ()):
                holders.setdefault(obj, []).append(sid)
        return holders

    def rebuild_index(self, super_id: int) -> Counter:
        """From-scratch index of one super (ground truth for tests)."""
        peer = self.overlay.peer(super_id)
        fresh: Counter = Counter()
        for lid in peer.leaf_neighbors:
            for obj in self._files.get(lid, ()):
                fresh[obj] += 1
        return fresh

    def check_consistency(self) -> None:
        """Assert the incremental state matches a from-scratch rebuild.

        Every super's index against :meth:`rebuild_index`, and the holder
        view against a brute-force scan of every super's files and
        rebuilt index (no missing, stale, duplicate or empty entries).
        """
        fresh_index = {sid: self.rebuild_index(sid) for sid in self.overlay.super_ids}
        for sid, fresh in fresh_index.items():
            live = self._index.get(sid, Counter())
            if +live != fresh:  # unary + drops zero/negative entries
                raise AssertionError(
                    f"index drift on super {sid}: {live} != {fresh}"
                )
        fresh_holders = self._invert(fresh_index)
        # Compared as sorted lists, so a duplicate or empty entry is drift.
        if {obj: sorted(h) for obj, h in self._holders.items()} != {
            obj: sorted(h) for obj, h in fresh_holders.items()
        }:
            raise AssertionError(
                f"holder view drift: {self._holders} != {fresh_holders}"
            )
