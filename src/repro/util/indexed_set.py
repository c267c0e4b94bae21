"""A set with O(1) uniform random sampling.

Random neighbor selection is the hottest overlay operation: every join
picks ``m`` random super-peers, every demotion-induced reconnect picks one,
and the Table-3 runs do this hundreds of thousands of times at n = 80 000.
A plain ``set`` cannot be sampled without materializing it; this structure
mirrors the members in a list with swap-remove deletion so membership,
insertion, deletion, and uniform choice are all O(1).
"""

from __future__ import annotations

from math import inf
from typing import Dict, Iterator, List, Sequence

import numpy as np

__all__ = ["IndexedSet"]


class IndexedSet:
    """Set of ints supporting O(1) add/discard/contains and random choice."""

    __slots__ = ("_items", "_index")

    def __init__(self, items: Sequence[int] = ()) -> None:
        self._items: List[int] = []
        self._index: Dict[int, int] = {}
        for x in items:
            self.add(x)

    def add(self, x: int) -> None:
        """Insert ``x`` if absent."""
        if x not in self._index:
            self._index[x] = len(self._items)
            self._items.append(x)

    def discard(self, x: int) -> None:
        """Remove ``x`` if present (swap-remove, O(1))."""
        i = self._index.pop(x, None)
        if i is None:
            return
        last = self._items.pop()
        if last != x:
            self._items[i] = last
            self._index[last] = i

    def choice(self, rng: np.random.Generator) -> int:
        """One uniformly random member; raises ``IndexError`` if empty."""
        if not self._items:
            raise IndexError("choice from an empty IndexedSet")
        return self._items[int(rng.integers(len(self._items)))]

    def sample(self, rng: np.random.Generator, k: int) -> List[int]:
        """Up to ``k`` distinct uniformly random members.

        Returns all members (shuffled draw order not guaranteed) when
        ``k >= len(self)``.
        """
        n = len(self._items)
        if k >= n:
            return list(self._items)
        if k <= 0:
            return []
        # For tiny k relative to n, rejection sampling beats permutation:
        # at k*8 < n the duplicate probability is low enough that the
        # first block almost always covers the whole request.
        if k * 8 < n:
            return self._fresh(rng, k, set(), inf)
        idx = rng.choice(n, size=k, replace=False)
        return [self._items[int(i)] for i in idx]

    def _fresh(self, rng, k: int, seen: set, limit: float) -> List[int]:
        """Block rejection: the first ``k`` members outside ``seen``
        (which grows by them), in draw order, from at most ``limit``
        indices.  Indices come in blocks of four more than are still
        needed -- one ``rng.integers`` call each, since the call and not
        the count is what costs (DESIGN.md §8) -- and a block's tail past
        the last pick is discarded.  Short only when ``limit`` ran out.
        """
        items = self._items
        n = len(items)
        out: List[int] = []
        need = k
        drawn = 0
        while need and drawn < limit:
            block = min(need + 4, limit - drawn)
            drawn += block
            for i in rng.integers(n, size=block):
                x = items[i]
                if x not in seen:
                    seen.add(x)
                    out.append(x)
                    need -= 1
                    if not need:
                        break
        return out

    def snapshot(self) -> List[int]:
        """The members in exact internal order (swap-remove history and all).

        Order matters: :meth:`choice`/:meth:`sample` index into the list,
        so a bit-identical restore must reproduce it element for element.
        """
        return list(self._items)

    def restore(self, items: Sequence[int]) -> None:
        """Replace the contents with a :meth:`snapshot`, preserving order."""
        self._items = list(items)
        self._index = {x: i for i, x in enumerate(self._items)}

    def __contains__(self, x: int) -> bool:
        return x in self._index

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[int]:
        return iter(self._items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IndexedSet({self._items!r})"
