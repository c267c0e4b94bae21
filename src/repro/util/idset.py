"""An insertion-ordered integer set with reconstructible iteration order.

The built-in ``set`` iterates in an order that depends on its full
insertion/deletion *history* (hash-table layout, tombstones, resizes), not
just on its current members -- two sets with equal contents can iterate
differently.  That is invisible hidden state: a peer's neighbor set
rebuilt from a checkpoint would iterate differently from the lived-in
original, and neighbor iteration order feeds directly into RNG-indexed
selection (demotion keeps ``rng.choice`` over the iterated list), flood
order, and maintenance repair order -- so checkpoint resume would diverge.

``IdSet`` is a thin ``dict`` subclass (keys are the members, values are
``None``).  Dict keys iterate in insertion order with deletions simply
dropping out, so the order is a pure function of the operation sequence
*and* can be captured and reproduced exactly by re-inserting a snapshot's
``list(s)``.  Membership, ``add``, ``discard``, ``len`` and iteration all
stay at C-dict speed; only ``add``/``discard`` pay one extra Python frame
over built-in ``set``.
"""

from __future__ import annotations

from typing import Iterable, Iterator

__all__ = ["IdSet"]


class IdSet(dict):
    """Ordered set of ints: dict keys, insertion-ordered, values unused."""

    __slots__ = ()

    def __init__(self, items: Iterable[int] = ()) -> None:
        super().__init__()
        for x in items:
            self[x] = None

    # -- set API -------------------------------------------------------------
    def add(self, x: int) -> None:
        """Insert ``x`` (appends to the iteration order if absent)."""
        self[x] = None

    def discard(self, x: int) -> None:
        """Remove ``x`` if present."""
        dict.pop(self, x, None)

    def remove(self, x: int) -> None:
        """Remove ``x``; raises ``KeyError`` if absent."""
        del self[x]

    def update(self, items: Iterable[int]) -> None:  # type: ignore[override]
        """Insert every element of ``items`` in order."""
        for x in items:
            self[x] = None

    def copy(self) -> "IdSet":
        """An order-preserving copy."""
        return IdSet(self)

    def __or__(self, other: Iterable[int]) -> set:  # type: ignore[override]
        """Union as a plain ``set`` (analysis-side convenience, unordered)."""
        out = set(self)
        out.update(other)
        return out

    def __ror__(self, other: Iterable[int]) -> set:  # type: ignore[override]
        return self.__or__(other)

    def __le__(self, other) -> bool:  # type: ignore[override]
        """Subset test against any container supporting ``in``."""
        return all(x in other for x in self)

    def __lt__(self, other) -> bool:  # type: ignore[override]
        return len(self) < len(other) and self.__le__(other)

    def __ge__(self, other: Iterable[int]) -> bool:  # type: ignore[override]
        return all(x in self for x in other)

    def __gt__(self, other) -> bool:  # type: ignore[override]
        return len(self) > len(other) and self.__ge__(other)

    def issubset(self, other) -> bool:
        """Whether every member is in ``other``."""
        return self.__le__(other)

    def issuperset(self, other: Iterable[int]) -> bool:
        """Whether ``other``'s members are all present."""
        return self.__ge__(other)

    def __iter__(self) -> Iterator[int]:
        return dict.__iter__(self)

    # -- equality ------------------------------------------------------------
    # Content equality against plain sets keeps existing call sites and
    # tests (``peer.leaf_neighbors == {4, 5}``) working; IdSet-to-IdSet
    # equality is dict equality, which ignores order like a set would.
    def __eq__(self, other: object) -> bool:
        if isinstance(other, (set, frozenset)):
            return set(self) == other
        if isinstance(other, dict):
            return dict.__eq__(self, other)
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IdSet({list(self)!r})"
