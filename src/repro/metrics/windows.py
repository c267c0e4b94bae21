"""Sliding event-time windows: the detectors' evidence buffers.

A :class:`SlidingWindow` holds ``(t, value)`` observations over a fixed
width of **simulated** time: pushing at time ``t`` evicts everything at
or before ``t - width``, so the retained samples are exactly the
half-open window ``(t - width, t]``.  The running sum is maintained
incrementally, so a fold over the same observations in the same order
reproduces it bit for bit.

Used by :mod:`repro.health.detectors`; generic enough for any
event-time windowed statistic.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

__all__ = ["SlidingWindow"]


class SlidingWindow:
    """Event-time window of ``(t, value)`` samples (see module docstring)."""

    __slots__ = ("width", "_items", "_sum")

    def __init__(self, width: float) -> None:
        if width <= 0:
            raise ValueError(f"window width must be positive, got {width}")
        self.width = width
        self._items: Deque[Tuple[float, float]] = deque()
        self._sum = 0.0

    def push(self, t: float, value: float) -> None:
        """Add one observation at time ``t`` and evict the expired ones."""
        self._items.append((t, value))
        self._sum += value
        self.prune(t)

    def prune(self, now: float) -> None:
        """Evict observations at or before ``now - width``."""
        cutoff = now - self.width
        items = self._items
        while items and items[0][0] <= cutoff:
            _, value = items.popleft()
            self._sum -= value

    # -- statistics --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    def sum(self) -> float:
        return self._sum

    def mean(self) -> float:
        """Window mean (0.0 when empty)."""
        if not self._items:
            return 0.0
        return self._sum / len(self._items)

    def max(self) -> float:
        """Window maximum (0.0 when empty)."""
        if not self._items:
            return 0.0
        return max(v for _, v in self._items)
