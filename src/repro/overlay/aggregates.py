"""Per-layer aggregates (the data behind Figures 4-8), folded from the
store's columns when read.

Every layer statistic the samplers and the health evidence read --
layer sizes, the size ratio, mean age and capacity, the super layer's
mean leaf-neighbor count -- reduces to per-layer counts (the registries'
lengths), ``Σ capacity`` and ``Σ join_time`` over the layer's live rows,
and the number of leaf--super links (``Σ n_super_links`` over live leaf
rows).  :attr:`Overlay.aggregates <repro.overlay.topology.Overlay.aggregates>`
folds them on first read and keeps the fold until the overlay's next
mutation, so no join, leave, role change or link pays for the plane.

The Σs are exact integers in units of 2**-1074, of which every finite
float is a multiple, so any order of summation -- the fold, a scan,
§11's shard reduction -- gives the same big int, and the means are
correctly rounded.  :func:`fold_columns` takes each value's signed
53-bit mantissa ``M`` and exponent ``e`` from ``np.frexp``
(``x · 2**1074 == M << (e + 1021)``), bincounts ``M``'s two 26-bit
halves per exponent and role (exact: every bucket stays below 2**53),
and combines the buckets that hold rows in Python ints.  A subnormal's
negative shift is exact because its mantissa carries that many trailing
zeros.  Rows go ``_CHUNK`` at a time, so a fold's temporaries stay small
at any population.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

import numpy as np

from .peer import Peer
from .roles import ROLE_LEAF, ROLE_SUPER

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (topology imports us)
    from .topology import Overlay

__all__ = ["LayerAggregate", "OverlayAggregates", "fold_columns"]

#: Exponent of the fixed-point scale: every finite float is an exact
#: integer multiple of 2**-1074, so scaling by 2**1074 loses nothing.
_FRACTION_BITS = 1074

#: Rows per fold step.
_CHUNK = 4096
#: A mantissa splits into halves of this many bits; a bucket sums at
#: most ``_CHUNK`` halves per step, far below 2**53.
_HALF = 26
#: The store columns a fold reads, in :func:`fold_columns`' order.
_FOLDED = ("alive", "role", "capacity", "join_time", "n_super_links")


def _fixed(x: float) -> int:
    """``x`` as an exact integer in units of 2**-1074."""
    p, q = x.as_integer_ratio()  # q is a power of two for finite floats
    return p << (_FRACTION_BITS - q.bit_length() + 1)


def fold_columns(
    alive: np.ndarray,
    role: np.ndarray,
    capacity: np.ndarray,
    join_time: np.ndarray,
    n_super_links: np.ndarray,
) -> Tuple[List[int], List[int], int]:
    """Exact sums over the live rows of the given columns.

    Returns ``(capacity_sums, join_time_sums, leaf_links)``: the first
    two indexed by role code, in units of 2**-1074; the last
    ``Σ n_super_links`` over live leaf rows.
    """
    sums: List[List[int]] = [[0, 0], [0, 0]]
    links = 0
    for a in range(0, len(alive), _CHUNK):
        live = alive[a : a + _CHUNK].view(np.bool_)
        codes = role[a : a + _CHUNK][live]
        if not codes.size:
            continue
        links += int(n_super_links[a : a + _CHUNK][live][codes == ROLE_LEAF].sum())
        for column, out in zip((capacity, join_time), sums):
            m, e = np.frexp(column[a : a + _CHUNK][live])
            mant = (m * 2.0**53).astype(np.int64)
            low = int(e.min())
            key = (e - low) * 2 + codes
            hi = np.bincount(key, weights=mant >> _HALF)
            lo = np.bincount(key, weights=mant & ((1 << _HALF) - 1))
            for k in np.flatnonzero(np.bincount(key)).tolist():
                v = (int(hi[k]) << _HALF) + int(lo[k])
                shift = (k >> 1) + low + _FRACTION_BITS - 53
                out[k & 1] += v << shift if shift >= 0 else v >> -shift
    return sums[0], sums[1], links


class LayerAggregate:
    """Count and exact Σs of one layer (see module docstring)."""

    __slots__ = ("count", "capacity_sum", "join_time_sum")

    def __init__(self, count: int = 0, capacity_sum: int = 0, join_time_sum: int = 0):
        self.count = count
        #: Σ capacity and Σ join_time in units of 2**-1074 (exact).
        self.capacity_sum = capacity_sum
        self.join_time_sum = join_time_sum

    def add(self, peer: Peer) -> None:
        """Count ``peer`` into this layer."""
        self.count += 1
        self.capacity_sum += _fixed(peer.capacity)
        self.join_time_sum += _fixed(peer.join_time)

    def mean_capacity(self) -> float:
        """Layer mean capacity, correctly rounded; 0.0 when empty."""
        if not self.count:
            return 0.0
        return self.capacity_sum / (self.count << _FRACTION_BITS)

    def mean_age(self, now: float) -> float:
        """Layer mean age at ``now``; 0.0 when empty."""
        if not self.count:
            return 0.0
        return now - self.join_time_sum / (self.count << _FRACTION_BITS)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LayerAggregate):
            return NotImplemented
        return (
            self.count == other.count
            and self.capacity_sum == other.capacity_sum
            and self.join_time_sum == other.join_time_sum
        )


class OverlayAggregates:
    """The aggregate plane of one overlay at one state: the exact fold
    of its columns.  Read it as ``overlay.aggregates``, which keeps the
    fold until the overlay's next mutation."""

    __slots__ = ("_overlay", "super_layer", "leaf_layer", "leaf_link_count")

    def __init__(self, overlay: "Overlay") -> None:
        self._overlay = overlay
        caps, times, links = fold_columns(*map(overlay.store.column, _FOLDED))
        self.super_layer = LayerAggregate(
            len(overlay.super_ids), caps[ROLE_SUPER], times[ROLE_SUPER]
        )
        self.leaf_layer = LayerAggregate(
            len(overlay.leaf_ids), caps[ROLE_LEAF], times[ROLE_LEAF]
        )
        #: Number of leaf--super links == Σ |leaf_neighbors| over supers.
        self.leaf_link_count = links

    # -- reads ---------------------------------------------------------------
    @property
    def n(self) -> int:
        """Total population."""
        return self.super_layer.count + self.leaf_layer.count

    def ratio(self) -> float:
        """η = n_leaf / n_super; ``inf`` with no super-peers."""
        n_super = self.super_layer.count
        if not n_super:
            return float("inf")
        return self.leaf_layer.count / n_super

    def super_mean_lnn(self) -> float:
        """Super-layer mean leaf-neighbor count; 0.0 with no supers."""
        n_super = self.super_layer.count
        if not n_super:
            return 0.0
        return self.leaf_link_count / n_super

    # -- verification --------------------------------------------------------
    def scan(self) -> "OverlayAggregates":
        """The same aggregates by a Python-level walk over the views
        (O(n); the reference the fold is checked against).

        The scan sums through the same exact fixed-point representation,
        so the fold must compare *exactly* equal.
        """
        fresh = object.__new__(OverlayAggregates)
        fresh._overlay = self._overlay
        fresh.super_layer = LayerAggregate()
        fresh.leaf_layer = LayerAggregate()
        fresh.leaf_link_count = 0
        for peer in self._overlay.peers():
            if peer.is_super:
                fresh.super_layer.add(peer)
                fresh.leaf_link_count += len(peer.leaf_neighbors)
            else:
                fresh.leaf_layer.add(peer)
        return fresh

    def mismatches(self) -> List[str]:
        """Differences against a brute-force scan (empty == consistent)."""
        fresh = self.scan()
        out: List[str] = []
        for label, mine, true in (
            ("super", self.super_layer, fresh.super_layer),
            ("leaf", self.leaf_layer, fresh.leaf_layer),
        ):
            if mine.count != true.count:
                out.append(f"{label}.count {mine.count} != scan {true.count}")
            scale = 1 << _FRACTION_BITS
            if mine.capacity_sum != true.capacity_sum:
                diff = (mine.capacity_sum - true.capacity_sum) / scale
                out.append(f"{label}.capacity_sum off by {diff}")
            if mine.join_time_sum != true.join_time_sum:
                diff = (mine.join_time_sum - true.join_time_sum) / scale
                out.append(f"{label}.join_time_sum off by {diff}")
        if self.leaf_link_count != fresh.leaf_link_count:
            out.append(
                f"leaf_link_count {self.leaf_link_count} != scan "
                f"{fresh.leaf_link_count}"
            )
        return out
