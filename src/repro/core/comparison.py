"""Phase 3: the scaled comparison.

Directly from the paper's pseudo-code::

    for all peer d_i in G(d):
        if capacity(d_i) * X_capa > capacity(d): Y_capa += 1/|G(d)|
        if age(d_i)      * X_age  > age(d):      Y_age  += 1/|G(d)|

``Y_capa`` and ``Y_age`` are the fractions of the related set whose
(scaled) metric values exceed the local peer's -- both in [0, 1].  Small
Y means the local peer is relatively strong; large Y, relatively weak.

A leaf's G holds a handful of supers, so its comparison is a plain loop
inside :meth:`repro.core.dlm.DLMPolicy._evaluate_leaf`.  A super's is
:func:`compare_leaves_observed`: a plain loop when the related set is
small and branchless NumPy when large.  A super's leaf links carry each
leaf's store slot, so in a run its loop reads two
columns at a slot, ~0.14 µs a member, while the vector pass costs ~15 µs
plus ~0.04 µs a member; they cross near 110 members and
:data:`_VECTOR_THRESHOLD` sits there (DESIGN.md §8 "Leaf links carry
their rows").  Either way the hit counts are exact integers and each
element's multiply/compare is the same IEEE-double operation, so which
branch ran cannot be told from the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

import numpy as np

from ..overlay.peer import Peer
from ..protocol.knowledge import UNKNOWN, ObservedKnowledge, OmniscientKnowledge

__all__ = ["ComparisonResult", "compare_leaves_observed"]

#: Related sets at or above this size take the vectorized path.
_VECTOR_THRESHOLD = 112


@dataclass(slots=True)
class ComparisonResult:
    """The Y counters of one evaluation (built once, never mutated; not
    frozen, because a frozen dataclass pays ``object.__setattr__`` per
    field on every construction)."""

    y_capa: float
    y_age: float
    g_size: int


def compare_leaves_observed(
    knowledge: OmniscientKnowledge | ObservedKnowledge,
    peer: Peer,
    members: Mapping[int, int],
    now: float,
    x_capa: float,
    x_age: float,
) -> Tuple[Optional[ComparisonResult], int]:
    """Fused Y-counter pass for a super against its observed leaves.

    Reads each member's (capacity, age) through ``knowledge`` and
    compares in one pass without materializing a view.  ``members`` is
    the super's leaf adjacency itself, leaf pid -> leaf slot -- sized,
    iterated once, never copied into a list.  Returns the
    :class:`ComparisonResult` over the *usable* members (None when no
    member is usable) plus the count of members that are alive but
    unobserved/stale, so the caller can defer instead of acting on a
    partial picture.  Equivalence with the view-based path
    (``tests/core/reference_related_set.py``) is property-tested.
    """
    own_cap = peer.capacity
    own_age = now - peer.join_time
    usable = 0
    missing = 0
    hits_c = 0
    hits_a = 0
    if type(knowledge) is OmniscientKnowledge:
        # The paper's default knowledge plane: each adjacency value is the
        # leaf's store slot, carried since the link was made, and ``ln``
        # holds live leaves only (``Overlay.check_invariants`` proves it),
        # so every member is usable and ``missing`` stays 0.  The Y
        # counters are exact integer hit counts, so both branches make
        # the same IEEE-double multiply/compare per member and the same
        # ``hits / usable`` division.
        store = knowledge._store
        usable = len(members)
        if usable >= _VECTOR_THRESHOLD:
            slots = np.fromiter(members.values(), dtype=np.intp, count=usable)
            caps = store.column("capacity")[slots]
            ages = now - store.column("join_time")[slots]
            hits_c = int(np.count_nonzero(caps * x_capa > own_cap))
            hits_a = int(np.count_nonzero(ages * x_age > own_age))
        else:
            cap_col = store.capacity
            join_col = store.join_time
            for s in members.values():
                if cap_col[s] * x_capa > own_cap:
                    hits_c += 1
                if (now - join_col[s]) * x_age > own_age:
                    hits_a += 1
    else:
        observe = knowledge.observe_leaf
        for lid in members:
            obs = observe(peer, lid, now)
            if obs is None:  # pragma: no cover - adjacency is live
                continue
            if obs is UNKNOWN:
                missing += 1
                continue
            usable += 1
            if obs[0] * x_capa > own_cap:
                hits_c += 1
            if obs[1] * x_age > own_age:
                hits_a += 1
    if usable == 0:
        return None, missing
    return ComparisonResult(hits_c / usable, hits_a / usable, usable), missing
