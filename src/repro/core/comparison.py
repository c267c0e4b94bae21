"""Phase 3: the scaled comparison.

Directly from the paper's pseudo-code::

    for all peer d_i in G(d):
        if capacity(d_i) * X_capa > capacity(d): Y_capa += 1/|G(d)|
        if age(d_i)      * X_age  > age(d):      Y_age  += 1/|G(d)|

``Y_capa`` and ``Y_age`` are the fractions of the related set whose
(scaled) metric values exceed the local peer's -- both in [0, 1].  Small
Y means the local peer is relatively strong; large Y, relatively weak.

The comparison is branchless NumPy when the related set is large (a
super-peer's G holds around k_l = 80 leaves) and a plain loop when small
(a leaf's G holds a handful of supers; a young super a handful of
leaves).  The vectorized form costs ~14 NumPy calls whatever the size
(12-15 µs warm, about twice that cold inside a run) against ~0.4 µs a
member for the loop; the two cross near 28 members warm, and
:data:`_VECTOR_THRESHOLD` sits just below (DESIGN.md §8 "Verdict path").
Either way the hit counts are exact integers and each element's
multiply/compare is the same IEEE-double operation, so which branch ran
cannot be told from the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Optional, Sequence, Tuple

import numpy as np

from ..overlay.peer import Peer
from ..protocol.knowledge import UNKNOWN, KnowledgeSource, OmniscientKnowledge

__all__ = [
    "ComparisonResult",
    "scaled_fractions",
    "compare_leaves_observed",
]

#: Related sets at or above this size take the vectorized path.
_VECTOR_THRESHOLD = 24


@dataclass(frozen=True, slots=True)
class ComparisonResult:
    """The Y counters of one evaluation."""

    y_capa: float
    y_age: float
    g_size: int


def scaled_fractions(
    own_capacity: float,
    own_age: float,
    capacities: Sequence[float],
    ages: Sequence[float],
    x_capa: float,
    x_age: float,
) -> ComparisonResult:
    """Compute (Y_capa, Y_age) for a peer against metric arrays.

    Raises ``ValueError`` on an empty or ragged related set -- callers
    must gate on |G| before comparing (the policy does).
    """
    n = len(capacities)
    if n == 0:
        raise ValueError("related set is empty; nothing to compare against")
    if len(ages) != n:
        raise ValueError(f"ragged view: {n} capacities vs {len(ages)} ages")
    if n >= _VECTOR_THRESHOLD:
        caps = np.asarray(capacities, dtype=float)
        ags = np.asarray(ages, dtype=float)
        y_capa = float(np.count_nonzero(caps * x_capa > own_capacity)) / n
        y_age = float(np.count_nonzero(ags * x_age > own_age)) / n
        return ComparisonResult(y_capa=y_capa, y_age=y_age, g_size=n)
    hits_c = 0
    hits_a = 0
    for c, a in zip(capacities, ages):
        if c * x_capa > own_capacity:
            hits_c += 1
        if a * x_age > own_age:
            hits_a += 1
    return ComparisonResult(y_capa=hits_c / n, y_age=hits_a / n, g_size=n)


def compare_leaves_observed(
    knowledge: KnowledgeSource,
    peer: Peer,
    members: Collection[int],
    now: float,
    x_capa: float,
    x_age: float,
) -> Tuple[Optional[ComparisonResult], int]:
    """Fused Y-counter pass for a super against its observed leaves.

    Reads each member's (capacity, age) through ``knowledge`` and
    compares in one pass without materializing a view (a super verdict is
    ~29 µs in a run at |G| = 85, against a leaf's ~8).  ``members`` is the
    super's leaf adjacency itself -- sized, iterated once, never copied
    into a list.  Returns the :class:`ComparisonResult` over the *usable*
    members (None when no member is usable) plus the count of members
    that are alive but unobserved/stale, so the caller can defer instead
    of acting on a partial picture.  Equivalence with the view-based path
    (``tests/core/reference_related_set.py``) is property-tested.
    """
    own_cap = peer.capacity
    own_age = now - peer.join_time
    usable = 0
    missing = 0
    hits_c = 0
    hits_a = 0
    if type(knowledge) is OmniscientKnowledge:
        # Fast path for the paper's default knowledge plane: gather the
        # members' capacity/join_time straight from the columnar store.
        # Observations are never UNKNOWN here, so ``missing`` stays 0;
        # semantics are otherwise identical to the generic loop below
        # (equivalence is unit-tested).  The Y counters are exact integer
        # hit counts, so the vectorized comparison is bit-identical to
        # the scalar loop: each element's multiply/compare is the same
        # IEEE double operation, and the final division is the same
        # ``hits / usable``.
        store = knowledge._store
        if len(members) >= _VECTOR_THRESHOLD:
            ids = np.fromiter(members, dtype=np.int64, count=len(members))
            slots = store.slots_of(ids)
            slots = slots[slots >= 0]
            slots = slots[store.role[slots] == 0]  # ROLE_LEAF
            usable = len(slots)
            if usable:
                caps = store.capacity[slots]
                ages = now - store.join_time[slots]
                hits_c = int(np.count_nonzero(caps * x_capa > own_cap))
                hits_a = int(np.count_nonzero(ages * x_age > own_age))
        else:
            get = knowledge._get
            role_col = store.role
            cap_col = store.capacity
            join_col = store.join_time
            for lid in members:
                p = get(lid)
                if p is None or role_col[p._slot]:  # pragma: no cover - live
                    continue
                s = p._slot
                usable += 1
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
    return (
        ComparisonResult(y_capa=hits_c / usable, y_age=hits_a / usable, g_size=usable),
        missing,
    )
