"""Reference model for the fused super path of ``DLMPolicy._evaluate_super``.

``super_related_set`` materialises G(s) -- the super-peer's current leaf
neighbors, as observed -- the way the paper's pseudo-code does.  The
evaluator fuses that pass with the Y counters
(:func:`repro.core.comparison.compare_leaves_observed`); this un-fused
form left ``src/`` with its last caller and is the oracle
``tests/core/test_dlm_fastpath.py`` holds the fused path against.
"""

from __future__ import annotations

from typing import List

from repro.core.related_set import RelatedSetView
from repro.overlay.peer import Peer
from repro.protocol.knowledge import UNKNOWN, KnowledgeSource

__all__ = ["super_related_set"]


def super_related_set(
    knowledge: KnowledgeSource, peer: Peer, now: float
) -> RelatedSetView:
    """G(s): the super-peer's current leaf neighbors, as observed."""
    members: List[int] = []
    caps: List[float] = []
    ages: List[float] = []
    missing = 0
    for lid in peer.leaf_neighbors:
        obs = knowledge.observe_leaf(peer, lid, now)
        if obs is None:
            continue
        if obs is UNKNOWN:
            missing += 1
            continue
        members.append(lid)
        caps.append(obs[0])
        ages.append(obs[1])
    return RelatedSetView(tuple(members), tuple(caps), tuple(ages), missing=missing)
