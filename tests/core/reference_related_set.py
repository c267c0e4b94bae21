"""The un-fused evaluation path: the oracle the fused verdicts are held against.

This is the paper's pseudo-code taken literally -- materialise the
related set G as a :class:`RelatedSetView`, estimate µ from it, then run
the scaled comparison over it.  The evaluator fuses those steps
(:meth:`repro.core.dlm.DLMPolicy._evaluate_leaf` for a leaf,
:func:`repro.core.comparison.compare_leaves_observed` for a super); each
piece below left ``src/`` verbatim with its last caller -- the last two,
:func:`scaled_fractions` and :func:`decide`, when the leaf verdict took
its comparison loop and both verdicts the Phase-4 rule inline -- and is what
``tests/core/test_dlm_fastpath.py`` and
``tests/properties/test_verdict_props.py`` compare the fused paths with.

Definition 3: for a super-peer ``s``, ``G(s)`` is its current leaf
neighbors.  For a leaf-peer ``l``, ``G(l)`` is the super-peers it has
connected to within a recent period; the paper's simulation takes "all
the super-peers that a leaf-peer has connected since it joins the
network", which is what the overlay records in ``Peer.contacted_supers``.

Member *identity* comes from the peer's own adjacency and contact
history (local knowledge); member *metric values* are read through a
knowledge source (:mod:`repro.protocol.knowledge`), never from live
overlay state -- in message-driven mode that is the peer's observation
cache, and a member whose values were never delivered (or have gone
stale) is counted in :attr:`RelatedSetView.missing` instead of being
fabricated, so the evaluator can defer.

Departed super-peers are pruned lazily at view-construction time: their
metric values are no longer observable, and keeping ghosts would let a
leaf compare itself against peers that no longer exist (DESIGN.md §5
"Verdict path").  Pruning also drops the observer's cached observation
of the departed member.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core import comparison
from repro.core.comparison import ComparisonResult
from repro.core.config import DLMConfig
from repro.core.decisions import Action, Decision
from repro.core.scaling import AdaptedParameters
from repro.core.dlm import DLMPolicy
from repro.core.equations import mu_inappropriateness
from repro.overlay.peer import Peer
from repro.overlay.roles import Role
from repro.protocol.knowledge import UNKNOWN, ObservedKnowledge, OmniscientKnowledge

__all__ = [
    "RelatedSetView",
    "leaf_related_set",
    "super_related_set",
    "mu_for_leaf",
    "compare_against",
    "scaled_fractions",
    "decide",
    "ReferenceDLMPolicy",
]


@dataclass(frozen=True, slots=True)
class RelatedSetView:
    """Observed metric values of a peer's related set at one instant.

    ``capacities[i]`` and ``ages[i]`` belong to the same member;
    ``leaf_counts`` is only populated for a *leaf's* view (the observed
    ``l_nn`` of each super in ``G(l)``, feeding the µ estimate) and may
    be shorter than ``members`` when some ``l_nn`` observations are
    missing.  ``missing`` counts members that are alive but whose values
    the observer does not (usably) know -- nonzero only in
    message-driven mode, and the evaluator's cue to defer.
    """

    members: Tuple[int, ...]
    capacities: Tuple[float, ...]
    ages: Tuple[float, ...]
    leaf_counts: Tuple[int, ...] = ()
    missing: int = 0

    def __len__(self) -> int:
        return len(self.members)

    @property
    def mean_leaf_count(self) -> float:
        """Average observed ``l_nn``; 0.0 with no observations."""
        if not self.leaf_counts:
            return 0.0
        return sum(self.leaf_counts) / len(self.leaf_counts)


def leaf_related_set(
    knowledge: OmniscientKnowledge | ObservedKnowledge,
    peer: Peer,
    now: float,
    *,
    current_only: bool = False,
) -> RelatedSetView:
    """G(l): live super-peers contacted since join, pruning the departed.

    Drops members that have left the network or been demoted from the
    peer's ``ct`` column (and the observation cache) -- their values are
    gone for good -- keeping the set's size bounded by churn rather than
    history length.

    ``current_only=True`` restricts G(l) to the leaf's *current* super
    links instead of its contact history -- the A4 ablation comparing the
    paper's since-join scope against the cheaper alternative.
    """
    members: List[int] = []
    caps: List[float] = []
    ages: List[float] = []
    lnn: List[int] = []
    dead: List[int] = []
    missing = 0
    source = peer.super_neighbors if current_only else peer.contacted_supers
    for sid in source:
        obs = knowledge.observe_super(peer, sid, now)
        if obs is None:
            dead.append(sid)
            continue
        if obs is UNKNOWN:
            missing += 1
            continue
        members.append(sid)
        caps.append(obs[0])
        ages.append(obs[1])
        if obs[2] is not None:
            lnn.append(obs[2])
    if dead:
        store, slot = peer._store, peer._slot
        # Only the transport creates a cache: in omniscient mode none is
        # ever populated, and pruning must not allocate one.
        cache = store.kn[slot]
        for sid in dead:
            store.ct_discard(slot, sid)
            if cache is not None:
                cache.pop(sid, None)
    return RelatedSetView(
        tuple(members), tuple(caps), tuple(ages), tuple(lnn), missing=missing
    )


def super_related_set(
    knowledge: OmniscientKnowledge | ObservedKnowledge, peer: Peer, now: float
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


def mu_for_leaf(config: DLMConfig, view: RelatedSetView) -> float | None:
    """µ from the mean observed ``l_nn`` over G(l).

    None when G is empty or no member's ``l_nn`` has been observed.
    """
    if len(view) == 0 or not view.leaf_counts:
        return None
    return mu_inappropriateness(view.mean_leaf_count, config.k_l)


def scaled_fractions(
    own_capacity: float,
    own_age: float,
    capacities: Sequence[float],
    ages: Sequence[float],
    x_capa: float,
    x_age: float,
) -> ComparisonResult:
    """Compute (Y_capa, Y_age) for a peer against metric arrays: a plain
    loop below ``comparison._VECTOR_THRESHOLD`` (read per call, so tests
    can move it), NumPy at or above.

    Raises ``ValueError`` on an empty or ragged related set -- callers
    must gate on |G| before comparing (the policy does).
    """
    n = len(capacities)
    if n == 0:
        raise ValueError("related set is empty; nothing to compare against")
    if len(ages) != n:
        raise ValueError(f"ragged view: {n} capacities vs {len(ages)} ages")
    if n >= comparison._VECTOR_THRESHOLD:
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


def decide(role: Role, y: ComparisonResult, params: AdaptedParameters) -> Decision:
    """Apply the Phase-4 rule for the given role."""
    if role is Role.LEAF:
        if y.y_capa < params.z_promote and y.y_age < params.z_promote:
            return Decision(Action.PROMOTE, y, params)
        return Decision(Action.NONE, y, params)
    if y.y_capa > params.z_demote and y.y_age > params.z_demote:
        return Decision(Action.DEMOTE, y, params)
    return Decision(Action.NONE, y, params)


def compare_against(
    view: RelatedSetView,
    own_capacity: float,
    own_age: float,
    x_capa: float,
    x_age: float,
) -> ComparisonResult:
    """Convenience wrapper taking a :class:`RelatedSetView`."""
    return scaled_fractions(
        own_capacity, own_age, view.capacities, view.ages, x_capa, x_age
    )


class ReferenceDLMPolicy(DLMPolicy):
    """:class:`DLMPolicy` with both verdicts un-fused: build the view,
    estimate µ from it, compare against it.  Prologue, deferral
    bookkeeping, audit and action are the policy's own, so a run of this
    class differs from a run of ``DLMPolicy`` only in how a verdict is
    computed -- which is what the differential holds equal."""

    def _evaluate_leaf(self, peer: Peer, now: float) -> Optional[Decision]:
        if not peer.eligible:
            return None
        config = self.config
        view = leaf_related_set(
            self.ctx.knowledge, peer, now, current_only=config.leaf_g_current_only
        )
        if len(view) < config.min_related_set:
            if view.missing:
                self._defer(
                    peer.pid, now, "leaf", "missing_members", len(view), view.missing
                )
            return None
        mu = mu_for_leaf(config, view)
        if mu is None:
            self._defer(peer.pid, now, "leaf", "no_mu", len(view), view.missing)
            return None
        params = self.scaler.adapt(mu)
        y = compare_against(
            view, peer.capacity, peer.age(now), params.x_capa, params.x_age
        )
        return decide(Role.LEAF, y, params)

    def _evaluate_super(self, peer: Peer, now: float) -> Optional[Decision]:
        config = self.config
        if len(peer.leaf_neighbors) < config.min_related_set:
            return super()._evaluate_super(peer, now)  # the ratio-only rule
        params = self.scaler.adapt(self.estimator.mu_for_super(peer))
        view = super_related_set(self.ctx.knowledge, peer, now)
        if len(view) < config.min_related_set:
            self._defer(
                peer.pid, now, "super", "unobserved_leaves", len(view), view.missing
            )
            return None
        y = compare_against(
            view, peer.capacity, peer.age(now), params.x_capa, params.x_age
        )
        return decide(Role.SUPER, y, params)
