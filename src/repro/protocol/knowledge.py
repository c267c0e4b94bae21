"""Knowledge sources: how the evaluator reads neighbor metric values.

The DLM evaluator (phases 2-3) compares a peer against the metric values
of its related set.  Those values are carried by Phase-1 messages, so
what a peer can legitimately use is its cache of observations -- the
last ``l_nn``, ``capacity``, and ``age`` each response reported (the
row's ``kn`` column, a dict of :class:`~repro.overlay.knowledge.Observation`
the transport writes on each response arrival).  Two sources answer the
evaluator's two questions (``observe_super``, ``observe_leaf``):

* :class:`ObservedKnowledge` -- the honest source: reads only the
  observer's cache (a peer no response has reached yet has none, which
  reads as empty), reports :data:`UNKNOWN` for neighbors with no usable
  or non-stale observation so the evaluator can defer instead of
  fabricating values.
* :class:`OmniscientKnowledge` -- the degenerate source modeling the
  paper's implicit assumption of instant, free, perfect information:
  an observation request is answered synchronously from live state.
  With faults disabled the evaluator's sample paths are the ones
  ``tests/experiments/golden_phase1.json`` pins per seed.

Both return ``None`` for a target that is gone for good (departed or
changed layer), which callers treat as "prune from the related set".
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..overlay.peer import Peer
    from ..overlay.topology import Overlay

__all__ = ["UNKNOWN", "OmniscientKnowledge", "ObservedKnowledge"]


class _Unknown:
    """Sentinel: the neighbor is alive but its values are not known."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "UNKNOWN"


#: Returned by a knowledge source when the neighbor exists but the
#: observer holds no usable (present and non-stale) observation of it.
#: Distinct from ``None``, which means the neighbor is gone for good
#: (departed or demoted) and should be pruned from related sets.
UNKNOWN = _Unknown()


class OmniscientKnowledge:
    """Instant perfect knowledge, read live (the paper's assumption).

    Reads go straight to the overlay's columnar store: one registry
    lookup resolves the slot, then capacity/join_time/degree are scalar
    column loads -- no Peer property dispatch on this per-member hot
    path.  The columns are ``array.array``, so the returned values are
    builtins (classic floats/ints) without a conversion.
    """

    __slots__ = ("_get", "_store")

    def __init__(self, overlay: "Overlay") -> None:
        self._get = overlay.get
        self._store = overlay.store

    def observe_super(self, observer: "Peer", sid: int, now: float):
        """Live (capacity, age, l_nn) of ``sid``; None if gone/demoted."""
        p = self._get(sid)
        if p is None:
            return None
        store = self._store
        slot = p._slot
        if not store.role[slot]:  # ROLE_LEAF
            return None
        return (
            store.capacity[slot],
            now - store.join_time[slot],
            store.n_leaf_links[slot],
        )

    def observe_leaf(self, observer: "Peer", lid: int, now: float):
        """Live (capacity, age) of ``lid``; None if gone/promoted."""
        p = self._get(lid)
        if p is None:
            return None
        store = self._store
        slot = p._slot
        if store.role[slot]:  # ROLE_SUPER
            return None
        return (store.capacity[slot], now - store.join_time[slot])


class ObservedKnowledge:
    """Knowledge limited to what Phase-1 responses actually delivered."""

    __slots__ = ("_get", "horizon")

    def __init__(self, overlay: "Overlay", horizon: float = math.inf) -> None:
        if horizon <= 0:
            raise ValueError(f"staleness horizon must be positive, got {horizon}")
        self._get = overlay.get
        self.horizon = horizon

    def observe_super(self, observer: "Peer", sid: int, now: float):
        """Cached (capacity, age, l_nn) of ``sid``; UNKNOWN if unusable."""
        p = self._get(sid)
        if p is None or not p.is_super:
            return None
        cache = observer._store.kn[observer._slot]
        obs = None if cache is None else cache.get(sid)
        if obs is None or not obs.has_values:
            return UNKNOWN
        if now - obs.values_time > self.horizon:
            return UNKNOWN
        l_nn = obs.l_nn
        if l_nn is not None and now - obs.lnn_time > self.horizon:
            l_nn = None
        return (obs.capacity, obs.age(now), l_nn)

    def observe_leaf(self, observer: "Peer", lid: int, now: float):
        """Cached (capacity, age) of ``lid``; UNKNOWN if unusable."""
        p = self._get(lid)
        if p is None or not p.is_leaf:
            return None
        cache = observer._store.kn[observer._slot]
        obs = None if cache is None else cache.get(lid)
        if obs is None or not obs.has_values:
            return UNKNOWN
        if now - obs.values_time > self.horizon:
            return UNKNOWN
        return (obs.capacity, obs.age(now))
