"""A peer's observations of its neighbors' metric values.

DLM's Phase 1 carries ``l_nn``, ``capacity``, and ``age`` in explicit
messages (Table 1); what a peer can legitimately evaluate against is the
last values those messages delivered, not live simulation state.  Each
peer row's ``kn`` column (:class:`~repro.overlay.peerstore.PeerStore`)
holds ``None`` until the transport delivers the peer's first response,
then a plain ``dict`` of one :class:`Observation` per neighbor pid,
stamped with the simulated time the values were *sampled at the
responder* (so an in-flight delay does not silently age the data twice).
The transport's response arrival is the only writer; readers treat a
missing cache as empty.

The read policies over this cache -- omniscient vs message-driven,
staleness horizons, the UNKNOWN sentinel -- live in
:mod:`repro.protocol.knowledge`; this module is deliberately
dependency-free so the overlay can hold and checkpoint the cache without
layering cycles.

Ages extrapolate exactly: age grows linearly in time, so a single
observation ``(age_at_obs, values_time)`` yields the true age at any
later ``now`` as ``age_at_obs + (now - values_time)`` -- staleness of an
age observation only matters because the peer itself may be gone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

__all__ = ["Observation", "snapshot_cache", "restore_cache"]

_NEVER = -math.inf


@dataclass(slots=True)
class Observation:
    """One neighbor's last-reported metric values.

    ``capacity`` and ``age_at_obs`` come from a ``value_response``
    (stamped ``values_time``); ``l_nn`` from a ``neigh_num_response``
    (stamped ``lnn_time``).  The two pairs arrive independently, so
    either half may be missing (timestamp of ``-inf``).
    """

    capacity: float = 0.0
    age_at_obs: float = 0.0
    values_time: float = _NEVER
    l_nn: Optional[int] = None
    lnn_time: float = _NEVER

    @property
    def has_values(self) -> bool:
        """Whether a ``value_response`` has ever been recorded."""
        return self.values_time != _NEVER

    def age(self, now: float) -> float:
        """The neighbor's age at ``now``, extrapolated exactly."""
        return self.age_at_obs + (now - self.values_time)


def snapshot_cache(cache: Optional[Dict[int, Observation]]) -> Optional[list]:
    """A cache as plain tuples in insertion order; ``None`` (never
    written) stays ``None`` and an emptied cache snapshots as ``[]``."""
    if cache is None:
        return None
    return [
        (pid, o.capacity, o.age_at_obs, o.values_time, o.l_nn, o.lnn_time)
        for pid, o in cache.items()
    ]


def restore_cache(rows: list) -> Dict[int, Observation]:
    """Rebuild a cache from :func:`snapshot_cache`, preserving order."""
    return {row[0]: Observation(*row[1:]) for row in rows}
