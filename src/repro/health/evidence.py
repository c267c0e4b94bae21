"""The health plane's evidence: what a run records, and the fold over it.

A health-enabled run does not judge itself; it records evidence into
its :class:`~repro.telemetry.records.RecordLog`, in scheduler order:

* one ``sample`` record per layer-stats tick -- the fields of
  :class:`~repro.health.detectors.HealthSample`, read from the overlay
  aggregates, the columnar store, the message ledger, the policy
  counters and the scheduler;
* one ``role`` record ``(pid, role)`` per executed role change, from
  the overlay's role listener (a damped or refused DLM verdict changes
  no role, so it writes none).

The run header carries the detector settings, η and the resolved grace
(:meth:`~repro.health.config.HealthConfig.header`).  :func:`replay`
runs the detectors over the exported stream afterwards -- per shard for
a merged stream, in stream order -- and ``repro health`` reports its
firings.  Like the rest of the telemetry plane the recorder observes: it
never draws RNG or schedules events, so attaching it cannot perturb the
trajectory, and it holds no state a checkpoint would need.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..overlay.peerstore import ROLE_SUPER
from ..telemetry.records import SCHEMAS
from .config import HealthConfig
from .detectors import HealthSample, RoleFlapDetector, build_detectors

__all__ = ["EvidenceRecorder", "replay"]


class EvidenceRecorder:
    """Writes one wired run's ``sample`` and ``role`` records."""

    def __init__(self, telemetry, ctx, policy) -> None:
        self._log = telemetry.log
        self._ctx = ctx
        self._policy = policy
        ctx.overlay.add_role_listener(self._on_role)

    def attach(self, sampler) -> None:
        """Record a ``sample`` at every tick of ``sampler``."""
        sampler.add_sample_listener(self._on_sample)

    def _on_role(self, peer, old_role) -> None:
        self._log.emit("role", self._ctx.sim.now, (peer.pid, peer.role.value))

    def _on_sample(self, now: float, agg) -> None:
        ctx = self._ctx
        store = ctx.overlay.store
        slots = store.live_slots()
        deg = store.column("n_leaf_links")[slots]
        deg = deg[store.column("role")[slots] == ROLE_SUPER]
        if deg.size:
            max_deg = float(deg.max())
            mean_deg = float(np.float64(deg.sum(dtype=np.int64)) / deg.size)
        else:
            max_deg = mean_deg = 0.0
        ledger = ctx.messages.snapshot()
        failures = sum(ledger.timeouts.values()) + sum(
            ledger.retransmissions.values()
        )
        policy = self._policy
        self._log.emit(
            "sample",
            now,
            (
                agg.n,
                agg.super_layer.count,
                agg.ratio(),
                max_deg,
                mean_deg,
                failures,
                getattr(policy, "evaluations", 0),
                getattr(policy, "deferrals", 0),
                ctx.sim.events_processed,
            ),
        )


def replay(
    lines: Iterable[dict],
) -> Tuple[Optional[dict], Optional[List[dict]], int]:
    """Fold a run-level stream into ``(header, firings, ticks)``.

    ``firings`` is None when the header has no ``health`` entry: the run
    recorded no evidence.  Otherwise each shard's ``sample`` and ``role``
    records run through its own detectors in stream order, and the
    firings come back ordered by ``(t, shard)``, each shard's in the
    order they fired.  A stream whose record ring dropped anything is
    refused (``ValueError``): a fold over part of the evidence would
    report a verdict the run did not earn.
    """
    lines = iter(lines)
    header = next(lines, None)
    if not header or header.get("kind") != "run" or "health" not in header:
        return header, None, 0
    entry = dict(header["health"])
    try:
        eta = entry.pop("eta")
        config = HealthConfig(**entry)
    except (KeyError, TypeError) as exc:
        message = f"malformed health entry in the run header: {exc!r}"
        raise ValueError(message) from exc
    folds: Dict[Optional[int], tuple] = {}
    firings: List[dict] = []
    ticks = 0
    for line in lines:
        kind = line.get("kind")
        if kind == "truncation" and line.get("dropped"):
            raise ValueError(
                f"the record ring dropped {line['dropped']} records, so the "
                "health evidence is incomplete; rerun with a larger "
                "TelemetryConfig.record_capacity"
            )
        if kind != "sample" and kind != "role":
            continue
        shard = line.get("shard")
        fold = folds.get(shard)
        if fold is None:
            detectors = build_detectors(config, eta=eta, grace=config.grace)
            flap = [d for d in detectors if isinstance(d, RoleFlapDetector)]
            fold = folds[shard] = (detectors, flap)
        detectors, flap = fold
        if kind == "role":
            for detector in flap:
                detector.record_transition(line["t"], line["pid"])
            continue
        ticks += 1
        sample = HealthSample(line["t"], *(line[f] for f in SCHEMAS["sample"]))
        for detector in detectors:
            firings.extend(f.as_dict(shard) for f in detector.observe(sample))
    firings.sort(key=lambda f: (f["t"], f.get("shard", 0)))
    return header, firings, ticks
