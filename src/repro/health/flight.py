"""The flight recorder: a bounded postmortem bundle for a run gone bad.

When a detector fires at ``critical`` (or the runner dies on an
unhandled exception), the monitor dumps one JSON bundle with everything
a postmortem needs and nothing unbounded:

* the newest ``record_tail`` structured records (the RecordLog ring
  tail -- audit decisions, transport stages, prior health firings);
* the newest ``audit_tail`` DLM audit records, separately, so decision
  evidence survives even when transport records dominate the ring;
* scheduler state (simulated now, events processed, pending counts)
  and the exact verdict tallies;
* the registry metrics namespace at dump time;
* the active config hash, so ``repro postmortem`` output can be matched
  to the checkpoint/config that produced it.

Everything in the bundle is simulation-derived -- no wall clock, no
process ids, no hostnames -- except the metrics namespace, which may
carry wall-derived execution gauges; the deterministic evidence is the
record tails and scheduler state.

``load_flight_bundle`` is the reader half, used by the
``repro postmortem`` CLI.

A bundle that cannot be written raises :class:`FlightRecorderError` and
leaves no ``.tmp`` file behind; :func:`check_flight_path` lets a caller
refuse an unusable path before the run starts.
"""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path
from typing import Optional

from ..telemetry.records import record_as_dict

__all__ = [
    "FLIGHT_SCHEMA_VERSION",
    "FlightRecorderError",
    "check_flight_path",
    "write_flight_bundle",
    "load_flight_bundle",
]

#: Bumped when the bundle layout changes incompatibly.
FLIGHT_SCHEMA_VERSION = 1


class FlightRecorderError(OSError):
    """A flight bundle could not be written where it was configured to go."""


def check_flight_path(path: str) -> None:
    """Raise :class:`FlightRecorderError` unless the nearest existing
    ancestor of ``path`` is a writable directory.  Creates nothing: the
    writer makes the missing directories when it first dumps."""
    parent = Path(path).absolute().parent
    while not parent.exists():
        parent = parent.parent
    if not parent.is_dir() or not os.access(parent, os.W_OK | os.X_OK):
        raise FlightRecorderError(
            f"flight recorder path {path!r}: {str(parent)!r} is not a writable directory"
        )


def build_flight_bundle(
    *,
    telemetry,
    sim,
    config,
    policy_name: str,
    reason: str,
    error: Optional[str] = None,
    record_tail: int = 500,
    audit_tail: int = 200,
) -> dict:
    """Assemble the bundle dict (see module docstring for contents)."""
    # Lazy: configs -> health is annotation-only, but the hash helper
    # lives a layer up and this module must stay importable standalone.
    from ..experiments.checkpoint import config_hash

    log = telemetry.log
    records = [record_as_dict(r) for r in tuple(log)[-record_tail:]]
    audit_records = [
        record_as_dict(r) for r in log.records("audit")[-audit_tail:]
    ]
    audit = telemetry.audit
    return {
        "kind": "postmortem",
        "schema": FLIGHT_SCHEMA_VERSION,
        "reason": reason,
        "error": error,
        "config": {
            "name": config.name,
            "n": config.n,
            "seed": config.seed,
            "horizon": config.horizon,
            "family": config.family,
            "shards": config.shards,
            "policy": policy_name,
        },
        "config_hash": config_hash(config),
        "sim": {
            "now": sim.now,
            "events_processed": sim.events_processed,
            "pending": sim.pending,
            "live_pending": sim.live_pending,
        },
        "verdicts": (
            {} if audit is None else dict(sorted(audit.verdict_counts.items()))
        ),
        "metrics": telemetry.registry.collect(),
        "records_dropped": log.dropped,
        "records": records,
        "audit": audit_records,
    }


def write_flight_bundle(path: str, **kwargs) -> dict:
    """Build and atomically write one bundle; returns the bundle dict."""
    bundle = build_flight_bundle(**kwargs)
    tmp = f"{path}.tmp"
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(bundle, fh, separators=(",", ":"), sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        message = f"cannot write flight bundle {path!r}: {exc}"
        raise FlightRecorderError(message) from exc
    return bundle


def load_flight_bundle(path: str) -> dict:
    """Read and structurally validate a flight bundle."""
    with open(path, "r", encoding="utf-8") as fh:
        bundle = json.load(fh)
    if not isinstance(bundle, dict) or bundle.get("kind") != "postmortem":
        raise ValueError(f"{path!r} is not a flight-recorder bundle")
    if bundle.get("schema") != FLIGHT_SCHEMA_VERSION:
        raise ValueError(
            f"bundle {path!r} has schema {bundle.get('schema')!r}, "
            f"this code reads schema {FLIGHT_SCHEMA_VERSION}"
        )
    return bundle
