"""The flight recorder: a bounded postmortem bundle for a run gone bad.

When a run dies on an unhandled exception, the run loop -- in the
parent process or in a shard worker -- calls :func:`crash_dump` for
every system it drives, which writes one JSON bundle to
``<flight_path>.crash`` with everything a postmortem needs and nothing
unbounded:

* the newest ``record_tail`` structured records (the RecordLog ring
  tail -- audit decisions, transport stages, health evidence);
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
leaves no ``.tmp`` file behind; :func:`crash_dump` logs it instead of
masking the run's own exception, and the CLI refuses an unusable path
before the run starts (``repro.cli.build_config``).
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import traceback
from pathlib import Path
from typing import Optional

from ..telemetry.records import record_as_dict

__all__ = [
    "FLIGHT_SCHEMA_VERSION",
    "FlightRecorderError",
    "crash_dump",
    "write_flight_bundle",
    "load_flight_bundle",
]

#: Bumped when the bundle layout changes incompatibly.
FLIGHT_SCHEMA_VERSION = 1


class FlightRecorderError(OSError):
    """A flight bundle could not be written where it was configured to go."""


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
    records = [record_as_dict(r) for r in log.tail(record_tail)]
    audit_records = [record_as_dict(r) for r in log.tail(audit_tail, "audit")]
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


def crash_dump(result, exc: BaseException) -> Optional[dict]:
    """The crash bundle of ``result``'s run, dying on ``exc``.

    Written to ``<flight_path>.crash``; a no-op (None) without a health
    flight path.  A bundle that cannot be written never masks ``exc``:
    the failure is logged as a warning and, on Python 3.11+, added as a
    note on ``exc``; None is returned for the caller to re-raise ``exc``.
    """
    health = result.config.health
    if health is None or health.flight_path is None:
        return None
    tb = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    try:
        return write_flight_bundle(
            f"{health.flight_path}.crash",
            telemetry=result.ctx.telemetry,
            sim=result.ctx.sim,
            config=result.config,
            policy_name=result.policy.name,
            reason="exception",
            error=tb,
            record_tail=health.record_tail,
            audit_tail=health.audit_tail,
        )
    except FlightRecorderError as failure:
        message = f"flight recorder: no crash bundle: {failure}"
        logging.getLogger("repro.health").warning(message)
        if hasattr(exc, "add_note"):  # Python 3.11+
            exc.add_note(message)
        return None


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
