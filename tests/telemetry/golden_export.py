"""Golden digests of three small runs' JSONL exports.

How the record log stores records and how the exporter renders them may
change; the bytes a run exports may not.  This module exports each run's
JSONL and reduces it to one SHA-256 over every line except the
wall-clock ``spans`` line, plus the line count.  ``golden_export.json``
next to it holds the digests captured while every record line was still
one ``JSONEncoder.encode(record_as_dict(r))`` call.

The three runs cover the record shapes the exporter meets:

* ``audit_health`` -- a full audit (``none`` verdicts included) with
  health on, so its ``sample`` and ``role`` evidence interleaves the
  audit rows and the header carries the health settings;
* ``transport_trace`` -- a message-driven run with the Phase-1 lifecycle
  traced: ``transport`` rows and the defer shapes (``None`` where a
  decision row has a number);
* ``wrapped_ring`` -- a ``record_capacity`` far below the emitted count,
  so the ring has wrapped and the export carries a ``truncation`` line.

Regenerate (only when a change is *intended* to alter the exported
bytes)::

    PYTHONPATH=src:. python tests/telemetry/golden_export.py
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden_export.json")

GOLDEN_RUNS = ("audit_health", "transport_trace", "wrapped_ring")


def golden_config(name: str, jsonl_path: str):
    """The fixed small config of one golden export."""
    from repro.experiments.configs import bench_config, table2_config
    from repro.health.config import HealthConfig
    from repro.protocol.faults import FaultPlan
    from repro.telemetry import TelemetryConfig

    if name == "transport_trace":
        return table2_config().with_(
            name=f"golden-{name}",
            n=250,
            horizon=120.0,
            warmup=20.0,
            seed=11,
            faults=FaultPlan(
                loss_rate=0.05, latency_scale=0.5, timeout=2.0, max_retries=2
            ),
            telemetry=TelemetryConfig(jsonl_path=jsonl_path, transport_trace=True),
        )
    capacity = {"audit_health": None, "wrapped_ring": 500}[name]
    return bench_config().with_(
        name=f"golden-{name}",
        n=300,
        horizon=150.0,
        warmup=50.0,
        seed=11,
        telemetry=TelemetryConfig(jsonl_path=jsonl_path, record_capacity=capacity),
        # A tight band and fast escalation so firings land in this horizon
        # (tests/health/golden_firings.py replays them).
        health=HealthConfig(ratio_band=0.2, critical_after=2),
    )


def stream_digest(path) -> dict:
    """SHA-256 and line count of a JSONL file, its ``spans`` line left out."""
    digest = hashlib.sha256()
    lines = 0
    with open(path, "rb") as fh:
        for line in fh:
            if json.loads(line)["kind"] != "spans":
                digest.update(line)
                lines += 1
    return {"sha256": digest.hexdigest(), "lines": lines}


def export_digest(name: str) -> dict:
    """Run one golden config and digest its exported JSONL."""
    from repro.experiments.runner import run_experiment

    with tempfile.TemporaryDirectory() as tmp:
        jsonl = str(Path(tmp) / "run.jsonl")
        run_experiment(golden_config(name, jsonl))
        return stream_digest(jsonl)


def main() -> int:
    record = {name: export_digest(name) for name in GOLDEN_RUNS}
    GOLDEN_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
