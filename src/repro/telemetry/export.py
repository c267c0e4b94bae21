"""Telemetry exporters: JSONL record streams and Chrome/Perfetto traces.

The JSONL layout is one self-describing JSON object per line:

* a ``run`` header (config name, size, seed, horizon, policy, schema);
* every retained structured record (``audit`` / ``transport``), each
  with its global ``seq`` and simulated time ``t``;
* a trailing ``metrics`` line -- the registry namespace collected at
  export time;
* a trailing ``spans`` line -- the span aggregates.

``repro trace`` and ``repro stats`` consume exactly this layout; so can
``grep``/``jq``, which is the point of JSONL.

The Chrome-trace export writes the span *intervals* as ``X`` (complete)
events in the JSON Object Format, loadable by ``chrome://tracing`` and
`Perfetto <https://ui.perfetto.dev>`_.  Wall-clock timestamps appear
only here: traces are performance artifacts, not part of the
deterministic record stream.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator, Optional

from .records import record_as_dict

__all__ = [
    "JSONL_SCHEMA_VERSION",
    "run_header",
    "write_jsonl",
    "iter_jsonl",
    "write_chrome_trace",
    "write_sharded_chrome_trace",
    "export_run",
]

#: Bumped when the JSONL line layout changes incompatibly.
JSONL_SCHEMA_VERSION = 1


def run_header(result) -> dict:
    """The ``run`` header line for a finished run."""
    cfg = result.config
    return {
        "kind": "run",
        "schema": JSONL_SCHEMA_VERSION,
        "name": cfg.name,
        "n": cfg.n,
        "seed": cfg.seed,
        "horizon": cfg.horizon,
        "policy": result.policy.name,
        "message_driven": cfg.faults is not None,
    }


def write_jsonl(path: str, lines: Iterable[dict]) -> int:
    """Write dicts as JSONL; returns the number of lines written."""
    count = 0
    target = Path(path)
    if target.parent != Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    # ``json.dumps`` with non-default arguments builds an encoder per call.
    encode = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode
    with open(target, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(encode(line))
            fh.write("\n")
            count += 1
    return count


def iter_jsonl(path: str) -> Iterator[dict]:
    """Yield the parsed lines of a JSONL file (blank lines skipped)."""
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            raw = raw.strip()
            if raw:
                yield json.loads(raw)


def _jsonl_lines(result) -> Iterator[dict]:
    telemetry = result.ctx.telemetry
    yield run_header(result)
    for record in telemetry.log:
        yield record_as_dict(record)
    dropped = telemetry.log.dropped
    if dropped:
        # The ring evicted records: say so, never imply full coverage.
        yield {
            "kind": "truncation",
            "dropped": dropped,
            "retained": len(telemetry.log),
        }
    yield {
        "kind": "metrics",
        "t": result.ctx.sim.now,
        "data": telemetry.registry.collect(),
    }
    if telemetry.audit is not None:
        yield {
            "kind": "audit_summary",
            "level": telemetry.audit.level,
            "verdicts": dict(sorted(telemetry.audit.verdict_counts.items())),
        }
    yield {"kind": "spans", "data": telemetry.spans.aggregates()}


def write_chrome_trace(path: str, spans) -> int:
    """Write span intervals as Chrome-trace ``X`` events; returns count.

    ``ts``/``dur`` are wall-clock microseconds since the span timer's
    origin; the nesting depth maps to the ``tid`` so overlapping phases
    land on separate tracks in the viewer.
    """
    events = [
        {
            "name": name,
            "ph": "X",
            "ts": round(start * 1e6, 1),
            "dur": round(duration * 1e6, 1),
            "pid": 0,
            "tid": depth,
            "cat": "repro",
        }
        for name, start, duration, depth in spans.intervals()
    ]
    payload = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"exporter": "repro.telemetry", "schema": 1},
    }
    target = Path(path)
    if target.parent != Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=1) + "\n")
    return len(events)


def write_sharded_chrome_trace(path: str, shard_intervals: dict) -> int:
    """Write per-shard span intervals as one multi-lane Chrome trace.

    ``shard_intervals`` maps shard index -> span interval tuples (the
    :meth:`SpanTimer.intervals` layout).  Each shard becomes its own
    ``pid`` lane, named via ``process_name`` metadata events, so the
    viewer shows the K shards' phases side by side -- the idle gaps
    between a shard's windows are the synchronization cost made
    visible.  Returns the number of ``X`` events written.
    """
    events = []
    count = 0
    for index in sorted(shard_intervals):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": index,
                "args": {"name": f"shard {index}"},
            }
        )
        for name, start, duration, depth in shard_intervals[index]:
            events.append(
                {
                    "name": name,
                    "ph": "X",
                    "ts": round(start * 1e6, 1),
                    "dur": round(duration * 1e6, 1),
                    "pid": index,
                    "tid": depth,
                    "cat": "repro",
                }
            )
            count += 1
    payload = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"exporter": "repro.telemetry", "schema": 1},
    }
    target = Path(path)
    if target.parent != Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=1) + "\n")
    return count


def export_run(
    result,
    *,
    jsonl_path: Optional[str] = None,
    chrome_trace_path: Optional[str] = None,
) -> dict:
    """Export a finished run's telemetry; returns per-artifact counts.

    Paths default to the run config's telemetry settings; either export
    can be forced to a different location by passing it explicitly.
    No-op (empty dict) for a disabled plane.
    """
    telemetry = result.ctx.telemetry
    if not telemetry.enabled:
        return {}
    cfg = telemetry.config
    jsonl_path = jsonl_path if jsonl_path is not None else cfg.jsonl_path
    chrome_trace_path = (
        chrome_trace_path
        if chrome_trace_path is not None
        else cfg.chrome_trace_path
    )
    written = {}
    with telemetry.span("telemetry.export"):
        if jsonl_path:
            written["jsonl"] = write_jsonl(jsonl_path, _jsonl_lines(result))
        if chrome_trace_path:
            written["chrome_trace"] = write_chrome_trace(
                chrome_trace_path, telemetry.spans
            )
    return written
