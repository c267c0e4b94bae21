"""Telemetry exporters: JSONL record streams and Chrome/Perfetto traces.

The JSONL layout is one self-describing JSON object per line:

* a ``run`` header (config name, size, seed, horizon, policy, schema,
  and the health settings of a health-enabled run);
* every retained structured record (``audit`` / ``transport`` /
  ``sample`` / ``role``), each with its global ``seq`` and simulated
  time ``t`` -- rendered block by block from the record log's columns
  (see :func:`_record_lines`);
* a trailing ``metrics`` line -- the registry namespace collected at
  export time;
* a trailing ``spans`` line -- the span aggregates.

``repro trace`` and ``repro stats`` consume exactly this layout; so can
``grep``/``jq``, which is the point of JSONL.

The Chrome-trace export writes the span *intervals* as ``X`` (complete)
events in the JSON Object Format, one ``pid`` lane per shard, loadable
by ``chrome://tracing`` and `Perfetto <https://ui.perfetto.dev>`_.
Wall-clock timestamps appear only here: traces are performance
artifacts, not part of the deterministic record stream.
"""

from __future__ import annotations

import contextlib
import json
import os
from array import array
from itertools import chain, compress, islice
from pathlib import Path
from types import NoneType
from typing import Callable, Iterable, Iterator, Mapping, Optional

import numpy as np

from .records import SCHEMAS

__all__ = [
    "JSONL_SCHEMA_VERSION",
    "run_header",
    "write_jsonl",
    "iter_jsonl",
    "write_chrome_trace",
    "export_run",
]

#: Bumped when the JSONL line layout changes incompatibly.
JSONL_SCHEMA_VERSION = 1

#: Lines per write, and record rows per rendered block slice.
_CHUNK = 1024

#: The one encoder of every JSONL line.
_ENCODE = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode


def run_header(result) -> dict:
    """The ``run`` header line for a finished run (with the health
    plane's settings when it is configured; ``repro health`` reads them)."""
    cfg = result.config
    header = {
        "kind": "run",
        "schema": JSONL_SCHEMA_VERSION,
        "name": cfg.name,
        "n": cfg.n,
        "seed": cfg.seed,
        "horizon": cfg.horizon,
        "policy": result.policy.name,
        "message_driven": cfg.faults is not None,
    }
    if cfg.health is not None:
        header["health"] = cfg.health.header(cfg)
    return header


def write_jsonl(path: str, lines: Iterable[dict]) -> int:
    """Write dicts as JSONL (atomically); returns the number of lines."""
    return _write_lines(path, map(_ENCODE, lines))


def _write_lines(path: str, lines: Iterable[str]) -> int:
    """Write text lines ``_CHUNK`` at a time into ``<path>.tmp``, then
    rename it over ``path``: a failure leaves neither a ``.tmp`` file
    nor a partial stream.  Returns the number of lines."""
    target = Path(path)
    if target.parent != Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    tmp = f"{path}.tmp"
    lines = iter(lines)
    count = 0
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            while chunk := list(islice(lines, _CHUNK)):
                fh.write("\n".join(chunk))
                fh.write("\n")
                count += len(chunk)
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    return count


def iter_jsonl(path: str) -> Iterator[dict]:
    """Yield the parsed lines of a JSONL file (blank lines skipped)."""
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            raw = raw.strip()
            if raw:
                yield json.loads(raw)


def _template(kind: str, types: tuple) -> tuple:
    """One shape's line as a ``%``-template of :func:`record_as_dict`'s
    keys in ``sort_keys`` order, and the position each ``%s`` reads
    (-1 ``seq``, 0 ``t``, ``i + 1`` ``values[i]``)."""

    def literal(text: str) -> str:
        return _ENCODE(text).replace("%", "%%")

    def slot(p: int) -> tuple:
        return ("null", ()) if types[p] is NoneType else ("%s", (p,))

    slots = {"seq": ("%s", (-1,)), "t": slot(0), "kind": (literal(kind), ())}
    fields = SCHEMAS.get(kind)
    if fields is None:
        items = [slot(p) for p in range(1, len(types))]
        text = "[" + ",".join(text for text, _ in items) + "]"
        slots["values"] = (text, sum((refs for _, refs in items), ()))
    else:
        for p, name in enumerate(fields[: len(types) - 1], 1):
            if types[p] is not NoneType:
                slots[name] = slot(p)
    keys = sorted(slots)
    text = ",".join(f"{literal(key)}:{slots[key][0]}" for key in keys)
    return "{" + text + "}", [p for key in keys for p in slots[key][1]]


def _renderer(column, head: int, tp: type) -> Callable[[object], list]:
    """Renders slices of ``column`` as JSON text, each distinct value --
    int64 bit pattern of a typed column (exact for -0.0 and NaN), or
    string -- encoded once."""
    if isinstance(column, array):
        # Sorted distinct bit patterns; ``np.unique`` would import
        # ``numpy.ma`` on first use and is slower on these sizes.
        bits = np.sort(np.frombuffer(column, dtype=np.int64)[head:])
        bits = bits[np.append(True, bits[1:] != bits[:-1])]
        values = bits.view(np.float64) if column.typecode == "d" else bits
        # One encoder call for the whole table: a number's text has no ",".
        table = np.array(_ENCODE(values.tolist())[1:-1].split(","), dtype=object)

        def render(cells) -> list:
            index = np.searchsorted(bits, np.frombuffer(cells, dtype=np.int64))
            return table[index].tolist()

        return render
    if tp is str:
        strings = {s: _ENCODE(s) for s in set(islice(column, head, None))}
        return lambda cells: list(map(strings.__getitem__, cells))
    return lambda cells: list(map(_ENCODE, cells))


def _block_lines(block, seqs: np.ndarray) -> Iterator[list]:
    """One shape's lines in seq order, ``_CHUNK`` rendered rows at a time."""
    template, order = _template(block.kind, block.types)
    positions = compress(range(len(block.types)), block.present)
    columns = dict(zip(positions, block.columns))
    render = {
        p: _renderer(columns[p], block.head, block.types[p]) for p in order if p >= 0
    }
    for lo in range(0, len(seqs), _CHUNK):
        rows = slice(block.head + lo, block.head + lo + _CHUNK)
        cells = {p: fn(columns[p][rows]) for p, fn in render.items()}
        cells[-1] = list(map(str, seqs[lo : lo + _CHUNK].tolist()))
        yield list(map(template.__mod__, zip(*[cells[p] for p in order])))


def _record_lines(log) -> Iterator[str]:
    """Every retained record's line in seq order; each shape's lines are
    rendered lazily, one slice at a time, and merged by the id column."""
    ids = log.shape_ids()
    seq0 = log.total_emitted - len(ids)
    lines = []
    for block in log.blocks:
        seqs = np.flatnonzero(ids == block.sid) + seq0
        lines.append(chain.from_iterable(_block_lines(block, seqs)))
    return map(next, map(lines.__getitem__, ids.tolist()))


def _jsonl_lines(result) -> Iterator[str]:
    yield _ENCODE(run_header(result))
    yield from _record_lines(result.ctx.telemetry.log)
    yield from map(_ENCODE, _summary_lines(result))


def _summary_lines(result) -> Iterator[dict]:
    telemetry = result.ctx.telemetry
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


def write_chrome_trace(path: str, lanes: Mapping[int, Iterable[tuple]]) -> int:
    """Write span intervals as one Chrome trace (atomically, through
    :func:`_write_lines`); returns the number of ``X`` events.

    ``lanes`` maps a lane index -> span interval tuples (the
    :meth:`SpanTimer.intervals` layout); each lane is its own ``pid``.
    ``ts``/``dur`` are wall-clock microseconds since the span timer's
    origin; the nesting depth maps to the ``tid`` so overlapping phases
    land on separate tracks in the viewer.  A trace of several lanes (a
    sharded run's, one per shard) names each ``shard k`` by a
    ``process_name`` metadata event, so the viewer shows the K shards'
    phases side by side -- the idle gaps between a shard's windows are
    the synchronization cost made visible.
    """
    named = len(lanes) > 1
    events = []
    for index in sorted(lanes):
        if named:
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": index,
                    "args": {"name": f"shard {index}"},
                }
            )
        events.extend(
            {
                "name": name,
                "ph": "X",
                "ts": round(start * 1e6, 1),
                "dur": round(duration * 1e6, 1),
                "pid": index,
                "tid": depth,
                "cat": "repro",
            }
            for name, start, duration, depth in lanes[index]
        )
    payload = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"exporter": "repro.telemetry", "schema": 1},
    }
    _write_lines(path, [json.dumps(payload, indent=1)])
    return len(events) - (len(lanes) if named else 0)


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
            written["jsonl"] = _write_lines(jsonl_path, _jsonl_lines(result))
        if chrome_trace_path:
            written["chrome_trace"] = write_chrome_trace(
                chrome_trace_path, {0: telemetry.spans.intervals()}
            )
    return written
