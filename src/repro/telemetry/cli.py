"""``repro trace`` / ``repro stats``: inspect an exported telemetry JSONL.

Both commands read the JSONL stream written by
:func:`repro.telemetry.export.export_run` -- they need no simulator and
no run state, just the file.  ``trace`` filters and prints the record
lines (audit decisions, transport stages, health firings); ``stats``
summarizes the run: header, verdict tallies, metrics namespace, span
timing table.

Either command also accepts a **sharded run prefix**: when ``PATH``
itself does not exist but ``PATH.shard0 .. PATH.shard{K-1}`` do, the
per-shard streams are merged on the fly by the ``(t, shard, seq)``
total order (:mod:`repro.health.aggregate`), so a sharded run reads
exactly like a classic one.

These are wired as subcommands of the ``repro`` console script; the
module is also usable directly::

    python -m repro.telemetry.cli trace out.jsonl --peer 17 --grep promote
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Iterable, List, Optional

__all__ = ["add_trace_parser", "add_stats_parser", "cmd_trace", "cmd_stats", "main"]

#: Meta line kinds (everything else is a record line).
_META_KINDS = frozenset({"run", "metrics", "spans", "audit_summary", "truncation"})


def add_trace_parser(subparsers) -> argparse.ArgumentParser:
    p = subparsers.add_parser(
        "trace",
        help="filter and print record lines from a telemetry JSONL",
        description=(
            "Filter the record lines (DLM audit decisions, transport "
            "stages) of an exported telemetry JSONL."
        ),
    )
    p.add_argument("run", help="path to the exported telemetry JSONL")
    p.add_argument(
        "--grep",
        metavar="REGEX",
        help="only lines whose JSON serialization matches REGEX",
    )
    p.add_argument("--peer", type=int, metavar="PID", help="only records for peer PID")
    p.add_argument(
        "--since",
        type=float,
        metavar="T",
        help="only records with simulated time >= T",
    )
    p.add_argument(
        "--kind",
        metavar="KIND",
        help="only records of one kind; a prefix selects a family "
        "(e.g. 'health' matches every 'health.*' detector)",
    )
    p.add_argument(
        "--verdict",
        help="only audit records with this verdict (e.g. promote, defer)",
    )
    p.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="stop after printing N records",
    )
    p.set_defaults(func=cmd_trace)
    return p


def add_stats_parser(subparsers) -> argparse.ArgumentParser:
    p = subparsers.add_parser(
        "stats",
        help="summarize a telemetry JSONL (metrics, verdicts, spans)",
        description="Summarize an exported telemetry JSONL.",
    )
    p.add_argument("run", help="path to the exported telemetry JSONL")
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the summary as one JSON object instead of text",
    )
    p.set_defaults(func=cmd_stats)
    return p


def _matching_records(lines: Iterable[dict], args) -> Iterable[dict]:
    pattern = re.compile(args.grep) if args.grep else None
    for line in lines:
        kind = line.get("kind")
        if kind in _META_KINDS:
            continue
        if args.kind and kind != args.kind and not kind.startswith(args.kind + "."):
            continue
        if args.peer is not None and line.get("pid") != args.peer:
            continue
        if args.since is not None and line.get("t", 0.0) < args.since:
            continue
        if args.verdict and line.get("verdict") != args.verdict:
            continue
        if pattern is not None and not pattern.search(
            # Match against the compact on-disk form, so a pattern
            # copied from the file (e.g. '"verdict":"demote"') works.
            json.dumps(line, separators=(",", ":"), sort_keys=True)
        ):
            continue
        yield line


def cmd_trace(args, out=None) -> int:
    from ..health.aggregate import resolve_run_stream

    out = out if out is not None else sys.stdout
    printed = 0
    for line in _matching_records(resolve_run_stream(args.run), args):
        out.write(json.dumps(line, separators=(",", ":"), sort_keys=True) + "\n")
        printed += 1
        if args.limit is not None and printed >= args.limit:
            break
    if printed == 0:
        print("no matching records", file=sys.stderr)
    return 0


def _summarize(path: str) -> dict:
    from ..health.aggregate import resolve_run_stream

    header: Optional[dict] = None
    metrics: Optional[dict] = None
    spans: Optional[dict] = None
    audit_summary: Optional[dict] = None
    truncation: Optional[dict] = None
    record_counts: dict = {}
    verdict_counts: dict = {}
    t_min: Optional[float] = None
    t_max: Optional[float] = None
    for line in resolve_run_stream(path):
        kind = line.get("kind")
        if kind == "run":
            header = line
        elif kind == "metrics":
            metrics = line.get("data", {})
        elif kind == "spans":
            spans = line.get("data", {})
        elif kind == "audit_summary":
            audit_summary = line
        elif kind == "truncation":
            truncation = line
        else:
            record_counts[kind] = record_counts.get(kind, 0) + 1
            t = line.get("t")
            if t is not None:
                t_min = t if t_min is None else min(t_min, t)
                t_max = t if t_max is None else max(t_max, t)
            if kind == "audit":
                verdict = line.get("verdict")
                if verdict:
                    verdict_counts[verdict] = verdict_counts.get(verdict, 0) + 1
    return {
        "run": header,
        "records": dict(sorted(record_counts.items())),
        "t_range": None if t_min is None else [t_min, t_max],
        "recorded_verdicts": dict(sorted(verdict_counts.items())),
        # Exact tallies (survive "actions"-level and ring eviction).
        "audit_summary": audit_summary,
        "truncation": truncation,
        "metrics": metrics,
        "spans": spans,
    }


def cmd_stats(args, out=None) -> int:
    out = out if out is not None else sys.stdout
    summary = _summarize(args.run)
    if args.json:
        out.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        return 0

    header = summary["run"]
    if header:
        out.write(
            "run: {name} (n={n}, seed={seed}, horizon={horizon},"
            " policy={policy})\n".format(**header)
        )
    total = sum(summary["records"].values())
    out.write(f"records: {total}")
    if summary["records"]:
        parts = ", ".join(f"{k}={v}" for k, v in summary["records"].items())
        out.write(f" ({parts})")
    if summary["t_range"]:
        lo, hi = summary["t_range"]
        out.write(f" over t=[{lo:g}, {hi:g}]")
    out.write("\n")
    if summary["truncation"]:
        out.write(
            "  note: ring dropped {dropped} older records\n".format(
                **summary["truncation"]
            )
        )
    audit = summary["audit_summary"]
    if audit:
        parts = ", ".join(f"{k}={v}" for k, v in audit["verdicts"].items())
        out.write(f"verdicts (exact, level={audit['level']}): {parts}\n")
    elif summary["recorded_verdicts"]:
        parts = ", ".join(f"{k}={v}" for k, v in summary["recorded_verdicts"].items())
        out.write(f"verdicts (recorded): {parts}\n")
    metrics = summary["metrics"]
    if metrics:
        out.write("metrics:\n")
        for name, value in metrics.items():
            if isinstance(value, dict):  # histogram
                value = {k: v for k, v in value.items() if k in ("count", "mean")}
            out.write(f"  {name} = {value}\n")
    spans = summary["spans"]
    if spans:
        out.write("spans (by wall time):\n")
        # The JSONL spans line is key-sorted; re-rank by cost for reading.
        ranked = sorted(spans.items(), key=lambda kv: -kv[1]["wall_s"])
        for name, agg in ranked:
            out.write(
                f"  {name}: {agg['wall_s']:.3f}s over {agg['calls']} call(s),"
                f" {agg['events']} events\n"
            )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-telemetry", description=__doc__.splitlines()[0]
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    add_trace_parser(subparsers)
    add_stats_parser(subparsers)
    # The health-plane readers live next to the stream readers so the
    # `repro` pre-dispatch reaches all four through one entry point.
    from ..health.cli import add_health_parser, add_postmortem_parser

    add_health_parser(subparsers)
    add_postmortem_parser(subparsers)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        # The one place a bad input file is answered, for all four
        # readers: a missing path or shard (OSError), a torn JSONL line
        # (JSONDecodeError is a ValueError), a file that is not a bundle.
        path = args.bundle if args.command == "postmortem" else args.run
        print(f"error: {path}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
