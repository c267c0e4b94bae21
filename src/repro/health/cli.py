"""``repro health`` / ``repro postmortem``: read-back for the health plane.

``repro health <run.jsonl>`` evaluates the SLO report over an exported
telemetry stream -- a classic single file or a sharded run prefix whose
``.shard{k}`` siblings merge by the shard total order -- and exits 1
when the SLO failed (any ``critical`` firing), which is what lets CI
gate on it directly.

``repro postmortem <bundle.json>`` renders a flight-recorder bundle:
the reason, scheduler state, verdict tallies, and the retained record
and audit tails.

Both are dispatched by :func:`repro.telemetry.cli.main`, which also
answers an unreadable input file (``error: <path>: ...``, exit 2).
"""

from __future__ import annotations

import argparse
import json
import sys

from .aggregate import resolve_run_stream
from .flight import load_flight_bundle
from .slo import build_report, render_report, report_as_json

__all__ = [
    "add_health_parser",
    "add_postmortem_parser",
    "cmd_health",
    "cmd_postmortem",
]


def add_health_parser(subparsers) -> argparse.ArgumentParser:
    p = subparsers.add_parser(
        "health",
        help="evaluate the SLO health report over an exported run stream",
        description=(
            "Summarize the health.* detector records of an exported "
            "telemetry JSONL (or sharded run prefix) into a pass/fail "
            "SLO report.  Exits 1 when any detector reached critical."
        ),
    )
    p.add_argument(
        "run",
        help="exported telemetry JSONL, or a sharded run prefix whose "
        ".shard<k> siblings are merged by the shard total order",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the report as one JSON object instead of text",
    )
    p.set_defaults(func=cmd_health)
    return p


def add_postmortem_parser(subparsers) -> argparse.ArgumentParser:
    p = subparsers.add_parser(
        "postmortem",
        help="render a flight-recorder bundle",
        description="Render a health-plane flight-recorder bundle (JSON).",
    )
    p.add_argument("bundle", help="path to the flight-recorder bundle")
    p.add_argument(
        "--records",
        type=int,
        default=10,
        metavar="N",
        help="newest structured records to print (default 10)",
    )
    p.add_argument(
        "--audit",
        type=int,
        default=5,
        metavar="N",
        help="newest audit records to print (default 5)",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="dump the raw bundle as pretty-printed JSON",
    )
    p.set_defaults(func=cmd_postmortem)
    return p


def cmd_health(args, out=None) -> int:
    out = out if out is not None else sys.stdout
    report = build_report(resolve_run_stream(args.run))
    if args.json:
        out.write(report_as_json(report))
    else:
        out.write(render_report(report))
    if not report.enabled:
        return 2
    return 0 if report.passed else 1


def cmd_postmortem(args, out=None) -> int:
    out = out if out is not None else sys.stdout
    bundle = load_flight_bundle(args.bundle)
    if args.json:
        out.write(json.dumps(bundle, indent=2, sort_keys=True) + "\n")
        return 0
    cfg = bundle.get("config", {})
    out.write(
        "postmortem: {name} (n={n}, seed={seed}, policy={policy}, "
        "family={family}, shards={shards})\n".format(
            name=cfg.get("name"),
            n=cfg.get("n"),
            seed=cfg.get("seed"),
            policy=cfg.get("policy"),
            family=cfg.get("family"),
            shards=cfg.get("shards"),
        )
    )
    out.write(f"reason: {bundle.get('reason')}\n")
    out.write(f"config_hash: {bundle.get('config_hash')}\n")
    sim = bundle.get("sim", {})
    out.write(
        "sim: t={now:g} | {events} events | {live} live pending "
        "({pending} scheduled)\n".format(
            now=sim.get("now", 0.0),
            events=sim.get("events_processed"),
            live=sim.get("live_pending"),
            pending=sim.get("pending"),
        )
    )
    verdicts = bundle.get("verdicts") or {}
    if verdicts:
        parts = ", ".join(f"{k}={v}" for k, v in verdicts.items())
        out.write(f"verdicts: {parts}\n")
    dropped = bundle.get("records_dropped", 0)
    records = bundle.get("records", [])
    out.write(f"records: {len(records)} retained in bundle")
    if dropped:
        out.write(f" (ring dropped {dropped} older records before the dump)")
    out.write("\n")
    for record in records[-args.records:]:
        out.write(
            "  " + json.dumps(record, separators=(",", ":"), sort_keys=True) + "\n"
        )
    audit = bundle.get("audit", [])
    if audit:
        out.write(f"audit tail: {len(audit)} record(s) in bundle\n")
        for record in audit[-args.audit:]:
            out.write(
                "  "
                + json.dumps(record, separators=(",", ":"), sort_keys=True)
                + "\n"
            )
    error = bundle.get("error")
    if error:
        out.write("error:\n")
        for line in error.rstrip("\n").splitlines():
            out.write(f"  {line}\n")
    return 0

