"""The ``repro`` command line, the one parser in the package.

Every paper artifact in :mod:`repro.experiments.registry` is a
subcommand, and so are the tools around the runs::

    repro list                       the artifacts, one line each
    repro <id> [run options]         run one; print its render and shape metrics
    repro report [run options]       regenerate EXPERIMENTS.md; judge the claims
    repro resume PATH [options]      continue a checkpointed run
    repro profile TARGET [options]   cProfile an artifact, or a micro-workload
    repro stats|trace RUN            read an exported telemetry JSONL
    repro health RUN                 the run's SLO verdict
    repro postmortem BUNDLE          render a flight-recorder bundle

The run options are one parent parser shared by ``<id>``, ``report``,
``resume`` and ``profile``, and :func:`build_config` is the one place
they become an ``ExperimentConfig``.  A command refuses an option it
cannot honour rather than drop it.

Exit codes: 0 OK; 1 the run or its verdict failed (a shard worker died;
``repro health`` on an SLO failure; ``repro report`` on a claim's band
FAIL); 2 bad usage or input -- an inapplicable option, a malformed
``--slo``, an output path that cannot be written (checked before the run
starts), an unreadable or corrupt checkpoint, a missing JSONL or shard,
a torn line, a stream whose record ring dropped health evidence.  A 1 for a
failed run or band and every 2 are one ``error: ...`` line on stderr.
Status lines go through :mod:`logging` on stderr (``-v``/``-q``);
rendered figures and tables go to stdout, where they can be piped.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import re
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Iterable, Optional, Sequence

__all__ = ["main", "build_parser", "build_config", "cmd_health", "cmd_postmortem"]

logger = logging.getLogger("repro.cli")

#: Run options ``repro resume`` refuses: the checkpoint fixes the
#: configuration; only the horizon and the observe-only planes change.
_FIXED_ON_RESUME = ("full", "scale", "n", "seed", "shards", "loss")
_FIXED_ON_RESUME += ("latency_scale", "save", "checkpoint_every", "checkpoint_path")
#: Options every command honours: execution and verbosity only.
_ALWAYS_HONOURED = ("workers", "verbose", "quiet")
#: The ``repro profile`` options beside the run options.
_PROFILE_OPTIONS = ("events", "queries", "sort", "limit", "out")
#: Meta line kinds of a telemetry JSONL (everything else is a record).
_META_KINDS = frozenset({"run", "metrics", "spans", "audit_summary", "truncation"})


class UsageError(Exception):
    """Bad usage or input: reported as ``error: ...`` with exit code 2."""


# -- the parser ---------------------------------------------------------------


def _run_options() -> argparse.ArgumentParser:
    """The parent parser of every command that configures a run."""
    from .telemetry.config import AUDIT_LEVELS

    p = argparse.ArgumentParser(add_help=False)
    preset = p.add_mutually_exclusive_group()
    preset.add_argument(
        "--full", action="store_true", help="the paper's Table-2 scale (n=50000)"
    )
    preset.add_argument(
        "--scale",
        action="store_true",
        help="the 100k-peer large-scale preset (shortened churned horizon)",
    )
    p.add_argument("--n", type=int, help="override network size")
    p.add_argument("--horizon", type=float, help="override simulated horizon")
    p.add_argument("--seed", type=int, help="override root seed")
    p.add_argument(
        "--workers",
        type=int,
        metavar="N",
        help="worker processes for sweeps and sharded runs (sets "
        "REPRO_WORKERS; default all cores; never changes results)",
    )
    p.add_argument(
        "--shards",
        type=int,
        metavar="K",
        help="run as K logical shards on the conservative parallel engine "
        "(a model parameter, like --seed)",
    )
    p.add_argument(
        "--loss",
        type=float,
        metavar="P",
        help="route Phase-1 knowledge through messages, each leg dropped "
        "with probability P",
    )
    p.add_argument(
        "--latency-scale",
        type=float,
        metavar="L",
        help="median one-way Phase-1 message delay (implies messages)",
    )
    p.add_argument("--save", metavar="DIR", help="also write render + shape to DIR")
    p.add_argument(
        "--checkpoint-every",
        type=float,
        metavar="T",
        help="write a resumable checkpoint every T simulated time units",
    )
    p.add_argument(
        "--checkpoint-path",
        metavar="PATH",
        help="the checkpoint file (continue it with 'repro resume PATH')",
    )
    telemetry = p.add_argument_group(
        "telemetry",
        "observe the run; disabled -- and zero-overhead -- unless one of "
        "these is given (each implies --telemetry)",
    )
    telemetry.add_argument(
        "--telemetry", action="store_true", help="enable the telemetry plane"
    )
    telemetry.add_argument(
        "--audit-jsonl",
        metavar="PATH",
        help="export records, metrics and spans as JSONL ('repro trace/stats')",
    )
    telemetry.add_argument(
        "--chrome-trace", metavar="PATH", help="export spans as Perfetto JSON"
    )
    telemetry.add_argument(
        "--progress",
        type=float,
        metavar="SECONDS",
        help="log live progress every SECONDS of wall time",
    )
    telemetry.add_argument(
        "--audit-level",
        choices=AUDIT_LEVELS,
        help="DLM audit detail: every decision (full, the default), "
        "actions only, or off",
    )
    telemetry.add_argument(
        "--transport-trace",
        action="store_true",
        help="also record Phase-1 request lifecycle stages",
    )
    health = p.add_argument_group(
        "run health",
        "record health evidence in the telemetry stream; 'repro health "
        "RUN' runs the detectors over it",
    )
    health.add_argument(
        "--health", action="store_true", help="enable the run-health plane"
    )
    health.add_argument(
        "--slo",
        action="append",
        metavar="KEY=VALUE[,...]",
        help="override HealthConfig thresholds (repeatable; implies "
        "--health); VALUE 'none' disables a detector",
    )
    health.add_argument(
        "--flight-recorder",
        metavar="PATH",
        help="write a crash bundle to PATH.crash if the run dies on an "
        "unhandled exception (implies --health)",
    )
    verbosity = p.add_mutually_exclusive_group()
    verbosity.add_argument(
        "-v", "--verbose", action="store_true", help="debug diagnostics on stderr"
    )
    verbosity.add_argument(
        "-q", "--quiet", action="store_true", help="only warnings and errors"
    )
    return p


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per registry row, plus the tools."""
    from .experiments.registry import EXPERIMENTS
    from .profile import MICRO_WORKLOADS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce a table or figure of 'Dynamic Layer Management "
        "in Super-peer Architectures' (ICPP 2004), and inspect the runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    run = _run_options()
    for exp in EXPERIMENTS.values():
        help_text = f"{exp.paper_artifact}: {exp.description}"
        p = sub.add_parser(exp.exp_id, parents=[run], help=help_text)
        p.set_defaults(handler=_cmd_run, exp=exp)
    sub.add_parser("list", help="list the artifacts").set_defaults(handler=_cmd_list)
    p = sub.add_parser("report", parents=[run], help="print and judge EXPERIMENTS.md")
    p.set_defaults(handler=_cmd_report)
    p = sub.add_parser("resume", parents=[run], help="continue a checkpointed run")
    p.add_argument("path", help="checkpoint file written by --checkpoint-path")
    p.set_defaults(handler=_cmd_resume)

    p = sub.add_parser("profile", parents=[run], help="profile (see repro.profile)")
    p.add_argument("target", choices=[*EXPERIMENTS, *MICRO_WORKLOADS])
    p.add_argument("--events", type=int, help="scheduler workload size (100000)")
    p.add_argument("--queries", type=int, help="flooding workload size (200)")
    p.add_argument("--sort", choices=("cumulative", "tottime"), help="report order")
    p.add_argument("--limit", type=int, help="rows per report (25)")
    p.add_argument("--out", help="also dump raw pstats data to this path")
    p.set_defaults(handler=_cmd_profile)

    reads_run = argparse.ArgumentParser(add_help=False)
    reads_run.add_argument(
        "run", help="telemetry JSONL, or a sharded run prefix (RUN.shard<k> files)"
    )
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument("--json", action="store_true", help="emit one JSON object")
    p = sub.add_parser("trace", parents=[reads_run], help="filter record lines")
    p.add_argument("--grep", metavar="REGEX", help="lines whose JSON matches REGEX")
    p.add_argument("--peer", type=int, metavar="PID", help="records for peer PID")
    p.add_argument("--since", type=float, metavar="T", help="records at time >= T")
    p.add_argument("--kind", help="records of one kind, or of a 'kind.*' family")
    p.add_argument("--verdict", help="audit records with this verdict")
    p.add_argument("--limit", type=int, metavar="N", help="stop after N records")
    p.set_defaults(handler=_reads(cmd_trace, "run"))
    p = sub.add_parser("stats", parents=[reads_run, as_json], help="summarize a run")
    p.set_defaults(handler=_reads(cmd_stats, "run"))
    p = sub.add_parser(
        "health", parents=[reads_run, as_json], help="SLO report; exit 1 on FAIL"
    )
    p.set_defaults(handler=_reads(cmd_health, "run"))
    p = sub.add_parser("postmortem", parents=[as_json], help="render a bundle")
    p.add_argument("bundle", help="flight-recorder bundle")
    p.add_argument("--records", type=int, default=10, help="newest records (10)")
    p.add_argument("--audit", type=int, default=5, help="newest audit records (5)")
    p.set_defaults(handler=_reads(cmd_postmortem, "bundle"))
    return parser


# -- run options -> config ----------------------------------------------------


def _refuse(args, options: Iterable[str], command: str) -> None:
    """Refuse the first of ``options`` the command line set."""
    for dest in options:
        value = getattr(args, dest, None)
        if value is not None and value is not False:
            flag = "--" + dest.replace("_", "-")
            raise UsageError(f"{flag} does not apply to 'repro {command}'")


def _telemetry_config(args):
    """The run's TelemetryConfig, or None when no flag asked for one."""
    if not (
        args.telemetry
        or args.audit_jsonl is not None
        or args.chrome_trace is not None
        or args.progress is not None
        or args.audit_level is not None
        or args.transport_trace
    ):
        return None
    from .telemetry.config import TelemetryConfig

    _check_output("--audit-jsonl", args.audit_jsonl)
    _check_output("--chrome-trace", args.chrome_trace)

    try:
        return TelemetryConfig(
            audit_level=args.audit_level if args.audit_level is not None else "full",
            jsonl_path=args.audit_jsonl,
            chrome_trace_path=args.chrome_trace,
            progress_every=args.progress,
            transport_trace=args.transport_trace,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _coerce_slo_value(text: str):
    """``--slo`` values: 'none' disables, else int, float, or string."""
    if text.lower() in ("none", "null", "off"):
        return None
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            continue
    return text


def _health_config(args):
    """The run's HealthConfig, or None when no health flag was given."""
    if not (args.health or args.slo or args.flight_recorder is not None):
        return None
    from .health.config import HealthConfig

    valid = set(HealthConfig.field_names())
    overrides = {}
    for spec in args.slo or ():
        for pair in spec.split(","):
            pair = pair.strip()
            if not pair:
                continue
            key, sep, value = pair.partition("=")
            key = key.strip()
            if not sep:
                raise UsageError(f"--slo needs KEY=VALUE, got {pair!r}")
            if key not in valid:
                raise UsageError(
                    f"unknown --slo key {key!r}; valid keys: "
                    + ", ".join(sorted(valid))
                )
            overrides[key] = _coerce_slo_value(value.strip())
    if args.flight_recorder is not None:
        _check_output("--flight-recorder", args.flight_recorder)
        overrides["flight_path"] = args.flight_recorder
    try:
        return HealthConfig(**overrides)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _check_output(flag: str, path: Optional[str], *, directory: bool = False) -> None:
    """Refuse an output path a run could only fail on after it finished.

    Creates nothing (the writers make missing directories): the target
    must not exist as the wrong kind -- a directory where a file goes,
    or a file where ``--save``'s directory goes -- and its nearest
    existing ancestor must be a writable directory.
    """
    if path is None:
        return
    target = Path(path).absolute()
    if target.exists() and target.is_dir() != directory:
        raise UsageError(f"{flag} {path!r} is {'not ' * directory}a directory")
    parent = target.parent
    while not parent.exists():
        parent = parent.parent
    if not parent.is_dir() or not os.access(parent, os.W_OK | os.X_OK):
        raise UsageError(
            f"{flag} {path!r}: {str(parent)!r} is not a writable directory"
        )


def build_config(args):
    """The run options as one ExperimentConfig: the preset (``--full``,
    ``--scale`` or the bench scale), then each override on top.

    Raises :class:`UsageError` when they do not make a valid config, or
    when an output path is one the run could not write at its end.
    """
    from .experiments.configs import bench_config, largescale_config, table2_config

    if args.full:
        cfg = table2_config()
    elif args.scale:
        cfg = largescale_config()
    else:
        cfg = bench_config()
    if args.checkpoint_path is not None and args.checkpoint_every is None:
        raise UsageError("--checkpoint-path needs --checkpoint-every")
    _check_output("--checkpoint-path", args.checkpoint_path)
    _check_output("--save", args.save, directory=True)
    try:
        if args.n is not None:
            cfg = cfg.scaled(args.n)
        if args.horizon is not None:
            cfg = cfg.with_(horizon=args.horizon)
        if args.seed is not None:
            cfg = cfg.with_(seed=args.seed)
        if args.shards is not None:
            cfg = cfg.with_(shards=args.shards)
        if args.loss is not None or args.latency_scale is not None:
            from .protocol.faults import FaultPlan

            cfg = cfg.with_(
                faults=FaultPlan(
                    loss_rate=args.loss or 0.0,
                    latency_scale=args.latency_scale or 0.0,
                )
            )
        if args.checkpoint_every is not None:
            cfg = cfg.with_(
                checkpoint_every=args.checkpoint_every,
                checkpoint_path=args.checkpoint_path,
            )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    telemetry = _telemetry_config(args)
    if telemetry is not None:
        cfg = cfg.with_(telemetry=telemetry)
    health = _health_config(args)
    if health is not None:
        # The runner auto-wires a default TelemetryConfig when health is
        # enabled without any --telemetry flag.
        cfg = cfg.with_(health=health)
    return cfg


def _checked(exp, cfg):
    """``cfg``, unless the artifact's own check refuses it."""
    problem = exp.check(cfg) if exp.check is not None else None
    if problem:
        raise UsageError(problem)
    return cfg


def _sweep(exp, args, cfg) -> dict:
    """A size sweep's keywords: ``--n`` runs that one size and ``--full``
    the paper's sizes; otherwise the sweep keeps its own."""
    if not exp.paper_sizes:
        return {}
    if args.n is not None:
        return {"sizes": (cfg.n,)}
    return {"sizes": exp.paper_sizes} if args.full else {}


# -- run-shaped commands ------------------------------------------------------


def _cmd_run(args) -> int:
    """``repro <id>``: run one artifact, print its render and shape."""
    exp = args.exp
    _refuse(args, exp.ignores, exp.exp_id)
    cfg = _checked(exp, build_config(args))
    started = time.perf_counter()
    result = exp.run(cfg, **_sweep(exp, args, cfg))
    elapsed = time.perf_counter() - started

    rendered = exp.render(result)
    print(rendered)
    shape = exp.shape(result)
    print("\nshape metrics:")
    for key, value in shape.items():
        print(f"  {key}: {value}")
    if args.save:
        out = Path(args.save)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{exp.exp_id}.txt").write_text(rendered + "\n")
        (out / f"{exp.exp_id}_shape.json").write_text(
            json.dumps(shape, indent=2, sort_keys=True, default=str)
        )
    if cfg.telemetry is not None:
        for path, label in (
            (cfg.telemetry.jsonl_path, "telemetry"),
            (cfg.telemetry.chrome_trace_path, "trace"),
        ):
            if path:
                logger.info("%s written to %s", label, path)
    logger.info("[%s completed in %.1fs]", exp.exp_id, elapsed)
    return 0


def _cmd_list(args) -> int:
    from .experiments.registry import EXPERIMENTS

    for exp_id, exp in sorted(EXPERIMENTS.items()):
        print(f"{exp_id:10s} {exp.paper_artifact:9s} {exp.description}")
    return 0


def _cmd_report(args) -> int:
    """``repro report``: EXPERIMENTS.md on stdout; 1 if a claim's band FAILed."""
    from .experiments.registry import SINGLE_RUN_OUTPUTS
    from .experiments.report import generate_experiments_report

    _refuse(args, ("save", *SINGLE_RUN_OUTPUTS), "report")
    report, failed = generate_experiments_report(build_config(args))
    print(report)
    if failed:
        print(f"error: band FAIL: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


def _cmd_resume(args) -> int:
    """``repro resume PATH``: continue a checkpointed run and summarize it."""
    from .experiments.checkpoint import CheckpointError, CheckpointManager, resume_run

    _refuse(args, _FIXED_ON_RESUME, "resume")
    telemetry, health = _telemetry_config(args), _health_config(args)
    started = time.perf_counter()
    try:
        payload = CheckpointManager.load(args.path)
        result = resume_run(
            payload, horizon=args.horizon, telemetry=telemetry, health=health
        )
    except CheckpointError as exc:
        raise UsageError(str(exc)) from exc
    elapsed = time.perf_counter() - started
    if hasattr(result, "stats"):  # sharded: no single overlay, one summary
        stats = result.stats
        until = f"{result.config.horizon:g} [{stats.shards} shards, "
        until += f"{stats.workers} workers]"
        counts = (result.n, result.n_super, result.n_leaf)
        counts += (result.joins, result.deaths)
    else:
        ov, driver = result.overlay, result.driver
        until = f"{result.ctx.sim.now:g}"
        counts = (ov.n, ov.n_super, ov.n_leaf, driver.joins, driver.deaths)
    n, n_super, n_leaf, joins, deaths = counts
    ratio = n_leaf / n_super if n_super else float("inf")
    header = payload["header"]
    print(
        f"resumed {result.config.name!r} ({header['policy']}) from "
        f"t={header['time']:g} to t={until}"
    )
    print(
        f"  peers: {n}  supers: {n_super}  ratio: {ratio:.2f}  "
        f"joins: {joins}  deaths: {deaths}"
    )
    logger.info("[resume completed in %.1fs]", elapsed)
    return 0


def _cmd_profile(args) -> int:
    """``repro profile TARGET``: cProfile an artifact, or run a
    micro-workload (a profile or a timer)."""
    from . import profile
    from .experiments.registry import EXPERIMENTS

    command = f"profile {args.target}"
    exp = EXPERIMENTS.get(args.target)
    if exp is not None:
        _refuse(args, (*exp.ignores, "save", "events", "queries"), command)
        cfg = _checked(exp, build_config(args))
        sweep = _sweep(exp, args, cfg)

        def workload():
            return exp.run(cfg, **sweep)

    else:
        fn, reads = profile.MICRO_WORKLOADS[args.target]
        options = (*vars(_run_options().parse_args([])), *_PROFILE_OPTIONS)
        honoured = (*reads, *_ALWAYS_HONOURED)
        _refuse(args, (o for o in options if o not in honoured), command)
        workload = fn(build_config(args), args)
        if workload is None:  # a timer: it printed its own figures
            return 0
    profile.profile_call(
        workload,
        args.sort or "cumulative",
        25 if args.limit is None else args.limit,
        args.out,
    )
    return 0


# -- readers: telemetry JSONL, health report, flight bundle -------------------


def _reads(cmd, dest: str):
    """``cmd`` reads the file ``args.<dest>`` names: an unreadable one (a
    missing path or shard, a torn JSONL line, not a bundle) is bad input."""

    def handler(args) -> int:
        try:
            return cmd(args)
        except (OSError, ValueError) as exc:
            raise UsageError(f"{getattr(args, dest)}: {exc}") from exc

    return handler


def cmd_trace(args, out=None) -> int:
    """``repro trace RUN``: print the record lines that pass the filters.

    A sharded run prefix (``RUN.shard0`` .. without ``RUN``) merges on
    the fly by the ``(t, shard, seq)`` total order, so it reads exactly
    like a classic run.
    """
    from .health.aggregate import resolve_run_stream

    out = out if out is not None else sys.stdout
    pattern = re.compile(args.grep) if args.grep else None
    printed = 0
    for line in resolve_run_stream(args.run):
        kind = line.get("kind")
        in_kind = args.kind and (kind == args.kind or kind.startswith(args.kind + "."))
        if (
            kind in _META_KINDS
            or (args.kind and not in_kind)
            or (args.peer is not None and line.get("pid") != args.peer)
            or (args.since is not None and line.get("t", 0.0) < args.since)
            or (args.verdict and line.get("verdict") != args.verdict)
        ):
            continue
        # Match --grep against the compact on-disk form, so a pattern
        # copied from the file (e.g. '"verdict":"demote"') works.
        text = json.dumps(line, separators=(",", ":"), sort_keys=True)
        if pattern is not None and not pattern.search(text):
            continue
        out.write(text + "\n")
        printed += 1
        if args.limit is not None and printed >= args.limit:
            break
    if printed == 0:
        print("no matching records", file=sys.stderr)
    return 0


def _summarize(path: str) -> dict:
    from .health.aggregate import resolve_run_stream

    meta: dict = {}
    records: Counter = Counter()
    verdicts: Counter = Counter()
    t_min: Optional[float] = None
    t_max: Optional[float] = None
    for line in resolve_run_stream(path):
        kind = line.get("kind")
        if kind in _META_KINDS:
            meta[kind] = line
            continue
        records[kind] += 1
        t = line.get("t")
        if t is not None:
            t_min = t if t_min is None else min(t_min, t)
            t_max = t if t_max is None else max(t_max, t)
        if kind == "audit" and line.get("verdict"):
            verdicts[line["verdict"]] += 1
    return {
        "run": meta.get("run"),
        "records": dict(sorted(records.items())),
        "t_range": None if t_min is None else [t_min, t_max],
        "recorded_verdicts": dict(sorted(verdicts.items())),
        # Exact tallies (survive "actions"-level and ring eviction).
        "audit_summary": meta.get("audit_summary"),
        "truncation": meta.get("truncation"),
        "metrics": meta["metrics"].get("data", {}) if "metrics" in meta else None,
        "spans": meta["spans"].get("data", {}) if "spans" in meta else None,
    }


def cmd_stats(args, out=None) -> int:
    """``repro stats RUN``: header, verdict tallies, metrics, span table."""
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


def cmd_health(args, out=None) -> int:
    """``repro health RUN``: the detectors replayed over the run's
    evidence; 1 when the SLO failed (any critical firing), 2 when the run
    had no health plane or its record ring dropped evidence."""
    from .health.aggregate import resolve_run_stream
    from .health.slo import build_report, render_report, report_as_json

    out = out if out is not None else sys.stdout
    report = build_report(resolve_run_stream(args.run))
    out.write(report_as_json(report) if args.json else render_report(report))
    if not report.enabled:
        return 2
    return 0 if report.passed else 1


def cmd_postmortem(args, out=None) -> int:
    """``repro postmortem BUNDLE``: the reason, scheduler state, verdict
    tallies, and the retained record and audit tails."""
    from .health.flight import load_flight_bundle

    out = out if out is not None else sys.stdout
    bundle = load_flight_bundle(args.bundle)
    if args.json:
        out.write(json.dumps(bundle, indent=2, sort_keys=True) + "\n")
        return 0
    cfg = bundle.get("config", {})
    keys = ("name", "n", "seed", "policy", "shards")
    out.write(
        "postmortem: {name} (n={n}, seed={seed}, policy={policy}, "
        "shards={shards})\n".format(**{k: cfg.get(k) for k in keys})
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
        out.write("  " + json.dumps(record, separators=(",", ":"), sort_keys=True))
        out.write("\n")
    audit = bundle.get("audit", [])
    if audit:
        out.write(f"audit tail: {len(audit)} record(s) in bundle\n")
        for record in audit[-args.audit:]:
            out.write("  " + json.dumps(record, separators=(",", ":"), sort_keys=True))
            out.write("\n")
    error = bundle.get("error")
    if error:
        out.write("error:\n")
        for line in error.rstrip("\n").splitlines():
            out.write(f"  {line}\n")
    return 0


# -- entry point --------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if getattr(args, "verbose", False):
        level = logging.DEBUG
    elif getattr(args, "quiet", False):
        level = logging.WARNING
    else:
        level = logging.INFO
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(message)s", force=True
    )
    try:
        if hasattr(args, "workers"):
            from .experiments.parallel import WORKERS_ENV, resolve_workers

            try:  # refused before the run, not inside its first pool
                resolve_workers(args.workers)
            except ValueError as exc:
                source = WORKERS_ENV if args.workers is None else "--workers"
                raise UsageError(str(exc).replace("n_workers", source)) from None
            if args.workers is not None:
                # Harnesses resolve REPRO_WORKERS themselves, so the env var
                # reaches them through the registry's plain run(config) signature.
                os.environ[WORKERS_ENV] = str(args.workers)
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        from .experiments.sharded import ShardWorkerError

        if not isinstance(exc, ShardWorkerError):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
