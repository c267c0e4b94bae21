"""SLO evaluation over an exported stream: the ``repro health`` report.

:func:`build_report` replays the detectors over a run-level JSONL line
stream (classic file or merged sharded streams, see
:mod:`repro.health.aggregate`; the fold is
:func:`repro.health.evidence.replay`) and folds their firings into a
:class:`HealthReport`: per-detector timelines (firing counts by
severity, breach episodes, the worst window by threshold overshoot)
plus the run-level pass/fail verdict -- **pass** means no detector ever
reached ``critical``.

The report is a pure function of the record stream, so it inherits the
stream's determinism: serial vs parallel workers, any worker count
under ``--shards K``, and checkpoint/resume all render byte-identical
reports (the golden tests assert exactly this).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from .evidence import replay

__all__ = ["DetectorTimeline", "HealthReport", "build_report", "render_report"]


@dataclass
class DetectorTimeline:
    """One detector's firing history over the run."""

    detector: str
    warnings: int = 0
    criticals: int = 0
    recoveries: int = 0
    first_t: Optional[float] = None
    last_t: Optional[float] = None
    #: The firing with the largest threshold overshoot (value/threshold).
    worst: Optional[dict] = None
    #: Breach episodes as ``[start_t, end_t_or_None, peak_severity]``.
    episodes: List[list] = field(default_factory=list)

    def observe(self, record: dict) -> None:
        severity = record.get("severity")
        t = record.get("t", 0.0)
        self.first_t = t if self.first_t is None else self.first_t
        self.last_t = t
        if severity == "warning":
            self.warnings += 1
            # Per-peer flap warnings fold into the already-open episode.
            if not self._open():
                self.episodes.append([t, None, "warning"])
        elif severity == "critical":
            self.criticals += 1
            if not self._open():
                self.episodes.append([t, None, "critical"])
            else:
                self.episodes[-1][2] = "critical"
        elif severity == "recovered":
            self.recoveries += 1
            if self._open():
                self.episodes[-1][1] = t
        self._consider_worst(record)

    def _open(self) -> bool:
        return bool(self.episodes) and self.episodes[-1][1] is None

    def _consider_worst(self, record: dict) -> None:
        if record.get("severity") == "recovered":
            return
        value = record.get("value", 0.0)
        threshold = record.get("threshold", 0.0)
        overshoot = value / threshold if threshold else value
        current = self.worst
        if current is None:
            self.worst = record
            return
        cur_threshold = current.get("threshold", 0.0)
        cur_overshoot = (
            current.get("value", 0.0) / cur_threshold
            if cur_threshold
            else current.get("value", 0.0)
        )
        if overshoot > cur_overshoot:
            self.worst = record

    @property
    def firings(self) -> int:
        return self.warnings + self.criticals + self.recoveries

    def to_dict(self) -> dict:
        return {
            "detector": self.detector,
            "warnings": self.warnings,
            "criticals": self.criticals,
            "recoveries": self.recoveries,
            "t_range": (
                None if self.first_t is None else [self.first_t, self.last_t]
            ),
            "worst": self.worst,
            "episodes": self.episodes,
        }


@dataclass
class HealthReport:
    """The run-level SLO verdict plus per-detector timelines."""

    run: Optional[dict]
    enabled: bool
    detectors: Dict[str, DetectorTimeline]
    ticks: int

    @property
    def warnings(self) -> int:
        return sum(t.warnings for t in self.detectors.values())

    @property
    def criticals(self) -> int:
        return sum(t.criticals for t in self.detectors.values())

    @property
    def passed(self) -> bool:
        """SLO pass: the run never crossed into ``critical``."""
        return self.criticals == 0

    def to_dict(self) -> dict:
        return {
            "run": self.run,
            "enabled": self.enabled,
            "passed": self.passed,
            "warnings": self.warnings,
            "criticals": self.criticals,
            "ticks": self.ticks,
            "detectors": {
                name: timeline.to_dict()
                for name, timeline in sorted(self.detectors.items())
            },
        }


def build_report(lines: Iterable[dict]) -> HealthReport:
    """Fold a run-level JSONL line stream into a :class:`HealthReport`."""
    run, firings, ticks = replay(lines)
    detectors: Dict[str, DetectorTimeline] = {}
    for firing in firings or ():
        detector = firing["kind"].removeprefix("health.")
        timeline = detectors.get(detector)
        if timeline is None:
            timeline = detectors[detector] = DetectorTimeline(detector)
        timeline.observe(firing)
    return HealthReport(
        run=run, enabled=firings is not None, detectors=detectors, ticks=ticks
    )


def _format_episode(episode: list) -> str:
    start, end, severity = episode
    end_text = f"{end:g}" if end is not None else "end-of-run"
    return f"[t={start:g} -> {end_text}, peak={severity}]"


def render_report(report: HealthReport) -> str:
    """The human-readable report text (stable: no wall-clock content)."""
    out: List[str] = []
    header = report.run
    if header:
        seed = header.get("seed")
        out.append(
            "run: {name} (n={n}, seed={seed}, horizon={horizon},"
            " policy={policy})".format(
                name=header.get("name"),
                n=header.get("n"),
                seed=seed,
                horizon=header.get("horizon"),
                policy=header.get("policy"),
            )
        )
        if header.get("shards", 1) and header.get("shards", 1) > 1:
            out.append(f"  merged from {header['shards']} shard streams")
    if not report.enabled:
        out.append(
            "health: not enabled in this run (its header has no health "
            "entry; was the run executed with --health?)"
        )
        return "\n".join(out) + "\n"
    verdict = "PASS" if report.passed else "FAIL"
    out.append(
        f"SLO: {verdict} ({report.criticals} critical, "
        f"{report.warnings} warning firing(s) over {report.ticks} ticks)"
    )
    out.append("detectors:")
    for name, timeline in sorted(report.detectors.items()):
        lo, hi = timeline.first_t, timeline.last_t
        out.append(
            f"  {name}: {timeline.warnings} warning(s), "
            f"{timeline.criticals} critical(s), "
            f"{timeline.recoveries} recovery(ies) over t=[{lo:g}, {hi:g}]"
        )
        worst = timeline.worst
        if worst:
            parts = [
                f"t={worst.get('t', 0.0):g}",
                f"severity={worst.get('severity')}",
                f"value={worst.get('value', 0.0):g}",
                f"threshold={worst.get('threshold', 0.0):g}",
                f"window_start={worst.get('window_start', 0.0):g}",
                f"breaches={worst.get('breaches', 0)}",
            ]
            if worst.get("pid") is not None:
                parts.append(f"pid={worst['pid']}")
            if worst.get("shard") is not None:
                parts.append(f"shard={worst['shard']}")
            out.append(f"    worst window: {' '.join(parts)}")
        if timeline.episodes:
            rendered = ", ".join(
                _format_episode(e) for e in timeline.episodes
            )
            out.append(f"    episodes: {rendered}")
    quiet = not report.detectors
    if quiet:
        out.append("  (all detectors quiet)")
    return "\n".join(out) + "\n"


def report_as_json(report: HealthReport) -> str:
    """The report as one pretty-printed JSON object."""
    return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
