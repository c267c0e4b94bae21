"""Tests for the EXPERIMENTS.md report generator and its claims verdict."""

from __future__ import annotations

import dataclasses
import re

import pytest

from repro.cli import main
from repro.experiments.configs import bench_config
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.report import generate_experiments_report


@pytest.fixture(scope="module")
def report():
    tiny = bench_config().with_(n=250, horizon=300.0, warmup=30.0, seed=8)
    text, _ = generate_experiments_report(
        tiny,
        include_renders=False,
        table3_sizes=(150, 300),
        table3_settle=150.0,
        table3_window=100.0,
    )
    return text


class TestReport:
    def test_every_artifact_has_a_section(self, report):
        for title in (
            "## Figure 1",
            "## Figure 4",
            "## Figure 5",
            "## Figure 6",
            "## Figure 7",
            "## Figure 8",
            "## Table 3",
            "## Tables 1 and 2",
        ):
            assert title in report

    def test_each_section_pairs_claim_with_measurement(self, report):
        assert report.count("**Paper claim.**") == 7
        assert report.count("**Measured shape.**") == 7

    def test_every_band_has_a_verdict_cell(self, report):
        sections = report.split("\n## ")
        for exp in EXPERIMENTS.values():
            if not exp.claim:
                continue
            (section,) = [s for s in sections if s.startswith(exp.paper_artifact)]
            for metric in exp.bands:
                assert re.search(
                    rf"^\| {metric} \| [^|]+ \| [^|]+ \| (PASS|FAIL) \|$",
                    section,
                    re.MULTILINE,
                ), (exp.exp_id, metric)

    def test_views_of_one_run_share_it(self, report):
        assert report.count("*Same run as Figure 4.*") == 2
        assert report.count("*Same run as Figure 7.*") == 1

    def test_renders_suppressed_when_asked(self, report):
        assert "```" not in report

    def test_deviations_documented(self, report):
        assert "transient" in report  # the Figure-5 inversion note
        assert "demotes more readily" in report  # the Table-3 magnitude note

    def test_markdown_tables_well_formed(self, report):
        for line in report.splitlines():
            if line.startswith("|") and "---" not in line:
                assert line.count("|") == 5


def _stub_rows(monkeypatch, measured, failing=None):
    """Every reported row measures ``measured`` without a run (rows that
    share a run share its stub); the ``failing`` row's band excludes it.
    Returns the stubs' calls."""
    calls, stubs = [], {}
    for exp_id, exp in list(EXPERIMENTS.items()):
        if exp.claim:
            lo = measured + 1 if exp_id == failing else measured
            row = dataclasses.replace(
                exp,
                run=stubs.setdefault(
                    exp.run, lambda cfg, _id=exp_id, **sweep: calls.append(_id)
                ),
                shape=lambda r: {"x": measured},
                render=lambda r: "",
                bands={"x": (lo, lo + 1)},
            )
            monkeypatch.setitem(EXPERIMENTS, exp_id, row)
    return calls


class TestClaimsVerdict:
    def test_report_exits_0_when_every_band_passes(self, monkeypatch, capsys):
        _stub_rows(monkeypatch, 0.5)
        assert main(["report"]) == 0
        out = capsys.readouterr()
        assert "| x | 0.5 | [0.5, 1.5] | PASS |" in out.out
        assert out.err == ""

    def test_report_exits_1_after_printing_on_a_failed_band(
        self, monkeypatch, capsys
    ):
        _stub_rows(monkeypatch, 0.5, failing="figure6")
        assert main(["report"]) == 1
        out = capsys.readouterr()
        assert "| x | 0.5 | [1.5, 2.5] | FAIL |" in out.out
        assert "## Tables 1 and 2" in out.out  # the whole report, then 1
        assert "figure6 x" in out.err

    def test_one_run_per_distinct_run_and_config(self, monkeypatch, capsys):
        calls = _stub_rows(monkeypatch, 0.5)
        main(["report"])
        # Figures 4-6 are one dynamic run, Figures 7-8 one comparison.
        assert calls == ["figure1", "figure4", "figure7", "table3"]
