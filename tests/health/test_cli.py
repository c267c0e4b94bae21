"""``repro health`` exit codes, ``--slo`` parsing, and sharded read-back."""

from __future__ import annotations

import io
import json

import pytest

from repro.experiments.cli import main as repro_main
from repro.experiments.configs import table2_config
from repro.experiments.runner import run_experiment
from repro.health.cli import cmd_health
from repro.health.config import HealthConfig
from repro.health.slo import build_report, render_report
from repro.telemetry import TelemetryConfig
from repro.telemetry.cli import main as telemetry_main
from repro.telemetry.export import iter_jsonl


def run_with_health(tmp_path, name="clirun", health=None, **cfg_kw):
    jsonl = tmp_path / f"{name}.jsonl"
    cfg = table2_config().with_(
        name=name,
        n=200,
        horizon=80.0,
        warmup=20.0,
        seed=5,
        telemetry=TelemetryConfig(jsonl_path=str(jsonl)),
        health=health,
        **cfg_kw,
    )
    run_experiment(cfg)
    return jsonl


class Args:
    json = False

    def __init__(self, run):
        self.run = run


class TestHealthExitCodes:
    def test_stream_without_health_is_exit_2(self, tmp_path):
        jsonl = run_with_health(tmp_path, health=None)
        out = io.StringIO()
        assert cmd_health(Args(str(jsonl)), out=out) == 2
        assert "no health records" in out.getvalue()

    def test_quiet_run_passes_with_exit_0(self, tmp_path):
        # Thresholds far out of reach: the plane runs but stays quiet.
        jsonl = run_with_health(
            tmp_path,
            health=HealthConfig(
                ratio_band=1e6, imbalance_ratio=1e6, surge_count=10**9
            ),
        )
        out = io.StringIO()
        assert cmd_health(Args(str(jsonl)), out=out) == 0
        text = out.getvalue()
        assert "SLO: PASS" in text
        assert "all detectors quiet" in text

    def test_critical_firing_fails_with_exit_1(self, tmp_path):
        jsonl = run_with_health(
            tmp_path,
            health=HealthConfig(ratio_band=0.0, critical_after=1),
        )
        out = io.StringIO()
        assert cmd_health(Args(str(jsonl)), out=out) == 1
        text = out.getvalue()
        assert "SLO: FAIL" in text
        assert "ratio_drift" in text
        assert "worst window" in text

    def test_json_report_shape(self, tmp_path):
        jsonl = run_with_health(
            tmp_path, health=HealthConfig(ratio_band=0.0, critical_after=1)
        )

        class JsonArgs(Args):
            json = True

        out = io.StringIO()
        assert cmd_health(JsonArgs(str(jsonl)), out=out) == 1
        report = json.loads(out.getvalue())
        assert report["passed"] is False
        assert report["enabled"] is True
        assert "ratio_drift" in report["detectors"]
        timeline = report["detectors"]["ratio_drift"]
        assert timeline["criticals"] >= 1
        assert timeline["worst"]["severity"] in ("warning", "critical")
        assert timeline["worst"]["value"] > 0.0


class TestSloFlagParsing:
    def test_slo_overrides_reach_the_run(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = repro_main(
            [
                "figure6",
                "--n",
                "200",
                "--slo",
                "ratio_band=0.0,critical_after=1",
                "--slo",
                "surge_count=none",
                "--audit-jsonl",
                "slo.jsonl",
            ]
        )
        assert rc == 0
        kinds = {
            line["kind"]
            for line in iter_jsonl("slo.jsonl")
            if line["kind"].startswith("health.")
        }
        assert "health.ratio_drift" in kinds

    def test_unknown_slo_key_is_exit_2(self):
        assert repro_main(["figure6", "--slo", "bogus_key=1"]) == 2

    def test_malformed_slo_pair_is_exit_2(self):
        assert repro_main(["figure6", "--slo", "ratio_band"]) == 2


class TestShardedReadBack:
    @pytest.fixture(scope="class")
    def sharded_run(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("shardcli")
        jsonl = tmp_path / "run.jsonl"
        cfg = table2_config().with_(
            name="shardcli",
            n=300,
            horizon=60.0,
            warmup=10.0,
            seed=5,
            shards=2,
            telemetry=TelemetryConfig(jsonl_path=str(jsonl)),
            health=HealthConfig(),
        )
        run_experiment(cfg)
        return jsonl

    def test_engine_writes_the_merged_run_stream(self, sharded_run):
        header = next(iter_jsonl(str(sharded_run)))
        assert header["shards"] == 2
        assert header["n"] == 300
        assert header["name"] == "shardcli"
        shard_seqs = [
            line["shard"]
            for line in iter_jsonl(str(sharded_run))
            if "shard" in line and line["kind"] != "run"
        ]
        assert set(shard_seqs) == {0, 1}

    def test_stats_and_trace_accept_the_prefix(self, sharded_run, capsys):
        # Remove nothing: the merged file exists, so the prefix resolves
        # to it directly; dropping it must fall back to the .shard files.
        assert telemetry_main(["stats", str(sharded_run)]) == 0
        merged_stats = capsys.readouterr().out

        renamed = sharded_run.with_suffix(".moved")
        sharded_run.rename(renamed)
        try:
            assert telemetry_main(["stats", str(sharded_run)]) == 0
            prefix_stats = capsys.readouterr().out
            # Same records and metrics whether read from the engine's
            # merged file or merged on the fly from the shard streams.
            assert self._strip_header(prefix_stats) == self._strip_header(
                merged_stats
            )
            assert telemetry_main(
                ["trace", str(sharded_run), "--kind", "health", "--limit", "5"]
            ) == 0
            traced = capsys.readouterr().out.strip().splitlines()
            assert traced
            assert all(
                json.loads(line)["kind"].startswith("health.")
                for line in traced
            )
        finally:
            renamed.rename(sharded_run)

    @staticmethod
    def _strip_header(stats_text):
        # The engine-written header carries the root seed; the on-the-fly
        # merge shows the derived shard seeds.  Everything else matches.
        return [
            line
            for line in stats_text.splitlines()
            if not line.startswith("run:") and "wall" not in line
        ]

    def test_health_report_notes_the_shard_merge(self, sharded_run):
        report = build_report(iter_jsonl(str(sharded_run)))
        text = render_report(report)
        assert "merged from 2 shard streams" in text
        assert report.enabled
