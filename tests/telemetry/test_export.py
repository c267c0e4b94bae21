"""Exporters: JSONL stream layout and the Chrome-trace span dump."""

from __future__ import annotations

import json
import os

import pytest

from repro.experiments.configs import table2_config
from repro.experiments.runner import run_experiment
from repro.telemetry import TelemetryConfig, export_run, iter_jsonl, write_jsonl
from repro.telemetry.export import _CHUNK, write_chrome_trace


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    out = tmp_path_factory.mktemp("telemetry")
    jsonl = out / "run.jsonl"
    trace = out / "trace.json"
    tcfg = TelemetryConfig(jsonl_path=str(jsonl), chrome_trace_path=str(trace))
    cfg = table2_config().with_(
        name="export-test",
        n=250,
        horizon=120.0,
        warmup=20.0,
        seed=11,
        telemetry=tcfg,
    )
    result = run_experiment(cfg)
    return result, jsonl, trace


class TestJsonlExport:
    def test_header_first_then_records_then_summaries(self, exported):
        _, jsonl, _ = exported
        lines = list(iter_jsonl(str(jsonl)))
        assert lines[0]["kind"] == "run"
        assert lines[0]["name"] == "export-test"
        assert lines[0]["n"] == 250 and lines[0]["policy"] == "dlm"
        kinds = [line["kind"] for line in lines]
        assert kinds[-1] == "spans"
        assert "metrics" in kinds and "audit_summary" in kinds
        records = [ln for ln in lines if ln["kind"] == "audit"]
        assert records, "a churned DLM run must audit decisions"
        assert all("pid" in r and "verdict" in r for r in records)

    def test_record_seqs_strictly_increase(self, exported):
        _, jsonl, _ = exported
        seqs = [line["seq"] for line in iter_jsonl(str(jsonl)) if "seq" in line]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_trailing_metrics_match_live_registry(self, exported):
        result, jsonl, _ = exported
        (metrics,) = [ln for ln in iter_jsonl(str(jsonl)) if ln["kind"] == "metrics"]
        live = result.telemetry.registry.collect()
        assert metrics["data"]["dlm.evaluations"] == live["dlm.evaluations"]
        assert metrics["data"]["overlay.n"] == live["overlay.n"]

    def test_audit_summary_has_exact_tallies(self, exported):
        result, jsonl, _ = exported
        (summary,) = [
            ln for ln in iter_jsonl(str(jsonl)) if ln["kind"] == "audit_summary"
        ]
        assert summary["verdicts"] == dict(
            sorted(result.telemetry.audit.verdict_counts.items())
        )


class TestChromeTrace:
    def test_spans_become_complete_events(self, exported):
        _, _, trace = exported
        payload = json.loads(trace.read_text())
        events = payload["traceEvents"]
        assert events, "spans must be exported"
        names = {e["name"] for e in events}
        assert {"run.wire", "run.populate", "run.execute"} <= names
        for e in events:
            assert e["ph"] == "X"
            assert e["dur"] >= 0.0

    def test_lanes_become_named_pids(self, tmp_path):
        target = tmp_path / "trace.json"
        lanes = {1: [("b", 0.5, 0.25, 1)], 0: [("a", 0.0, 1.0, 0)]}
        assert write_chrome_trace(str(target), lanes) == 2
        events = json.loads(target.read_text())["traceEvents"]
        assert [(e["ph"], e["pid"], e["name"]) for e in events] == [
            ("M", 0, "process_name"),
            ("X", 0, "a"),
            ("M", 1, "process_name"),
            ("X", 1, "b"),
        ]
        assert events[2]["args"] == {"name": "shard 1"}
        assert (events[3]["ts"], events[3]["dur"], events[3]["tid"]) == (
            500000.0,
            250000.0,
            1,
        )

    def test_a_two_shard_run_writes_one_lane_per_shard(self, tmp_path):
        trace = tmp_path / "trace.json"
        cfg = table2_config().with_(
            name="export-k2",
            n=250,
            horizon=60.0,
            warmup=10.0,
            seed=11,
            shards=2,
            telemetry=TelemetryConfig(chrome_trace_path=str(trace)),
        )
        run_experiment(cfg)
        events = json.loads(trace.read_text())["traceEvents"]
        lanes = {e["pid"]: e["args"]["name"] for e in events if e["ph"] == "M"}
        assert lanes == {0: "shard 0", 1: "shard 1"}
        for k in lanes:
            names = {e["name"] for e in events if e["ph"] == "X" and e["pid"] == k}
            assert {"run.wire", "run.execute"} <= names
        assert {e["ph"] for e in events} == {"M", "X"}


class TestExportRun:
    def test_disabled_plane_exports_nothing(self):
        cfg = table2_config().with_(n=200, horizon=60.0, warmup=10.0)
        result = run_experiment(cfg)
        assert export_run(result) == {}

    def test_explicit_paths_override_config(self, exported, tmp_path):
        result, _, _ = exported
        target = tmp_path / "override.jsonl"
        written = export_run(result, jsonl_path=str(target), chrome_trace_path="")
        assert written["jsonl"] > 0
        assert target.exists()
        assert "chrome_trace" not in written


class TestAtomicWrite:
    def test_a_writer_failing_after_the_first_chunk_leaves_the_old_file(
        self, tmp_path
    ):
        target = tmp_path / "run.jsonl"
        target.write_text("previous\n")
        tmp = tmp_path / "run.jsonl.tmp"

        def lines():
            yield from ({"i": i, "pad": "x" * 64} for i in range(_CHUNK))
            assert tmp.stat().st_size > 0  # the first chunk went out
            raise RuntimeError("writer died")

        with pytest.raises(RuntimeError, match="writer died"):
            write_jsonl(str(target), lines())
        assert target.read_text() == "previous\n"
        assert sorted(tmp_path.iterdir()) == [target]

    def test_a_failed_chrome_trace_write_leaves_the_old_file(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "trace.json"
        target.write_text("previous\n")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            write_chrome_trace(str(target), {0: [("run.wire", 0.0, 1.0, 0)]})
        assert target.read_text() == "previous\n"
        assert sorted(tmp_path.iterdir()) == [target]

    def test_a_completed_write_replaces_the_file(self, tmp_path):
        target = tmp_path / "sub" / "run.jsonl"
        assert write_jsonl(str(target), [{"b": 1, "a": [0.5, None]}]) == 1
        assert target.read_text() == '{"a":[0.5,null],"b":1}\n'
        assert sorted(target.parent.iterdir()) == [target]
