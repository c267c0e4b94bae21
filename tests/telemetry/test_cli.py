"""``repro trace`` / ``repro stats`` on an exported JSONL."""

from __future__ import annotations

import json

import pytest

from repro.cli import main as repro_main


@pytest.fixture(scope="module")
def jsonl(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "run.jsonl"
    header = {
        "kind": "run",
        "schema": 1,
        "name": "t",
        "n": 10,
        "seed": 1,
        "horizon": 50.0,
        "policy": "dlm",
    }
    promote = {
        "seq": 0,
        "t": 10.0,
        "kind": "audit",
        "pid": 1,
        "role": "leaf",
        "verdict": "promote",
        "mu": 0.5,
        "g_size": 3,
    }
    none = {
        "seq": 1,
        "t": 20.0,
        "kind": "audit",
        "pid": 2,
        "role": "leaf",
        "verdict": "none",
        "mu": 0.4,
        "g_size": 3,
    }
    defer = {
        "seq": 2,
        "t": 30.0,
        "kind": "audit",
        "pid": 1,
        "role": "super",
        "verdict": "defer",
        "reason": "no_mu",
        "g_size": 1,
    }
    sent = {
        "seq": 3,
        "t": 35.0,
        "kind": "transport",
        "stage": "sent",
        "rid": 9,
        "requester": 1,
        "responder": 4,
    }
    metrics = {"kind": "metrics", "t": 50.0, "data": {"overlay.n": 10}}
    summary = {
        "kind": "audit_summary",
        "level": "full",
        "verdicts": {"promote": 1, "none": 1, "defer": 1},
    }
    spans = {
        "kind": "spans",
        "data": {"run.execute": {"calls": 1, "wall_s": 0.5, "events": 99}},
    }
    lines = [header, promote, none, defer, sent, metrics, summary, spans]
    with open(path, "w") as fh:
        for line in lines:
            fh.write(json.dumps(line) + "\n")
    return str(path)


def _trace(capsys, jsonl, *flags):
    assert repro_main(["trace", jsonl, *flags]) == 0
    out = capsys.readouterr().out.strip()
    return [json.loads(line) for line in out.splitlines() if line]


class TestTrace:
    def test_prints_record_lines_only(self, capsys, jsonl):
        records = _trace(capsys, jsonl)
        assert len(records) == 4
        assert {r["kind"] for r in records} == {"audit", "transport"}

    def test_peer_filter(self, capsys, jsonl):
        records = _trace(capsys, jsonl, "--peer", "1")
        assert [r["seq"] for r in records] == [0, 2]

    def test_since_and_kind_filters(self, capsys, jsonl):
        records = _trace(capsys, jsonl, "--since", "20", "--kind", "audit")
        assert [r["seq"] for r in records] == [1, 2]

    def test_verdict_and_grep_filters(self, capsys, jsonl):
        assert [r["seq"] for r in _trace(capsys, jsonl, "--verdict", "defer")] == [2]
        records = _trace(capsys, jsonl, "--grep", '"stage":"sent"')
        assert [r["seq"] for r in records] == [3]

    def test_limit(self, capsys, jsonl):
        assert len(_trace(capsys, jsonl, "--limit", "2")) == 2


class TestStats:
    def test_text_summary(self, capsys, jsonl):
        assert repro_main(["stats", jsonl]) == 0
        out = capsys.readouterr().out
        assert "run: t (n=10, seed=1" in out
        assert "records: 4 (audit=3, transport=1)" in out
        assert "verdicts (exact, level=full)" in out
        assert "overlay.n = 10" in out
        assert "run.execute: 0.500s over 1 call(s), 99 events" in out

    def test_json_summary(self, capsys, jsonl):
        assert repro_main(["stats", jsonl, "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["records"] == {"audit": 3, "transport": 1}
        assert summary["t_range"] == [10.0, 35.0]
        assert summary["recorded_verdicts"] == {"defer": 1, "none": 1, "promote": 1}


class TestReproDispatch:
    def test_repro_cli_routes_trace_and_stats(self, capsys, jsonl):
        assert repro_main(["stats", jsonl]) == 0
        assert "records: 4" in capsys.readouterr().out
        assert repro_main(["trace", jsonl, "--limit", "1"]) == 0
        assert capsys.readouterr().out.count("\n") == 1

    @pytest.mark.parametrize("command", ["stats", "trace", "health"])
    @pytest.mark.parametrize("damage", ["missing", "torn"])
    def test_unreadable_run_is_an_error_line_and_exit_2(
        self, capsys, tmp_path, command, damage
    ):
        path = tmp_path / "run.jsonl"
        if damage == "torn":
            path.write_text('{"kind":"run","name":"x"\n')
        assert repro_main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
