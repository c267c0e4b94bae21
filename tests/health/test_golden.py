"""Golden determinism: the health verdict is part of the trajectory.

The fold's firings (``repro.health.evidence.replay``) must equal the
in-run monitor's firings captured before it was deleted
(``golden_firings.json``), and must be bit-identical across worker
layouts under ``shards = K``, across checkpoint/resume (classic and
sharded), and between a classic run's single file and the same stream
read through the shard-prefix path.  Spans are the one wall-clock meta
line and are excluded from stream comparisons; merged metrics already
drop the wall-derived ``shard.*`` gauges.
"""

from __future__ import annotations

import json
import pickle
import shutil

import pytest

from repro.experiments.checkpoint import capture_run_state, resume_run
from repro.experiments.runner import run_experiment
from repro.experiments.sharded import run_sharded_experiment
from repro.health.slo import build_report, render_report
from repro.telemetry.export import iter_jsonl
from tests.health.golden_firings import (
    FIRING_RUNS,
    GOLDEN_PATH,
    fold_rows,
    run_rows,
    sharded_config,
)


def stream_payload(path):
    """Everything stream comparisons assert on: all lines except spans."""
    return [
        line for line in iter_jsonl(str(path)) if line["kind"] != "spans"
    ]


def report_text(path):
    return render_report(build_report(iter_jsonl(str(path))))


@pytest.mark.parametrize("name", FIRING_RUNS)
def test_the_fold_reproduces_the_in_run_firings(name):
    golden = json.loads(GOLDEN_PATH.read_text())[name]
    assert golden  # every config fires
    assert run_rows(name) == golden


class TestWorkerLayoutParity:
    def test_health_stream_and_report_identical_across_worker_counts(
        self, tmp_path
    ):
        a = tmp_path / "a" / "run.jsonl"
        b = tmp_path / "b" / "run.jsonl"
        a.parent.mkdir()
        b.parent.mkdir()
        run_sharded_experiment(sharded_config(a), workers=1)
        run_sharded_experiment(sharded_config(b), workers=2)

        assert fold_rows(a)  # the comparison is non-vacuous
        assert stream_payload(a) == stream_payload(b)
        assert report_text(a) == report_text(b)


class TestShardedResumeParity:
    def test_resumed_health_stream_matches_the_uninterrupted_run(
        self, tmp_path
    ):
        ref = tmp_path / "ref" / "run.jsonl"
        ref.parent.mkdir()
        run_sharded_experiment(sharded_config(ref), workers=1)

        ckpt_jsonl = tmp_path / "ckpt" / "run.jsonl"
        ckpt_jsonl.parent.mkdir()
        ckpt = tmp_path / "ckpt" / "run.ckpt"
        partial = run_sharded_experiment(
            sharded_config(
                ckpt_jsonl,
                horizon=30.0,
                checkpoint_every=30.0,
                checkpoint_path=str(ckpt),
            ),
            workers=1,
        )
        assert partial.checkpoint_writes == 1
        # Resume on a *different* worker count: layout-free by contract.
        resume_run(str(ckpt), horizon=60.0, workers=2)

        assert fold_rows(ref)
        assert fold_rows(ckpt_jsonl) == fold_rows(ref)
        assert report_text(ckpt_jsonl) == report_text(ref)


class TestClassicResumeParity:
    def classic_config(self, jsonl_path):
        return sharded_config(jsonl_path, shards=1)

    def test_detector_state_resumes_bit_identically(self, tmp_path):
        ref_jsonl = tmp_path / "ref.jsonl"
        cfg = self.classic_config(ref_jsonl)
        run_experiment(cfg)

        res_jsonl = tmp_path / "resumed.jsonl"
        res_cfg = self.classic_config(res_jsonl)
        half = run_experiment(res_cfg, run=False)
        half.ctx.sim.run(until=cfg.horizon / 2)
        state = pickle.loads(pickle.dumps(capture_run_state(half)))
        assert "health" not in state  # the evidence rides in telemetry
        run_experiment(res_cfg, resume_from={"state": state})

        assert fold_rows(ref_jsonl)
        assert fold_rows(res_jsonl) == fold_rows(ref_jsonl)
        assert report_text(res_jsonl) == report_text(ref_jsonl)


class TestClassicPrefixEquivalence:
    def test_single_file_and_shard_prefix_read_identically(
        self, tmp_path, capsys
    ):
        from repro.cli import main as repro_main

        jsonl = tmp_path / "classic.jsonl"
        run_experiment(self.config(jsonl))
        assert repro_main(["stats", str(jsonl)]) == 0
        direct = capsys.readouterr().out

        # The same stream presented as a one-shard "sharded run".
        prefix = tmp_path / "aspfx.jsonl"
        shutil.copy(jsonl, str(prefix) + ".shard0")
        assert repro_main(["stats", str(prefix)]) == 0
        via_prefix = capsys.readouterr().out
        assert via_prefix == direct

    def config(self, jsonl):
        return sharded_config(jsonl, shards=1)
