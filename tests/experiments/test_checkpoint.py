"""Checkpoint/resume: the bit-identical continuation guarantee.

The tentpole test: checkpoint a run at half its horizon, restore the
snapshot into a **fresh process**, run both to the horizon, and demand
every recorded series, counter, and tally matches the uninterrupted run
exactly -- float-equal, not approximately.
"""

from __future__ import annotations

import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.churn.scenarios import figure45_scenario
from repro.experiments.checkpoint import (
    SCHEMA_VERSION,
    CheckpointError,
    CheckpointManager,
    capture_run_state,
    config_hash,
    resume_run,
)
from repro.experiments.configs import SearchConfig, table2_config
from repro.experiments.runner import run_experiment
from repro.protocol.faults import FaultPlan


def small_config(**overrides):
    base = dict(n=250, horizon=120.0, warmup=20.0, seed=11)
    base.update(overrides)
    return table2_config().with_(**base)


def assert_runs_identical(a, b):
    """Every observable artifact of two runs matches exactly."""
    assert a.series.names() == b.series.names()
    for name in a.series.names():
        sa, sb = a.series[name], b.series[name]
        assert np.array_equal(sa.times, sb.times), f"times diverge in {name}"
        assert np.array_equal(sa.values, sb.values), f"values diverge in {name}"
    assert a.overlay.n == b.overlay.n
    assert a.overlay.n_super == b.overlay.n_super
    assert sorted(p.pid for p in a.overlay.peers()) == sorted(
        p.pid for p in b.overlay.peers()
    )
    assert a.overlay.total_promotions == b.overlay.total_promotions
    assert a.overlay.total_demotions == b.overlay.total_demotions
    assert a.driver.joins == b.driver.joins
    assert a.driver.deaths == b.driver.deaths
    assert a.ctx.messages.snapshot_state() == b.ctx.messages.snapshot_state()
    assert a.ctx.sim.events_processed == b.ctx.sim.events_processed
    if a.workload is not None:
        assert a.query_stats == b.query_stats


def interrupt_and_resume(cfg, scenario=None, at=None):
    """Run to ``at``, capture, pickle-round-trip, resume in new wiring."""
    at = at if at is not None else cfg.horizon / 2
    half = run_experiment(cfg, scenario=scenario, run=False)
    half.ctx.sim.run(until=at)
    state = pickle.loads(pickle.dumps(capture_run_state(half)))
    return run_experiment(cfg, scenario=scenario, resume_from={"state": state})


class TestBitIdenticalResume:
    def test_plain_run(self):
        cfg = small_config()
        assert_runs_identical(run_experiment(cfg), interrupt_and_resume(cfg))

    def test_with_scenario_shifts_spanning_the_checkpoint(self):
        cfg = small_config()
        scen = figure45_scenario(lifetime_shift_at=30.0, capacity_shift_at=90.0)
        # Checkpoint at t=60: one shift already applied, one still queued.
        ref = run_experiment(cfg, scenario=scen)
        res = interrupt_and_resume(cfg, scenario=scen, at=60.0)
        assert_runs_identical(ref, res)

    def test_with_search_plane(self):
        cfg = small_config(
            search=SearchConfig(n_objects=400, query_rate=5.0, files_per_peer=5)
        )
        assert_runs_identical(run_experiment(cfg), interrupt_and_resume(cfg))

    def test_restored_holder_view_equals_the_live_one(self):
        # The directory checkpoints files only; restore() re-derives the
        # indexes and the inverted holder view the flood router reads.
        search = SearchConfig(n_objects=400, query_rate=5.0, files_per_peer=5)
        cfg = small_config(search=search)
        live = run_experiment(cfg, run=False)
        live.ctx.sim.run(until=60.0)
        state = pickle.loads(pickle.dumps(capture_run_state(live)))
        restored = run_experiment(cfg, resume_from={"state": state}, run=False)

        def view(result):
            result.directory.check_consistency()
            return {
                obj: sorted(result.directory.holders(obj))
                for obj in range(search.n_objects)
            }

        assert view(restored) == view(live)
        assert any(view(live).values())
        # ...and stays equal under the same incremental updates.
        live.ctx.sim.run(until=cfg.horizon)
        restored.ctx.sim.run(until=cfg.horizon)
        assert view(restored) == view(live)

    def test_with_message_driven_faults(self):
        # Requests are genuinely in flight at the checkpoint boundary:
        # drops, latency, retries, and timeout events all cross it.
        cfg = small_config(
            faults=FaultPlan(
                loss_rate=0.05, latency_scale=0.5, timeout=2.0, max_retries=2
            )
        )
        assert_runs_identical(run_experiment(cfg), interrupt_and_resume(cfg))

    def test_resume_point_anywhere(self):
        cfg = small_config()
        ref = run_experiment(cfg)
        for at in (25.0, 77.5, 119.0):
            assert_runs_identical(ref, interrupt_and_resume(cfg, at=at))


class TestCheckpointManager:
    def test_atomic_write_and_load(self, tmp_path):
        cfg = small_config(
            checkpoint_every=60.0, checkpoint_path=str(tmp_path / "run.ckpt")
        )
        result = run_experiment(cfg)
        assert result.checkpoint_writes == 2  # t=60 and t=120
        path = tmp_path / "run.ckpt"
        assert path.exists()
        assert not (tmp_path / "run.ckpt.tmp").exists()
        payload = CheckpointManager.load(str(path))
        assert payload["header"]["schema"] == SCHEMA_VERSION
        assert payload["header"]["policy"] == "dlm"
        assert payload["header"]["time"] == 120.0

    def test_resume_run_continues_to_longer_horizon(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        cfg = small_config(checkpoint_every=60.0, checkpoint_path=path)
        run_experiment(cfg)
        ref = run_experiment(small_config(horizon=180.0))
        resumed = resume_run(path, horizon=180.0)
        # The writer checkpoints at exact multiples of 60; resuming the
        # t=120 checkpoint out to 180 matches an uninterrupted 180-run
        # bit for bit (the checkpoint fields don't enter the hash).
        for name in ref.series.names():
            assert np.array_equal(
                ref.series[name].values, resumed.series[name].values
            )

    def test_refuses_mismatched_config(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        cfg = small_config(checkpoint_every=60.0, checkpoint_path=path)
        run_experiment(cfg)
        payload = CheckpointManager.load(path)
        with pytest.raises(CheckpointError, match="different configuration"):
            CheckpointManager.validate(payload, small_config(seed=999))

    def test_refuses_horizon_before_checkpoint(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        cfg = small_config(checkpoint_every=60.0, checkpoint_path=path)
        run_experiment(cfg)
        with pytest.raises(CheckpointError, match="precedes"):
            resume_run(path, horizon=50.0)

    def test_refuses_non_checkpoint_file(self, tmp_path):
        junk = tmp_path / "junk.pkl"
        junk.write_bytes(pickle.dumps({"not": "a checkpoint"}))
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            CheckpointManager.load(str(junk))
        with pytest.raises(CheckpointError, match="cannot read"):
            CheckpointManager.load(str(tmp_path / "missing.pkl"))

    def test_refuses_wrong_schema(self, tmp_path):
        path = tmp_path / "old.ckpt"
        path.write_bytes(pickle.dumps({"header": {"schema": 0}}))
        with pytest.raises(CheckpointError, match="schema"):
            CheckpointManager.load(str(path))


class TestCorruptCheckpoints:
    def test_flips_and_truncations_are_refused(self, tmp_path):
        """Forty single-byte flips spread over the file and truncations
        at three lengths each raise CheckpointError: none resumes on the
        altered bytes, none escapes as another exception type."""
        path = tmp_path / "run.ckpt"
        run_experiment(small_config(checkpoint_every=60.0, checkpoint_path=str(path)))
        raw = path.read_bytes()
        damaged = []
        for i in range(40):
            data = bytearray(raw)
            data[i * len(raw) // 40] ^= 0xFF
            damaged.append(bytes(data))
        damaged += [raw[:n] for n in (40, len(raw) // 2, len(raw) - 1)]
        bad = tmp_path / "bad.ckpt"
        for data in damaged:
            bad.write_bytes(data)
            with pytest.raises(CheckpointError):
                CheckpointManager.load(str(bad))
        assert CheckpointManager.load(str(path))["header"]["time"] == 120.0


class TestConfigHash:
    def test_trajectory_fields_change_hash(self):
        assert config_hash(small_config()) != config_hash(small_config(seed=12))
        assert config_hash(small_config()) != config_hash(small_config(n=251))

    def test_excluded_fields_do_not(self):
        a = config_hash(small_config())
        assert a == config_hash(small_config(horizon=999.0, warmup=20.0))
        assert a == config_hash(small_config(name="renamed"))
        assert a == config_hash(
            small_config(checkpoint_every=5.0, checkpoint_path="/tmp/x")
        )


_FRESH_PROCESS_SCRIPT = """
import pickle, sys
import numpy as np
from repro.experiments.checkpoint import resume_run

ckpt, expected = sys.argv[1], sys.argv[2]
result = resume_run(ckpt, horizon=120.0)
with open(expected, "rb") as fh:
    want = pickle.load(fh)
got = {name: result.series[name].values.tolist() for name in result.series.names()}
assert set(got) == set(want), (sorted(got), sorted(want))
for name in want:
    assert got[name] == want[name], f"series {name} diverged after resume"
print("FRESH-PROCESS-RESUME-OK")
"""


class TestFreshProcessResume:
    def test_golden_resume_in_subprocess(self, tmp_path):
        """Checkpoint at H/2, resume in a brand-new interpreter, compare
        every series against the uninterrupted run bit for bit."""
        cfg = small_config(
            checkpoint_every=60.0, checkpoint_path=str(tmp_path / "half.ckpt")
        )
        # Stop the writer's own run at H/2 so the file holds the t=60
        # checkpoint, then compute the uninterrupted reference here.
        partial = run_experiment(cfg.with_(horizon=60.0))
        assert partial.checkpoint_writes == 1
        ref = run_experiment(small_config())
        expected = {
            name: ref.series[name].values.tolist() for name in ref.series.names()
        }
        expected_path = tmp_path / "expected.pkl"
        expected_path.write_bytes(pickle.dumps(expected))

        src = str(Path(__file__).resolve().parents[2] / "src")
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                _FRESH_PROCESS_SCRIPT,
                str(tmp_path / "half.ckpt"),
                str(expected_path),
            ],
            env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "FRESH-PROCESS-RESUME-OK" in proc.stdout
