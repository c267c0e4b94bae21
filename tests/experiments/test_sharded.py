"""The sharded engine's contract: worker-count bit-invariance.

The logical shard count K is a *model* parameter (part of the config
hash, like the seed); the worker process count N is execution-only.
These tests pin the load-bearing guarantee -- a K-shard run produces
bit-identical results on 1 worker and N workers, through checkpoints,
in fresh processes, with every shard's aggregates passing the
brute-force audit -- plus the dispatch seams (``shards=1`` is the
classic engine; goldens stand).
"""

from __future__ import annotations

import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.checkpoint import (
    CheckpointError,
    CheckpointManager,
    resume_run,
)
from repro.experiments.configs import table2_config
from repro.experiments.runner import (
    RunResult,
    default_policy_factory,
    run_experiment,
)
from repro.experiments.sharded import (
    ShardedRunResult,
    run_sharded_experiment,
)


def sharded_config(**overrides):
    base = dict(n=200, horizon=60.0, warmup=20.0, seed=11, shards=2)
    base.update(overrides)
    return table2_config().with_(**base)


def assert_sharded_identical(a, b):
    """Every observable artifact of two sharded runs matches exactly."""
    assert a.series.names() == b.series.names()
    for name in a.series.names():
        sa, sb = a.series[name], b.series[name]
        assert np.array_equal(sa.times, sb.times), f"times diverge in {name}"
        assert np.array_equal(sa.values, sb.values), f"values diverge in {name}"
    assert len(a.shard_series) == len(b.shard_series)
    for k, (sha, shb) in enumerate(zip(a.shard_series, b.shard_series)):
        assert sha.names() == shb.names()
        for name in sha.names():
            assert np.array_equal(
                sha[name].values, shb[name].values
            ), f"shard {k} series {name} diverged"
    assert (a.joins, a.deaths) == (b.joins, b.deaths)
    assert (a.n_super, a.n_leaf) == (b.n_super, b.n_leaf)
    assert a.stats.events_processed == b.stats.events_processed
    assert a.stats.sync_rounds == b.stats.sync_rounds
    assert a.stats.cross_messages == b.stats.cross_messages


class TestDispatch:
    def test_single_shard_is_the_classic_engine(self):
        result = run_experiment(sharded_config(shards=1))
        assert isinstance(result, RunResult)

    def test_multi_shard_dispatches_through_run_experiment(self):
        result = run_experiment(sharded_config())
        assert isinstance(result, ShardedRunResult)
        assert result.stats.shards == 2

    def test_sharded_refuses_wiring_only(self):
        with pytest.raises(ValueError, match="run=False"):
            run_experiment(sharded_config(), run=False)

    def test_sharded_refuses_classic_resume_payload(self):
        with pytest.raises(ValueError, match="resume"):
            run_experiment(sharded_config(), resume_from={"state": {}})

    def test_run_sharded_experiment_needs_two_shards(self):
        with pytest.raises(ValueError, match="shards >= 2"):
            run_sharded_experiment(sharded_config(shards=1))

    def test_checkpoint_cadence_needs_a_path(self):
        with pytest.raises(ValueError, match="checkpoint_path"):
            run_sharded_experiment(sharded_config(checkpoint_every=30.0))

    def test_off_grid_horizon_refused(self):
        # Window = default shard link min_delay = 0.5; 60.25 splits the
        # final window, which would change resume barrier alignment.
        with pytest.raises(ValueError, match="multiple"):
            sharded_config(horizon=60.25)


class TestWorkerInvariance:
    """The tentpole guarantee: worker layout never changes the bits."""

    def test_one_vs_two_workers(self):
        cfg = sharded_config()
        serial = run_sharded_experiment(cfg, workers=1)
        forked = run_sharded_experiment(cfg, workers=2)
        assert serial.stats.workers == 1
        # On a 1-core host fork still yields 2 timesharing processes.
        assert forked.stats.workers == 2
        assert_sharded_identical(serial, forked)

    def test_four_shards_across_worker_counts(self):
        cfg = sharded_config(n=240, shards=4)
        runs = [
            run_sharded_experiment(cfg, workers=w) for w in (1, 2, 4)
        ]
        assert_sharded_identical(runs[0], runs[1])
        assert_sharded_identical(runs[0], runs[2])

    def test_workers_capped_at_shard_count(self):
        result = run_sharded_experiment(sharded_config(), workers=16)
        assert result.stats.workers == 2


class TestGlobalSeries:
    def test_global_population_is_the_shard_sum(self):
        result = run_sharded_experiment(sharded_config(), workers=1)
        total = result.series["n"].values
        per_shard = [s["n"].values for s in result.shard_series]
        assert np.array_equal(total, sum(per_shard))

    def test_final_counts_match_series_tail(self):
        result = run_sharded_experiment(sharded_config(), workers=1)
        assert result.series["n"].values[-1] == result.n
        assert result.series["n_super"].values[-1] == result.n_super

    def test_gossip_view_series_present_per_shard(self):
        result = run_sharded_experiment(sharded_config(), workers=1)
        for bundle in result.shard_series:
            assert "shard_known_n" in bundle
            # The view converges on the true global population once the
            # first gossip round lands.
            assert bundle["shard_known_n"].values[-1] == result.n

    def test_cross_shard_traffic_happened(self):
        result = run_sharded_experiment(sharded_config(), workers=1)
        assert result.stats.cross_messages > 0
        assert result.stats.sync_rounds == round(
            result.config.horizon / result.stats.window
        )

    def test_debug_aggregates_audit_passes(self):
        # The in-process executor leaves each shard's system reachable
        # through the policy it was handed; audit every overlay at the
        # horizon against the brute-force rebuild of its aggregates.
        policies = []

        def capturing_factory(cfg):
            policies.append(default_policy_factory(cfg))
            return policies[-1]

        result = run_sharded_experiment(
            sharded_config(horizon=30.0),
            policy_factory=capturing_factory,
            workers=1,
        )
        assert len(policies) == 2
        for policy in policies:
            policy.ctx.overlay.check_invariants(aggregates=True)
        assert sum(p.ctx.overlay.n_super for p in policies) == result.n_super


class TestShardedCheckpoint:
    def _checkpointed(self, tmp_path, **overrides):
        return sharded_config(
            checkpoint_every=30.0,
            checkpoint_path=str(tmp_path / "sharded.ckpt"),
            **overrides,
        )

    def test_resume_is_bit_identical(self, tmp_path):
        cfg = self._checkpointed(tmp_path, horizon=30.0)
        partial = run_sharded_experiment(cfg, workers=1)
        assert partial.checkpoint_writes == 1

        full_cfg = sharded_config()
        ref = run_sharded_experiment(full_cfg, workers=1)
        resumed = resume_run(cfg.checkpoint_path, horizon=60.0)
        assert isinstance(resumed, ShardedRunResult)
        assert_sharded_identical(ref, resumed)

    def test_resume_under_any_worker_count(self, tmp_path):
        cfg = self._checkpointed(tmp_path, horizon=30.0)
        run_sharded_experiment(cfg, workers=2)
        ref = run_sharded_experiment(sharded_config(), workers=1)
        payload = CheckpointManager.load(cfg.checkpoint_path)
        from repro.experiments.sharded import resume_sharded_run

        resumed = resume_sharded_run(
            payload, payload["config"].with_(horizon=60.0), workers=2
        )
        assert_sharded_identical(ref, resumed)

    def test_header_records_shard_count(self, tmp_path):
        cfg = self._checkpointed(tmp_path, horizon=30.0)
        run_sharded_experiment(cfg, workers=1)
        payload = CheckpointManager.load(cfg.checkpoint_path)
        assert payload["header"]["shards"] == 2
        assert len(payload["shard_states"]) == 2
        assert "state" not in payload

    def test_classic_and_sharded_share_one_header(self, tmp_path):
        sharded = self._checkpointed(tmp_path, horizon=30.0)
        run_sharded_experiment(sharded, workers=1)
        classic = sharded.with_(
            shards=1, checkpoint_path=str(tmp_path / "classic.ckpt")
        )
        run_experiment(classic)
        headers = [
            CheckpointManager.load(cfg.checkpoint_path)["header"]
            for cfg in (classic, sharded)
        ]
        assert list(headers[0]) == list(headers[1])
        assert [h["shards"] for h in headers] == [1, 2]

    def test_resume_refuses_shard_count_mismatch(self, tmp_path):
        cfg = self._checkpointed(tmp_path, horizon=30.0)
        run_sharded_experiment(cfg, workers=1)
        payload = CheckpointManager.load(cfg.checkpoint_path)
        from repro.experiments.sharded import resume_sharded_run

        bad = payload["config"].with_(n=300, shards=3)
        with pytest.raises(CheckpointError, match="shard states"):
            resume_sharded_run(payload, bad)

    def test_classic_checkpoint_still_resumes_classically(self, tmp_path):
        path = str(tmp_path / "classic.ckpt")
        cfg = sharded_config(
            shards=1, horizon=30.0, checkpoint_every=30.0, checkpoint_path=path
        )
        run_experiment(cfg)
        resumed = resume_run(path, horizon=60.0)
        assert isinstance(resumed, RunResult)


_FRESH_PROCESS_SCRIPT = """
import pickle, sys
import numpy as np
from repro.experiments.checkpoint import resume_run

ckpt_path, expected_path, workers = sys.argv[1], sys.argv[2], int(sys.argv[3])
result = resume_run(ckpt_path, horizon=60.0)
assert result.stats.shards == 2, result.stats
with open(expected_path, "rb") as fh:
    want = pickle.load(fh)
got = {name: result.series[name].values.tolist() for name in result.series.names()}
assert set(got) == set(want), (sorted(got), sorted(want))
for name in want:
    assert got[name] == want[name], f"series {name} diverged after resume"
print("FRESH-PROCESS-SHARDED-OK")
"""


class TestFreshProcessShardedResume:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_resume_in_subprocess(self, tmp_path, workers):
        """Checkpoint at H/2, resume in a brand-new interpreter under
        either worker count, compare every global series bit for bit."""
        cfg = sharded_config(
            horizon=30.0,
            checkpoint_every=30.0,
            checkpoint_path=str(tmp_path / "half.ckpt"),
        )
        run_sharded_experiment(cfg, workers=1)
        ref = run_sharded_experiment(sharded_config(), workers=1)
        expected = {
            name: ref.series[name].values.tolist()
            for name in ref.series.names()
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
                str(workers),
            ],
            env={
                "PYTHONPATH": src,
                "PATH": "/usr/bin:/bin",
                "REPRO_WORKERS": str(workers),
            },
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        assert "FRESH-PROCESS-SHARDED-OK" in proc.stdout
