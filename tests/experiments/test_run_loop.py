"""The one run loop: K = 1 is its one-shard case.

Pins what the loop owns for every K -- barriers that cannot move a
one-system trajectory, checkpoint writes outside the trajectory, a crash
bundle per shard on either executor -- and that a dead worker is a typed
error with every worker reaped.
"""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest

from repro.core.dlm import DLMPolicy
from repro.experiments.checkpoint import state_digest
from repro.experiments.configs import SearchConfig, table2_config
from repro.experiments.runner import RunResult, run_experiment
from repro.experiments.sharded import (
    ShardWorkerError,
    _barriers,
    run_sharded_experiment,
)
from repro.health.config import HealthConfig
from repro.health.flight import load_flight_bundle
from repro.protocol.faults import FaultPlan
from repro.telemetry import TelemetryConfig


def small_config(**overrides):
    base = dict(n=250, horizon=120.0, warmup=20.0, seed=11)
    base.update(overrides)
    return table2_config().with_(**base)


def failing_on_shard(name_suffix, fail):
    """A DLM factory whose policy in the named system calls ``fail``
    from its 40th evaluation on."""

    def factory(config):
        policy = DLMPolicy(config.dlm_config())
        if not config.name.endswith(name_suffix):
            return policy
        original = policy.evaluate
        calls = [0]

        def evaluate(*a, **kw):
            calls[0] += 1
            if calls[0] > 40:
                fail()
            return original(*a, **kw)

        policy.evaluate = evaluate
        return policy

    return factory


def _raise():
    raise RuntimeError("injected mid-run failure")


class TestOneShardCase:
    def test_barriers_are_the_sample_grid_clamped_to_the_horizon(self):
        cfg = small_config(horizon=65.0)
        assert _barriers(cfg, 0.0) == [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 65.0]
        assert _barriers(cfg, 37.5) == [40.0, 50.0, 60.0, 65.0]
        assert _barriers(cfg, 65.0) == [65.0]

    def test_loop_equals_one_sim_run_in_every_component(self):
        cfg = small_config(
            faults=FaultPlan(loss_rate=0.05, latency_scale=0.5, timeout=2.0),
            search=SearchConfig(n_objects=400, query_rate=5.0, files_per_peer=5),
            telemetry=TelemetryConfig(transport_trace=True),
            health=HealthConfig(),
        )
        looped = run_experiment(cfg)
        assert isinstance(looped, RunResult)
        single = run_experiment(cfg, run=False)
        single.ctx.sim.run(until=cfg.horizon)
        assert state_digest(looped) == state_digest(single)

    def test_checkpoint_writes_stay_out_of_the_trajectory(self, tmp_path):
        cfg = small_config()
        plain = run_experiment(cfg)
        written = run_experiment(
            cfg.with_(checkpoint_every=30.0, checkpoint_path=str(tmp_path / "c"))
        )
        assert written.checkpoint_writes == 4
        assert written.ctx.sim.events_processed == plain.ctx.sim.events_processed
        assert written.series.names() == plain.series.names()
        for name in plain.series.names():
            a, b = plain.series[name], written.series[name]
            assert np.array_equal(a.times, b.times), name
            assert np.array_equal(a.values, b.values), name


class TestCrashBundles:
    def test_one_shard_writes_the_flight_crash(self, tmp_path):
        flight = tmp_path / "flight.json"
        cfg = small_config(name="c1", health=HealthConfig(flight_path=str(flight)))
        with pytest.raises(RuntimeError, match="injected"):
            run_experiment(cfg, policy_factory=failing_on_shard("c1", _raise))
        crash = load_flight_bundle(f"{flight}.crash")
        assert "injected mid-run failure" in crash["error"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_shard_writes_its_crash_bundle(self, tmp_path, workers):
        flight = tmp_path / "flight.json"
        cfg = small_config(
            horizon=60.0,
            shards=2,
            health=HealthConfig(flight_path=str(flight)),
        )
        with pytest.raises(RuntimeError, match="injected"):
            run_sharded_experiment(
                cfg, policy_factory=failing_on_shard(".s1", _raise), workers=workers
            )
        for k in (0, 1):
            bundle = load_flight_bundle(f"{flight}.shard{k}.crash")
            assert bundle["reason"] == "exception"
            assert "injected mid-run failure" in bundle["error"]
        assert not (tmp_path / "flight.json.crash").exists()
        assert multiprocessing.active_children() == []


class TestDeadWorker:
    def test_dead_worker_is_a_typed_error_and_every_worker_is_reaped(self):
        cfg = small_config(horizon=60.0, shards=2)
        with pytest.raises(ShardWorkerError) as err:
            run_sharded_experiment(
                cfg,
                policy_factory=failing_on_shard(".s1", lambda: os._exit(9)),
                workers=2,
            )
        assert err.value.exitcode == 9
        assert err.value.shards == (1,)
        assert "exit code 9" in str(err.value)
        assert multiprocessing.active_children() == []
