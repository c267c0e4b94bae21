"""The parallel sweep engine: worker resolution, parity, and failure modes."""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro.experiments.configs import bench_config
from repro.experiments.dynamic_run import run_dynamic_scenario
from repro.experiments.parallel import (
    WORKERS_ENV,
    parallel_map,
    resolve_workers,
)
from repro.experiments.registry import get_experiment
from repro.experiments.replication import replicate
from repro.sim.rng import RngStreams


def _square(x):
    return x * x


def _explode(x):
    raise RuntimeError(f"worker exploded on {x}")


def _tiny_config():
    return bench_config().with_(n=150, horizon=60.0, warmup=10.0)


class TestResolveWorkers:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "7")
        assert resolve_workers(3) == 3

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "5")
        assert resolve_workers() == 5

    def test_defaults_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers() >= 1

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="n_workers"):
            resolve_workers(0)


class TestParallelMap:
    def test_serial_path(self):
        assert parallel_map(_square, [1, 2, 3], n_workers=1) == [1, 4, 9]

    def test_parallel_path_preserves_order(self):
        assert parallel_map(_square, range(8), n_workers=2) == [
            x * x for x in range(8)
        ]

    def test_unpicklable_fn_falls_back_to_serial(self):
        calls = []

        def local_fn(x):  # closures don't pickle -> must run in-process
            calls.append(x)
            return -x

        assert parallel_map(local_fn, [1, 2], n_workers=4) == [-1, -2]
        assert calls == [1, 2]

    def test_crashing_worker_surfaces_original_error(self):
        """A worker crash raises promptly (no hang) with the worker-side
        traceback chained as ``__cause__``."""
        with pytest.raises(RuntimeError, match="worker exploded on") as info:
            parallel_map(_explode, [1, 2, 3], n_workers=2)
        cause = info.value.__cause__
        assert cause is not None
        assert "worker exploded" in str(cause) or "_explode" in str(cause)

    def test_crashing_worker_serial_path(self):
        with pytest.raises(RuntimeError, match="worker exploded on 1"):
            parallel_map(_explode, [1, 2], n_workers=1)


class TestConfigPickling:
    def test_config_pickle_roundtrip(self):
        """ExperimentConfig (with nested DLM/search configs and ``with_``
        overrides) must round-trip through pickle -- it is the spec the
        pool ships to every worker."""
        from repro.experiments.configs import SearchConfig

        cfg = bench_config().with_(
            seed=99,
            search=SearchConfig(query_rate=0.01, n_objects=1234),
        )
        clone = pickle.loads(pickle.dumps(cfg))
        assert clone == cfg
        assert clone.with_(seed=7) == cfg.with_(seed=7)
        assert clone.dlm_config() == cfg.dlm_config()


class TestRngWorkerDerivation:
    def test_substreams_depend_only_on_seed_and_name(self):
        """Two RngStreams built from the same seed -- as a worker and the
        parent each do -- yield identical substreams, regardless of
        creation order; different seeds diverge."""
        a, b = RngStreams(42), RngStreams(42)
        b.get("other")  # creation order must not matter
        draws_a = a.get("arrivals").random(8)
        draws_b = b.get("arrivals").random(8)
        assert np.array_equal(draws_a, draws_b)
        assert not np.array_equal(
            draws_a, RngStreams(43).get("arrivals").random(8)
        )


class TestReplicateParity:
    def test_parallel_replicate_matches_serial(self):
        """replicate with n_workers=2 equals n_workers=1 bit for bit on
        4 seeds (the engine's determinism contract)."""
        cfg = _tiny_config()
        seeds = (1, 2, 3, 4)
        figure6 = get_experiment("figure6")
        serial = replicate(figure6, seeds=seeds, config=cfg, n_workers=1)
        fanned = replicate(figure6, seeds=seeds, config=cfg, n_workers=2)
        assert serial.seeds == fanned.seeds
        assert serial.metrics.keys() == fanned.metrics.keys()
        for name in serial.metrics:
            assert serial.metrics[name] == fanned.metrics[name], name

    def test_parity_holds_under_faults(self):
        """The determinism contract extends to the message-driven engine:
        a loss=5% run fans out bit-identically because the transport RNG
        streams derive from (seed, name) alone."""
        from repro.protocol.faults import FaultPlan

        cfg = _tiny_config().with_(
            faults=FaultPlan(loss_rate=0.05, latency_scale=1.0)
        )
        seeds = (1, 2, 3)
        figure6 = get_experiment("figure6")
        serial = replicate(figure6, seeds=seeds, config=cfg, n_workers=1)
        fanned = replicate(figure6, seeds=seeds, config=cfg, n_workers=2)
        assert serial.metrics.keys() == fanned.metrics.keys()
        for name in serial.metrics:
            assert serial.metrics[name] == fanned.metrics[name], name

    def test_lambda_run_fn_still_works(self):
        """An unpicklable run_fn transparently uses the serial path."""
        cfg = _tiny_config()
        unpicklable = dataclasses.replace(
            get_experiment("figure6"), run=lambda c: run_dynamic_scenario(c)
        )
        result = replicate(unpicklable, seeds=(1,), config=cfg, n_workers=2)
        assert result.metrics
