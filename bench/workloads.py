"""The six fixed workloads.

Each builder turns ``(seed, tmpdir)`` into the one
:class:`~repro.experiments.configs.ExperimentConfig` the program under
test receives.  All share the Table-2 shape of ``bench_config()``
(η = 40, m = 2, k_s = 3, log-normal lifetimes, median 60); what differs
is which layer the parameters load -- see ``why`` and README.md.

Sizes are fixed here and nowhere else.  They are a quarter or less of
the sizes the issue probed: one driver invocation has ~25 s for every
repeat including set-up, so a run is 1.5-3 s.  Horizons are short and
every ``n`` but the population-scale one is kept.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

from repro.experiments.configs import (
    ExperimentConfig,
    SearchConfig,
    bench_config,
    largescale_config,
)
from repro.health.config import HealthConfig
from repro.protocol.faults import FaultPlan
from repro.telemetry.config import TelemetryConfig

__all__ = ["Workload", "WORKLOADS", "ETA", "build"]

#: The target layer-size ratio every workload runs at.
ETA = 40.0


@dataclass(frozen=True)
class Workload:
    """One named cell of the benchmark matrix."""

    why: str
    build: Callable[[str], ExperimentConfig]
    #: Whether the horizon is long enough for the layer ratio to have
    #: settled, so the science band of verify.py applies.
    converged: bool = False


def _steady(tmpdir: str) -> ExperimentConfig:
    return bench_config().with_(name="churn_steady", horizon=500.0)


def _observed(tmpdir: str) -> ExperimentConfig:
    return _steady(tmpdir).with_(
        name="churn_observed",
        telemetry=TelemetryConfig(
            jsonl_path=os.path.join(tmpdir, "telemetry.jsonl")
        ),
        health=HealthConfig(),
    )


def _faults(tmpdir: str) -> ExperimentConfig:
    return bench_config().with_(
        name="msg_faults",
        horizon=200.0,
        faults=FaultPlan(loss_rate=0.05, latency_scale=0.2),
    )


def _search(tmpdir: str) -> ExperimentConfig:
    return bench_config().with_(
        name="search_reads",
        horizon=110.0,
        warmup=20.0,
        lifetime_median=600.0,
        search=SearchConfig(query_rate=120.0),
    )


def _sharded(tmpdir: str) -> ExperimentConfig:
    return _steady(tmpdir).with_(name="sharded_k4", shards=4)


def _scale(tmpdir: str) -> ExperimentConfig:
    # Slow churn on purpose.  With median-60 lifetimes the lone
    # cold-start super usually dies while 10^4 leaves hang off it, and
    # whether and when it does moves the run's work by a third from
    # seed to seed; with median 600 the work repeats within 3 %.
    return largescale_config().with_(
        name="scale_20k",
        n=20_000,
        horizon=72.0,
        warmup=70.0,
        lifetime_median=600.0,
    )


WORKLOADS = {
    "churn_steady": Workload(
        "n=2000 h=500 omniscient, no search: join/leave/connect churn "
        "plus batch DLM sweeps, the figure6 hot path",
        _steady,
        converged=True,
    ),
    "churn_observed": Workload(
        "churn_steady + telemetry JSONL + health: same trajectory, so "
        "its distance from churn_steady is the observability cost",
        _observed,
        converged=True,
    ),
    "msg_faults": Workload(
        "n=2000 h=200 FaultPlan(loss 5%, latency 0.2): message-driven "
        "Phase 1 and the scalar evaluate path; transport dominates",
        _faults,
    ),
    "search_reads": Workload(
        "n=2000 h=110 warmup=20 lifetime 600, 120 queries/unit: overlay "
        "read side (flood BFS, leaf indexes) beside few writes",
        _search,
    ),
    "sharded_k4": Workload(
        "churn_steady as 4 shards on the serial executor: prices the "
        "window/barrier/mailbox run loop against the classic one",
        _sharded,
        converged=True,
    ),
    "scale_20k": Workload(
        "n=20000 h=72 warmup=70 lifetime 600: 20k joins, few deaths; "
        "PeerStore columns dominate RSS; join batching and bytes/peer pay",
        _scale,
    ),
}


def build(name: str, seed: int, tmpdir: str, *, smoke: bool = False) -> ExperimentConfig:
    """The config for workload ``name`` at ``seed``.

    ``smoke`` shrinks every workload to n=300, horizon=150 (bench/tests).
    """
    config = WORKLOADS[name].build(tmpdir).with_(seed=seed)
    if smoke:
        config = config.with_(n=300, horizon=150.0)
    return config
