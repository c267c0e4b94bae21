"""Golden health firings: the fold must reproduce the in-run monitor's.

``golden_firings.json`` holds, per config below, every ``health.*``
firing the in-run monitor wrote at ``e3c9b94`` (the last commit where
the run judged itself), as ``[shard, t, kind, values]`` with ``seq``
left out.  ``shard`` is ``None`` for a one-system run.  The fold over
this tree's exports (``repro.health.evidence.replay``) must produce the
same list, in the same order.

The four configs cover every detector path the fold replays:

* ``audit_health`` -- ``golden_export``'s full-audit run with a tight
  ratio band (ratio drift and load imbalance escalate);
* ``sharded_k2`` -- two shards merged into one stream, so the fold runs
  per shard and the firings interleave by ``(t, shard)``;
* ``role_flap`` -- a low flap threshold, so per-peer warnings, a
  detector-level critical and recoveries come from ``role`` records;
* ``timeout_surge`` -- a message-driven run with loss, so transport
  timeouts and retransmissions surge.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden_firings.json")

FIRING_RUNS = ("audit_health", "sharded_k2", "role_flap", "timeout_surge")


def sharded_config(jsonl_path, **overrides):
    """Two shards, a tight band and fast escalation, so firings span
    these short horizons (and any checkpoint boundary inside them)."""
    from repro.experiments.configs import table2_config
    from repro.health.config import HealthConfig
    from repro.telemetry import TelemetryConfig

    base = dict(
        name="goldenh",
        n=240,
        horizon=60.0,
        warmup=10.0,
        seed=11,
        shards=2,
        telemetry=TelemetryConfig(jsonl_path=str(jsonl_path)),
        health=HealthConfig(ratio_band=0.2, critical_after=2),
    )
    base.update(overrides)
    return table2_config().with_(**base)


def firing_config(name: str, jsonl_path: str):
    """The fixed small config of one golden firing list."""
    from repro.experiments.configs import table2_config
    from repro.health.config import HealthConfig
    from repro.protocol.faults import FaultPlan
    from repro.telemetry import TelemetryConfig
    from tests.telemetry.golden_export import golden_config

    if name == "audit_health":
        return golden_config(name, jsonl_path)
    if name == "sharded_k2":
        return sharded_config(jsonl_path)
    telemetry = TelemetryConfig(jsonl_path=jsonl_path)
    if name == "role_flap":
        return table2_config().with_(
            name="golden-flap",
            n=500,
            horizon=300.0,
            warmup=50.0,
            seed=5,
            telemetry=telemetry,
            health=HealthConfig(
                flap_transitions=2, flap_window=100.0, critical_after=2
            ),
        )
    assert name == "timeout_surge"
    return table2_config().with_(
        name="golden-surge",
        n=250,
        horizon=120.0,
        warmup=20.0,
        seed=11,
        faults=FaultPlan(
            loss_rate=0.05, latency_scale=0.5, timeout=2.0, max_retries=2
        ),
        telemetry=telemetry,
        health=HealthConfig(surge_count=20, critical_after=2),
    )


def firing_rows(firings) -> list:
    """Firing dicts as ``[shard, t, kind, values]`` rows."""
    rows = []
    for f in firings:
        values = {
            k: v
            for k, v in f.items()
            if k not in ("seq", "sseq", "shard", "t", "kind")
        }
        rows.append([f.get("shard"), f["t"], f["kind"], values])
    return rows


def fold_rows(path) -> list:
    """The fold's firings over one exported stream, as rows."""
    from repro.health.evidence import replay
    from repro.telemetry.export import iter_jsonl

    _, firings, _ = replay(iter_jsonl(str(path)))
    return firing_rows(firings)


def run_rows(name: str) -> list:
    """Run one golden config and fold its exported stream."""
    from repro.experiments.runner import run_experiment

    with tempfile.TemporaryDirectory() as tmp:
        jsonl = str(Path(tmp) / "run.jsonl")
        run_experiment(firing_config(name, jsonl))
        return fold_rows(jsonl)
