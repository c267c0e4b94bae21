"""Golden state digests of two small message-driven runs.

The transport's bookkeeping (how timeouts are queued and cancelled, how
the drop and latency streams are drawn) may change; what the runs do
may not.  This module reduces each run's final
:func:`~repro.experiments.checkpoint.capture_run_state` to one SHA-256
per component (of its protocol-4 pickle), with cancelled entries
filtered out of the ``sim`` queue: a cancelled timeout is a tombstone
in a queue that schedules it
eagerly and simply absent from one that keeps it as a lazy row, and
neither ever fires.  ``golden_transport.json`` next to it holds the
digests captured before timeouts became lazy rows.

The first run is the ``msg_faults`` shape at small n (timeouts far
beyond the calendar window, so they stay rows).  The second takes the
other branches: a timeout shorter than the window (materialized at
schedule time), backoff, more retries, and periodic burst loss.

Regenerate (only when a change is *intended* to alter sample paths)::

    PYTHONPATH=src:. python tests/protocol/golden_transport.py
"""

from __future__ import annotations

import hashlib
import json
import pickle
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden_transport.json")

#: name -> (seed, FaultPlan keywords).
GOLDEN_RUNS = {
    "lazy_rows": (5, dict(loss_rate=0.05, latency_scale=0.2)),
    "materialized_bursts": (
        6,
        dict(
            loss_rate=0.1,
            latency_scale=0.5,
            timeout=0.6,
            backoff=1.5,
            max_retries=3,
            burst_loss_rate=0.5,
            burst_interval=25.0,
            burst_duration=4.0,
        ),
    ),
}
GOLDEN_N = 300
GOLDEN_HORIZON = 120.0
GOLDEN_WARMUP = 20.0


def golden_config(name: str):
    """The fixed small message-driven config of one golden run."""
    from repro.experiments.configs import table2_config
    from repro.protocol.faults import FaultPlan

    seed, faults = GOLDEN_RUNS[name]
    return table2_config().with_(
        n=GOLDEN_N,
        horizon=GOLDEN_HORIZON,
        warmup=GOLDEN_WARMUP,
        seed=seed,
        faults=FaultPlan(**faults),
    )


def live_digest(result) -> dict:
    """Per-component digests, cancelled entries left out of the sim queue."""
    from repro.experiments.checkpoint import capture_run_state

    state = capture_run_state(result)
    state["telemetry"].pop("spans", None)
    state["sim"]["queue"] = [e for e in state["sim"]["queue"] if not e[4]]
    return {
        name: hashlib.sha256(pickle.dumps(value, protocol=4)).hexdigest()
        for name, value in state.items()
    }


def run_digest(name: str) -> dict:
    from repro.experiments.runner import run_experiment

    return live_digest(run_experiment(golden_config(name)))


def main() -> int:
    record = {name: run_digest(name) for name in GOLDEN_RUNS}
    GOLDEN_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
