"""Golden baseline for the Phase-1 message-driven refactor.

The information-collection refactor (observed neighbor knowledge instead
of live overlay reads) must be *behavior-preserving* with faults
disabled: per seed, a default-configuration run has to reproduce the
pre-refactor sample path bit for bit.  This module computes a compact
but highly sensitive fingerprint of a ``figure4`` run and of a
two-seed ``replication`` aggregate; ``golden_phase1.json`` next to it
holds the values captured at the last pre-refactor commit.

Regeneration history: recaptured for the columnar-core PR, whose
vectorized rejection samplers (``Overlay.random_supers``,
``IndexedSet.sample``) and coalesced evaluation drain consume the
RNG stream differently -- an intended sample-path change; see
DESIGN.md §8 (samplers) and §5 (the drain).

Regenerate (only when a change is *intended* to alter sample paths)::

    PYTHONPATH=src:. python tests/experiments/golden_phase1.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden_phase1.json")

#: Small enough to run in seconds, large enough to exercise promotion,
#: demotion, churn replacement, and both scenario shifts.
GOLDEN_N = 250
GOLDEN_HORIZON = 150.0
GOLDEN_WARMUP = 30.0
GOLDEN_SEEDS = (1, 2)


def golden_config():
    """The fixed small-scale config every golden run uses."""
    from repro.experiments.configs import bench_config

    return bench_config().with_(
        n=GOLDEN_N, horizon=GOLDEN_HORIZON, warmup=GOLDEN_WARMUP
    )


def series_digest(bundle) -> str:
    """SHA-256 over every recorded sample of every series, in order.

    Uses full-precision ``repr`` of times and values, so any numeric
    drift anywhere in the run shows up as a different digest.
    """
    h = hashlib.sha256()
    for name in bundle.names():
        series = bundle[name]
        h.update(name.encode())
        for t, v in series:
            h.update(f"{t!r}:{v!r};".encode())
    return h.hexdigest()


def figure4_fingerprint() -> dict:
    """One seeded figure4 run reduced to bit-sensitive scalars."""
    from repro.experiments.registry import get_experiment

    figure4 = get_experiment("figure4")
    result = figure4.run(golden_config())
    run = result.result
    overlay = run.overlay
    ledger = run.ctx.messages
    return {
        "series_digest": series_digest(run.series),
        "check_shape": dict(figure4.shape(result)),
        "n_super": overlay.n_super,
        "n_leaf": overlay.n_leaf,
        "total_promotions": overlay.total_promotions,
        "total_demotions": overlay.total_demotions,
        "total_connections": overlay.total_connections_created,
        "dlm_messages": ledger.dlm_messages,
        "dlm_bytes": ledger.dlm_bytes,
        "evaluations": run.policy.evaluations,
    }


def replication_fingerprint() -> dict:
    """Replication aggregate over the golden seeds (serial path)."""
    from repro.experiments.registry import get_experiment
    from repro.experiments.replication import replicate

    rep = replicate(
        get_experiment("figure4"),
        seeds=GOLDEN_SEEDS,
        config=golden_config(),
        n_workers=1,
    )
    return {
        name: [m.mean, m.std, m.minimum, m.maximum, m.n]
        for name, m in rep.metrics.items()
    }


def compute_golden() -> dict:
    """The full golden record for the current code."""
    return {
        "config": {
            "n": GOLDEN_N,
            "horizon": GOLDEN_HORIZON,
            "warmup": GOLDEN_WARMUP,
            "seeds": list(GOLDEN_SEEDS),
        },
        "figure4": figure4_fingerprint(),
        "replication": replication_fingerprint(),
    }


def main() -> int:
    record = compute_golden()
    GOLDEN_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
