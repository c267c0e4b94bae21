"""Golden baseline for the aggregate-plane sampler refactor.

The exact-sum :class:`~repro.overlay.aggregates.OverlayAggregates`
plane replaced the per-sample full overlay scan inside
:class:`~repro.metrics.layerstats.LayerStatsSampler`.  The refactor must
be *trajectory-preserving*: per seed, the dynamic-scenario run behind
Figures 4 and 6 has to visit the same peers, fire the same transitions,
and record the same series -- exactly for every count-valued series
(``n``, ``n_super``, ``n_leaf``, ``ratio``), and to within the old
scan's own floating-point rounding for the mean-valued series (the
aggregate plane keeps exact fixed-point sums, so its means are
*correctly rounded* where the old per-sample float loop accumulated up
to ~n ulps of error; see DESIGN.md, "Aggregate plane").

``golden_layerstats.json`` next to this module holds every recorded
sample of every series, captured at the last full-scan commit.

Regeneration history: recaptured for the columnar-core PR, whose
vectorized rejection samplers (``Overlay.random_supers``,
``IndexedSet.sample``) and coalesced evaluation drain consume the
RNG stream differently -- an intended sample-path change; see
DESIGN.md §8 (samplers) and §5 (the drain).

Regenerate (only when a change is *intended* to alter sample paths)::

    PYTHONPATH=src:. python tests/experiments/golden_layerstats.py
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden_layerstats.json")

#: Small enough to run in seconds, large enough to exercise promotion,
#: demotion, churn replacement, and both scenario shifts.
GOLDEN_N = 250
GOLDEN_HORIZON = 150.0
GOLDEN_WARMUP = 30.0
GOLDEN_SEEDS = (1, 2)

#: Series whose samples are integer-valued or exact ratios of integers:
#: the refactor must reproduce them bit for bit.
EXACT_SERIES = ("n", "n_super", "n_leaf", "ratio")
#: Mean-valued series: reproduced to within the scan's own rounding.
MEAN_SERIES = (
    "super_mean_age",
    "leaf_mean_age",
    "super_mean_capacity",
    "leaf_mean_capacity",
    "super_mean_lnn",
)


def golden_config(seed: int):
    """The fixed small-scale config every golden run uses."""
    from repro.experiments.configs import bench_config

    return bench_config().with_(
        n=GOLDEN_N, horizon=GOLDEN_HORIZON, warmup=GOLDEN_WARMUP, seed=seed
    )


def run_series(seed: int) -> dict:
    """One seeded dynamic run (the run behind Figures 4-6), all series.

    JSON floats round-trip exactly through ``repr`` in Python, so the
    stored samples are bit-exact records of what the sampler emitted.
    """
    from repro.experiments.dynamic_run import run_dynamic_scenario

    bundle = run_dynamic_scenario(golden_config(seed)).result.series
    return {
        name: {
            "times": [float(t) for t in bundle[name].times],
            "values": [float(v) for v in bundle[name].values],
        }
        for name in bundle.names()
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
        "runs": {str(seed): run_series(seed) for seed in GOLDEN_SEEDS},
    }


def main() -> int:
    record = compute_golden()
    GOLDEN_PATH.write_text(json.dumps(record, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
