"""Seed replication: shape metrics as mean ± std over independent runs.

A single seed proves an experiment *can* land on the paper's shape;
replication shows the shape is a property of the system, not of one
sample path.  :func:`replicate` re-runs any registered experiment over a
seed set and aggregates every numeric field its shape metrics report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence

from ..util.tables import render_table
from .configs import ExperimentConfig, bench_config
from .parallel import parallel_map

if TYPE_CHECKING:
    from .registry import Experiment

__all__ = [
    "MetricStats",
    "ReplicationResult",
    "replicate",
    "aggregate_metric",
]


@dataclass(frozen=True, slots=True)
class MetricStats:
    """Mean/std/min/max of one shape metric over the seed set."""

    name: str
    mean: float
    std: float
    minimum: float
    maximum: float
    n: int

    @property
    def cv(self) -> float:
        """Coefficient of variation (std/|mean|); inf for zero mean."""
        if self.mean == 0:
            return float("inf") if self.std else 0.0
        return self.std / abs(self.mean)


@dataclass(frozen=True)
class ReplicationResult:
    """Aggregated shape metrics over seeds."""

    experiment: str
    seeds: Sequence[int]
    metrics: Dict[str, MetricStats]

    def render(self) -> str:
        """ASCII table: one row per metric."""
        return render_table(
            ["metric", "mean", "std", "min", "max"],
            [
                (m.name, m.mean, m.std, m.minimum, m.maximum)
                for m in self.metrics.values()
            ],
            title=(
                f"{self.experiment} over {len(self.seeds)} seeds "
                f"({', '.join(str(s) for s in self.seeds)})"
            ),
        )

    def stable(self, name: str, *, max_cv: float = 0.5) -> bool:
        """Whether a metric's variation across seeds stays below ``max_cv``."""
        return self.metrics[name].cv <= max_cv


def aggregate_metric(name: str, values: List[float]) -> MetricStats:
    """Mean/std/min/max of one metric's per-run values."""
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return MetricStats(
        name=name,
        mean=mean,
        std=math.sqrt(var),
        minimum=min(values),
        maximum=max(values),
        n=n,
    )


def _shape_worker(spec) -> Dict[str, object]:
    """Worker: one seeded run, reduced to its picklable shape metrics.

    The full run result (live overlay, listeners) never leaves the
    worker process -- only the shape dict crosses back.
    """
    exp, cfg = spec
    return dict(exp.shape(exp.run(cfg)))


def replicate(
    experiment: "Experiment",
    *,
    seeds: Sequence[int] = (1, 2, 3),
    config: ExperimentConfig | None = None,
    n_workers: int | None = None,
) -> ReplicationResult:
    """Run a registry row on ``config``-with-seed per seed and aggregate
    its shape metrics.

    Boolean metrics aggregate as the fraction of seeds where they held;
    a metric missing (or non-finite) in any seed is dropped rather than
    averaged over a partial sample.
    Seeds are independent runs, so they fan across processes
    (``n_workers`` / ``REPRO_WORKERS``; see :mod:`.parallel`).  Each
    worker derives all randomness from its own ``cfg.with_(seed=s)``, so
    the aggregate is bit-identical to a serial run.  A row whose ``run``
    or ``shape`` is a lambda falls back to the serial path automatically
    (lambdas don't pickle).
    """
    if not seeds:
        raise ValueError("at least one seed is required")
    cfg0 = config if config is not None else bench_config()
    specs = [(experiment, cfg0.with_(seed=int(seed))) for seed in seeds]
    shapes = parallel_map(_shape_worker, specs, n_workers=n_workers)
    collected: Dict[str, List[float]] = {}
    for shape in shapes:
        for key, value in shape.items():
            if isinstance(value, bool):
                value = 1.0 if value else 0.0
            if isinstance(value, (int, float)) and math.isfinite(float(value)):
                collected.setdefault(key, []).append(float(value))
    metrics = {
        name: aggregate_metric(name, values)
        for name, values in collected.items()
        if len(values) == len(shapes)
    }
    return ReplicationResult(
        experiment=experiment.exp_id, seeds=tuple(seeds), metrics=metrics
    )
