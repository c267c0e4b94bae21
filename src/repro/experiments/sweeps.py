"""Parameter sweeps over the DLM configuration.

The µ-adaptation gains (α, β), the action damping, and the cooldown were
calibrated empirically (DESIGN.md §5 records the journey: undamped high
gains bang-bang, low gains leave steady-state error).  This harness
productizes that methodology: a grid sweep over any DLMConfig fields,
each point scored on ratio convergence and transition churn, with the
winner surfaced -- so re-calibration after a model change is one call.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from ..analysis.convergence import analyze_ratio_convergence
from ..core.dlm import DLMPolicy
from ..util.tables import render_table
from .configs import ExperimentConfig, bench_config
from .parallel import parallel_map
from .runner import run_experiment

__all__ = ["SweepPoint", "SweepResult", "sweep_dlm_parameters"]


@dataclass(frozen=True)
class SweepPoint:
    """One grid point's parameters and scores."""

    params: Mapping[str, object]
    tail_ratio: float
    tail_error: float
    tail_swing: float
    promotions: int
    demotions: int

    @property
    def score(self) -> float:
        """Lower is better: tail error plus a swing penalty.

        Both terms are relative quantities; the 0.5 weight keeps
        accuracy primary and stability the tie-breaker.
        """
        return self.tail_error + 0.5 * self.tail_swing


@dataclass(frozen=True)
class SweepResult:
    """All evaluated grid points, in evaluation order."""

    points: List[SweepPoint]
    config: ExperimentConfig

    def best(self) -> SweepPoint:
        """The lowest-score point."""
        if not self.points:
            raise ValueError("empty sweep")
        return min(self.points, key=lambda p: p.score)

    def render(self) -> str:
        """ASCII table of all points, best first."""
        names = sorted({k for p in self.points for k in p.params})
        headers = names + [
            "tail ratio",
            "tail error",
            "tail swing",
            "promos",
            "demos",
            "score",
        ]
        rows = [
            [p.params.get(k) for k in names]
            + [
                p.tail_ratio,
                p.tail_error,
                p.tail_swing,
                p.promotions,
                p.demotions,
                p.score,
            ]
            for p in sorted(self.points, key=lambda p: p.score)
        ]
        return render_table(
            headers, rows, title=f"DLM parameter sweep (target eta={self.config.eta})"
        )


def _dlm_factory(c: ExperimentConfig) -> DLMPolicy:
    """Module-level policy factory (picklable, unlike a lambda)."""
    return DLMPolicy(c.dlm_config())


def _score_point(result, eta: float, params) -> SweepPoint:
    conv = analyze_ratio_convergence(result.series["ratio"], eta)
    return SweepPoint(
        params=params,
        tail_ratio=conv.tail_mean,
        tail_error=conv.tail_error,
        tail_swing=conv.tail_swing,
        promotions=result.overlay.total_promotions,
        demotions=result.overlay.total_demotions,
    )


def _evaluate_point(spec) -> SweepPoint:
    """Worker: run one grid point cold (full run) and score it.

    The spec is ``(run_cfg, params)`` -- both plain picklable data; the
    live run result stays inside the worker and only the small
    :class:`SweepPoint` record crosses back.
    """
    run_cfg, params = spec
    result = run_experiment(run_cfg, policy_factory=_dlm_factory)
    return _score_point(result, run_cfg.eta, params)


def sweep_dlm_parameters(
    grid: Mapping[str, Sequence[object]],
    *,
    config: ExperimentConfig | None = None,
    n_workers: int | None = None,
) -> SweepResult:
    """Run one experiment per grid combination and score each.

    ``grid`` maps DLMConfig field names to candidate values, e.g.
    ``{"alpha": [1, 2, 3], "beta": [1, 2]}`` evaluates six points.
    Unknown field names raise immediately (before any run).

    Grid points are independent runs and fan across processes
    (``n_workers`` / ``REPRO_WORKERS``; see :mod:`.parallel`); results
    keep grid-product order regardless of completion order.
    """
    if not grid:
        raise ValueError("grid must name at least one parameter")
    cfg = config if config is not None else bench_config()
    base_dlm = cfg.dlm_config()
    valid = {f.name for f in dataclasses.fields(base_dlm)}
    unknown = set(grid) - valid
    if unknown:
        raise ValueError(f"unknown DLMConfig fields: {sorted(unknown)}")

    names: Tuple[str, ...] = tuple(grid)
    specs = []
    for combo in itertools.product(*(grid[name] for name in names)):
        params: Dict[str, object] = dict(zip(names, combo))
        specs.append((cfg.with_(dlm=dataclasses.replace(base_dlm, **params)), params))
    points = parallel_map(_evaluate_point, specs, n_workers=n_workers)
    return SweepResult(points=points, config=cfg)
