"""The shared DLM-vs-preconfigured comparison behind Figures 7 and 8.

Two runs over the identical periodic workload ("the new peers' mean
capacity values are periodically changed", §5) with the search plane
enabled so success rates are measured on both -- the paper's Figure 7
caption is "Layer Size Ratios *on Same Success Rate*":

* **DLM** at the configured η;
* **preconfigured** with a fixed capacity threshold.

The threshold is chosen against the *baseline* capacity mix so the
preconfigured network starts near the same η, making the subsequent
divergence attributable to the workload, not the starting point.

Figures 7 and 8 are two views of the pair: each figure's registry row
runs it and reduces it with its ``figure*_shape`` / ``figure*_render``
pair below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..baselines.preconfigured import PreconfiguredPolicy
from ..churn.distributions import BandwidthMixture
from ..churn.scenarios import Scenario, periodic_capacity_scenario
from ..metrics.summary import (
    oscillation_amplitude,
    relative_error,
    separation_factor,
    summarize,
)
from ..util.ascii_plot import ascii_plot
from .configs import ExperimentConfig, SearchConfig, bench_config
from .dynamic_run import tail_start
from .runner import RunResult, run_experiment

__all__ = [
    "ComparisonRun",
    "run_comparison",
    "matched_threshold",
    "comparison_scenario",
    "figure7_shape",
    "figure7_render",
    "figure8_shape",
    "figure8_render",
]


@dataclass(frozen=True)
class ComparisonRun:
    """Paired runs over the identical workload."""

    dlm: RunResult
    preconfigured: RunResult
    threshold: float
    scenario: Scenario


def matched_threshold(eta: float, *, samples: int = 200_000, seed: int = 99) -> float:
    """Capacity threshold putting a fraction 1/(1+η) of baseline arrivals
    into the super-layer -- the fairest static competitor to DLM(η)."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    rng = np.random.default_rng(seed)
    caps = BandwidthMixture().sample(rng, samples)
    q = 1.0 - 1.0 / (1.0 + eta)
    return float(np.quantile(caps, q))


def comparison_scenario(config: ExperimentConfig) -> Scenario:
    """Capacity mean toggling high/low with period = horizon / 8."""
    return periodic_capacity_scenario(
        period=config.horizon / 8.0,
        horizon=config.horizon,
        start=config.horizon / 8.0,
        low=1.0,
        high=4.0,
    )


def run_comparison(config: ExperimentConfig | None = None) -> ComparisonRun:
    """Execute the paired Figure-7/8 runs."""
    cfg = config if config is not None else bench_config()
    if cfg.search is None:
        cfg = cfg.with_(search=SearchConfig())
    scenario = comparison_scenario(cfg)
    threshold = matched_threshold(cfg.eta)

    # Scenario shifts are immutable records, so both runs can share the
    # same script object; each run schedules its own shift events.
    dlm = run_experiment(cfg, scenario=scenario)
    pre = run_experiment(
        cfg,
        policy_factory=lambda c: PreconfiguredPolicy(threshold),
        scenario=scenario,
    )
    return ComparisonRun(
        dlm=dlm, preconfigured=pre, threshold=threshold, scenario=scenario
    )


def figure7_shape(run: ComparisonRun) -> Dict[str, float]:
    """Figure 7: per-policy ratio swing and tail error, both success rates
    (the caption's "on same success rate"), the swing ratio and rate gap."""
    cfg = run.dlm.config
    t0 = tail_start(cfg)
    dlm_ratio = run.dlm.series["ratio"]
    pre_ratio = run.preconfigured.series["ratio"]
    dlm_q = run.dlm.query_stats
    pre_q = run.preconfigured.query_stats
    s = {
        "eta_target": cfg.eta,
        "dlm_ratio_mean": summarize(dlm_ratio, t0, cfg.horizon).mean,
        "pre_ratio_mean": summarize(pre_ratio, t0, cfg.horizon).mean,
        "dlm_ratio_error": relative_error(
            summarize(dlm_ratio, t0, cfg.horizon).mean, cfg.eta
        ),
        "dlm_ratio_swing": oscillation_amplitude(dlm_ratio, t0, cfg.horizon),
        "pre_ratio_swing": oscillation_amplitude(pre_ratio, t0, cfg.horizon),
        "dlm_success_rate": dlm_q.success_rate if dlm_q else float("nan"),
        "pre_success_rate": pre_q.success_rate if pre_q else float("nan"),
    }
    s["swing_ratio"] = s["pre_ratio_swing"] / max(s["dlm_ratio_swing"], 1e-9)
    s["success_gap"] = abs(s["dlm_success_rate"] - s["pre_success_rate"])
    return s


def figure7_render(run: ComparisonRun) -> str:
    """ASCII Figure 7: the two policies' layer size ratios."""
    dlm_ratio = run.dlm.series["ratio"]
    pre_ratio = run.preconfigured.series["ratio"]
    return ascii_plot(
        {
            "DLM": (dlm_ratio.times, dlm_ratio.values),
            "preconfigured": (pre_ratio.times, pre_ratio.values),
        },
        title=(
            "Figure 7 -- layer size ratio under periodic capacity shifts "
            f"(threshold={run.threshold:.0f} KB/s)"
        ),
    )


def figure8_shape(run: ComparisonRun) -> Dict[str, float]:
    """Figure 8: each policy's age separation, DLM's over the baseline's,
    and DLM's super-age gap."""
    cfg = run.dlm.config
    t0 = tail_start(cfg)
    dlm, pre = run.dlm.series, run.preconfigured.series
    dlm_super_age = summarize(dlm["super_mean_age"], t0, cfg.horizon).mean
    pre_super_age = summarize(pre["super_mean_age"], t0, cfg.horizon).mean
    s = {
        "dlm_age_separation": separation_factor(
            dlm["super_mean_age"], dlm["leaf_mean_age"], t0, cfg.horizon
        ),
        "pre_age_separation": separation_factor(
            pre["super_mean_age"], pre["leaf_mean_age"], t0, cfg.horizon
        ),
        "dlm_super_age": dlm_super_age,
        "pre_super_age": pre_super_age,
        "super_age_advantage": (
            dlm_super_age / pre_super_age if pre_super_age else float("inf")
        ),
    }
    pre_sep = max(s["pre_age_separation"], 1e-9)
    s["age_separation_ratio"] = s["dlm_age_separation"] / pre_sep
    return s


def figure8_render(run: ComparisonRun) -> str:
    """ASCII Figure 8: all four layer-age series, like the paper."""
    d_s = run.dlm.series["super_mean_age"]
    d_l = run.dlm.series["leaf_mean_age"]
    p_s = run.preconfigured.series["super_mean_age"]
    p_l = run.preconfigured.series["leaf_mean_age"]
    return ascii_plot(
        {
            "super/DLM": (d_s.times, d_s.values),
            "super/preconf": (p_s.times, p_s.values),
            "leaf/DLM": (d_l.times, d_l.values),
            "leaf/preconf": (p_l.times, p_l.values),
        },
        title="Figure 8 -- average age comparisons (DLM vs preconfigured)",
    )
