"""The shared dynamic-network run behind Figures 4, 5 and 6.

One DLM run under the paper's §5 dynamic workload: lifetime means halved
at t = 300, capacity means doubled at t = 1000 (times scale with the
horizon when a shorter run is requested).  Figures 4-6 are three views of
the same run -- ages, capacities, layer sizes -- so each figure's
registry row runs it and reduces it with its own ``figure*_shape`` /
``figure*_render`` pair below; nothing is cached, so each bench re-runs
it to keep measurements honest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..churn.scenarios import Scenario, figure45_scenario
from ..metrics.summary import (
    oscillation_amplitude,
    relative_error,
    separation_factor,
    summarize,
)
from ..util.ascii_plot import ascii_plot
from .configs import ExperimentConfig, bench_config
from .runner import RunResult, run_experiment

__all__ = [
    "DynamicRun",
    "run_dynamic_scenario",
    "scaled_scenario",
    "tail_start",
    "figure4_shape",
    "figure4_render",
    "figure5_shape",
    "figure5_render",
    "figure6_shape",
    "figure6_render",
]


@dataclass(frozen=True)
class DynamicRun:
    """The run plus the shift times actually used."""

    result: RunResult
    lifetime_shift_at: float
    capacity_shift_at: float


def scaled_scenario(config: ExperimentConfig) -> Scenario:
    """The Figure-4/5 scenario with shift times proportional to horizon.

    At the paper's 2000-unit horizon this is exactly t=300 and t=1000.
    """
    return figure45_scenario(
        lifetime_shift_at=0.15 * config.horizon,
        capacity_shift_at=0.5 * config.horizon,
    )


def run_dynamic_scenario(config: ExperimentConfig | None = None) -> DynamicRun:
    """Execute the dynamic-network run with DLM."""
    cfg = config if config is not None else bench_config()
    scenario = scaled_scenario(cfg)
    result = run_experiment(cfg, scenario=scenario)
    shifts = scenario.sorted_shifts()
    return DynamicRun(
        result=result,
        lifetime_shift_at=shifts[0].time,
        capacity_shift_at=shifts[1].time,
    )


def tail_start(cfg: ExperimentConfig) -> float:
    """Where a figure's steady tail starts: after twice the warm-up, or
    after the warm-up alone when a short horizon leaves no such window."""
    t0 = 2 * cfg.warmup
    return cfg.warmup if t0 >= cfg.horizon else t0


def _layer_plot(run: DynamicRun, sup_name: str, leaf_name: str, title: str, **kw):
    sup = run.result.series[sup_name]
    leaf = run.result.series[leaf_name]
    return ascii_plot(
        {
            "super-layer": (sup.times, sup.values),
            "leaf-layer": (leaf.times, leaf.values),
        },
        title=title,
        **kw,
    )


def figure4_shape(run: DynamicRun) -> Dict[str, float]:
    """Figure 4: super/leaf mean-age separation over the steady tail and
    how many samples after the transient broke the ordering."""
    cfg = run.result.config
    t0 = tail_start(cfg)
    sup = run.result.series["super_mean_age"]
    leaf = run.result.series["leaf_mean_age"]
    s_vals = sup.window(t0, cfg.horizon)
    l_vals = leaf.window(t0, cfg.horizon)
    return {
        "separation_factor": separation_factor(
            sup, leaf, t_from=t0, t_to=cfg.horizon
        ),
        "ordering_violations": int(np.count_nonzero(s_vals <= l_vals)),
        "samples": int(len(s_vals)),
    }


def figure4_render(run: DynamicRun) -> str:
    """ASCII Figure 4: average age per layer."""
    return _layer_plot(
        run,
        "super_mean_age",
        "leaf_mean_age",
        "Figure 4 -- average age per layer "
        f"(lifetime mean halved at t={run.lifetime_shift_at:.0f})",
    )


def figure5_shape(run: DynamicRun) -> Dict[str, float]:
    """Figure 5: capacity separation, ordering, and post-shift uplift.

    The capacity doubling lifts the *leaf* mean instantly (new arrivals
    are leaves) while the super-layer refreshes only as the strong
    arrivals satisfy DLM's age gate, so ordering is assessed before the
    shift and after an adaptation window, with the transient inversion
    reported separately (EXPERIMENTS.md discusses this deviation from the
    paper's idealized 'always larger').
    """
    cfg = run.result.config
    t0 = tail_start(cfg)
    shift = run.capacity_shift_at
    recovery = shift + 0.6 * (cfg.horizon - shift)
    sup = run.result.series["super_mean_capacity"]
    leaf = run.result.series["leaf_mean_capacity"]
    s_pre, l_pre = sup.window(t0, shift), leaf.window(t0, shift)
    s_fin = sup.window(recovery, cfg.horizon)
    l_fin = leaf.window(recovery, cfg.horizon)
    s_mid, l_mid = sup.window(shift, recovery), leaf.window(shift, recovery)
    before = summarize(
        sup, t_from=max(t0, shift - 0.25 * cfg.horizon), t_to=shift
    ).mean
    after = summarize(sup, t_from=recovery, t_to=cfg.horizon).mean
    return {
        "separation_pre_shift": separation_factor(sup, leaf, t_from=t0, t_to=shift),
        "separation_final": separation_factor(
            sup, leaf, t_from=recovery, t_to=cfg.horizon
        ),
        "ordering_violations_steady": int(
            np.count_nonzero(s_pre <= l_pre) + np.count_nonzero(s_fin <= l_fin)
        ),
        "transient_inversions": int(np.count_nonzero(s_mid <= l_mid)),
        "samples": int(len(s_pre) + len(s_fin)),
        "super_capacity_uplift": after / before if before else float("inf"),
    }


def figure5_render(run: DynamicRun) -> str:
    """ASCII Figure 5: average capacity per layer."""
    return _layer_plot(
        run,
        "super_mean_capacity",
        "leaf_mean_capacity",
        "Figure 5 -- average capacity per layer "
        f"(capacity mean doubled at t={run.capacity_shift_at:.0f})",
    )


def figure6_shape(run: DynamicRun) -> Dict[str, float]:
    """Figure 6: tail ratio against η and how flat the ratio stays."""
    cfg = run.result.config
    t0 = tail_start(cfg)
    ratio = run.result.series["ratio"]
    tail = summarize(ratio, t_from=t0, t_to=cfg.horizon)
    return {
        "eta_target": cfg.eta,
        "tail_ratio_mean": tail.mean,
        "tail_ratio_error": relative_error(tail.mean, cfg.eta),
        "ratio_swing": oscillation_amplitude(ratio, t_from=t0, t_to=cfg.horizon),
    }


def figure6_render(run: DynamicRun) -> str:
    """ASCII Figure 6: layer sizes on a log10 axis, like the paper."""
    return _layer_plot(
        run, "n_super", "n_leaf", "Figure 6 -- layer sizes (log scale)", logy=True
    )
