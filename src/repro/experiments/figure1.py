"""Figure 1: why pre-configured thresholds cannot hold the ratio.

The paper's motivating example (§3): with a 50 KB/s threshold, a network
that starts balanced (a) degenerates when the arrival mix shifts -- "if
most new joining peers have high bandwidths, the system will soon have
too many super-peers" (b), and with weak arrivals it drifts toward a
centralized topology with too few (c).

The reproduction runs the preconfigured policy three times over the same
churn, differing only in a capacity-mean scale applied mid-run, and
reports the resulting tail ratios.  DLM under the identical three
workloads is included as the counterpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..baselines.preconfigured import PreconfiguredPolicy
from ..churn.scenarios import Scenario, Shift
from ..metrics.summary import summarize
from ..util.tables import render_table
from .comparison_run import matched_threshold
from .configs import ExperimentConfig, bench_config
from .parallel import parallel_map
from .runner import run_experiment

__all__ = ["Figure1Result", "run_figure1", "ARRIVAL_MIXES"]

#: (label, capacity-mean scale applied after the network settles).
ARRIVAL_MIXES: Tuple[Tuple[str, float], ...] = (
    ("balanced arrivals (a)", 1.0),
    ("high-capacity arrivals (b)", 4.0),
    ("low-capacity arrivals (c)", 0.25),
)


@dataclass(frozen=True)
class Figure1Result:
    """Tail ratios per arrival mix per policy."""

    threshold: float
    eta_target: float
    rows: List[Tuple[str, float, float]]  # (mix, preconfigured ratio, DLM ratio)

    def render(self) -> str:
        """ASCII rendition of the figure."""
        return render_table(
            ["Arrival mix", "preconfigured ratio", "DLM ratio"],
            self.rows,
            title=(
                "Figure 1 -- tail layer-size ratios "
                f"(threshold={self.threshold:.0f} KB/s, "
                f"target eta={self.eta_target:.0f})"
            ),
        )

    def check_shape(self) -> Dict[str, float]:
        """Shape metrics: the threshold policy's ratio must swing with the
        mix (small under (b), large under (c)) while DLM's stays put."""
        ratios_pre = {mix: pre for mix, pre, _ in self.rows}
        ratios_dlm = {mix: dlm for mix, _, dlm in self.rows}
        (a, b, c) = [m for m, _ in ARRIVAL_MIXES]
        s = {
            "pre_b_over_a": ratios_pre[b] / ratios_pre[a],
            "pre_c_over_a": ratios_pre[c] / ratios_pre[a],
            "dlm_spread": (
                max(ratios_dlm.values()) / max(1e-9, min(ratios_dlm.values()))
            ),
        }
        s["spread_vs_pre"] = s["dlm_spread"] * s["pre_b_over_a"] / s["pre_c_over_a"]
        return s


def _run_mix(spec) -> Tuple[str, float, float]:
    """Worker: one arrival mix, both policies, reduced to a row tuple.

    The spec is ``(cfg, threshold, label, scale, shift_at)`` -- plain
    picklable data; the two live run results stay in the worker.
    """
    cfg, threshold, label, scale, shift_at = spec
    scenario = Scenario(
        name=f"figure1_{scale}",
        shifts=() if scale == 1.0 else (Shift(shift_at, "capacity", scale),),
    )
    pre = run_experiment(
        cfg.with_(name=f"figure1_pre_{scale}"),
        policy_factory=lambda c: PreconfiguredPolicy(threshold),
        scenario=scenario,
    )
    dlm = run_experiment(cfg.with_(name=f"figure1_dlm_{scale}"), scenario=scenario)
    t0 = 0.75 * cfg.horizon
    return (
        label,
        summarize(pre.series["ratio"], t0, cfg.horizon).mean,
        summarize(dlm.series["ratio"], t0, cfg.horizon).mean,
    )


def run_figure1(
    config: ExperimentConfig | None = None, *, n_workers: int | None = None
) -> Figure1Result:
    """Execute the Figure-1 reproduction.

    The three arrival mixes are independent runs and fan across
    processes (``n_workers`` / ``REPRO_WORKERS``; see :mod:`.parallel`);
    rows keep :data:`ARRIVAL_MIXES` order.
    """
    cfg = config if config is not None else bench_config()
    threshold = matched_threshold(cfg.eta)
    shift_at = cfg.horizon / 3.0
    specs = [
        (cfg, threshold, label, scale, shift_at) for label, scale in ARRIVAL_MIXES
    ]
    rows: List[Tuple[str, float, float]] = parallel_map(
        _run_mix, specs, n_workers=n_workers
    )
    return Figure1Result(threshold=threshold, eta_target=cfg.eta, rows=rows)
