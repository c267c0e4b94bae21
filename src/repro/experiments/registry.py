"""The experiment registry: the one list of the paper's artifacts.

Each :class:`Experiment` row carries everything its callers need: how to
run the artifact on a config, reduce the result to shape metrics and
render it, and -- for the rows ``repro report`` covers -- the paper's
claim, how to read the measured shape, and the claim's bands, which
``repro report`` judges (:func:`judge`).  ``repro <id>``, ``repro
report``, ``repro profile`` and :func:`~.replication.replicate` read the
rows and never branch on an id.  DESIGN.md §3 maps each row to the code
behind it and gives each band's six-seed spread.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from .comparison_run import (
    figure7_render,
    figure7_shape,
    figure8_render,
    figure8_shape,
    run_comparison,
)
from .dynamic_run import (
    figure4_render,
    figure4_shape,
    figure5_check,
    figure5_render,
    figure5_shape,
    figure6_render,
    figure6_shape,
    run_dynamic_scenario,
)
from .figure1 import Figure1Result, run_figure1
from .figure23 import Figure23Result, run_figure23
from .figure_faults import FigureFaultsResult, run_figure_faults
from .table3 import PAPER_SIZES, Table3Result, run_table3

__all__ = [
    "Experiment",
    "EXPERIMENTS",
    "judge",
    "SINGLE_RUN_OUTPUTS",
    "get_experiment",
    "all_ids",
]

#: Run options that name one run's output file.  A harness that runs
#: several systems would have each run overwrite the last one's file,
#: so its row refuses them.
SINGLE_RUN_OUTPUTS = ("audit_jsonl", "chrome_trace", "flight_recorder")
SINGLE_RUN_OUTPUTS += ("checkpoint_every", "checkpoint_path")

#: A claim's band: a closed interval; ``INF`` leaves one side open.
Band = Tuple[float, float]
INF = math.inf


@dataclass(frozen=True)
class Experiment:
    """A runnable paper artifact."""

    exp_id: str
    paper_artifact: str
    description: str
    #: ``run(config)`` -> result; a size sweep also takes ``sizes``,
    #: ``settle`` and ``window`` keywords.
    run: Callable[..., Any]
    #: The result's shape metrics -- what EXPERIMENTS.md records.
    shape: Callable[[Any], Mapping[str, object]]
    #: The result as ASCII text (a plot or a table).
    render: Callable[[Any], str]
    #: The paper's claim, quoted by ``repro report`` ('' = not reported).
    claim: str = ""
    #: The report's reading of the measured shape.
    reading: str = ""
    #: A size sweep's network sizes at paper scale (what ``--full`` runs);
    #: empty for an artifact that runs at the config's one size.
    paper_sizes: Tuple[int, ...] = ()
    #: Run options the harness sets itself, so the CLI refuses them.
    ignores: Tuple[str, ...] = ()
    #: ``check(config)``: why the config cannot produce the artifact (the
    #: CLI refuses it before running), or None.
    check: Optional[Callable[[Any], Optional[str]]] = None
    #: ``repro report`` runs the artifact to at most this horizon.
    report_horizon: Optional[float] = None
    #: The claim's bands at the report's scale: metric -> ``(lo, hi)``.
    bands: Mapping[str, Band] = field(default_factory=dict)


def judge(shape: Mapping[str, object], bands: Mapping[str, Band]) -> List[tuple]:
    """``(metric, measured, band, "PASS"|"FAIL")`` per banded metric.

    A metric passes when its value lies in the closed band; a missing
    metric, a NaN or a non-numeric value fails.  A bool reads as 0/1.
    """
    rows = []
    for metric, (lo, hi) in bands.items():
        value = shape.get(metric)
        ok = isinstance(value, numbers.Real) and lo <= value <= hi
        rows.append((metric, value, (lo, hi), "PASS" if ok else "FAIL"))
    return rows


def _run_figure23(config) -> Figure23Result:
    # The paper's fixed six-peer drawings: no run option changes them.
    return run_figure23()


EXPERIMENTS: Dict[str, Experiment] = {
    e.exp_id: e
    for e in (
        Experiment(
            "figure1",
            "Figure 1",
            "Ratio pathologies of pre-configured thresholds vs DLM",
            run_figure1,
            Figure1Result.check_shape,
            Figure1Result.render,
            claim=(
                "A fixed capacity threshold cannot hold the layer-size ratio: "
                "high-capacity arrival mixes flood the super-layer (Fig. 1b) "
                "and low-capacity mixes starve it (Fig. 1c)."
            ),
            reading=(
                "**Reading.** The preconfigured ratio moves by the measured "
                "`pre_b_over_a`/`pre_c_over_a` factors purely because the "
                "arrival mix changed; DLM's spread across the same three "
                "mixes (`dlm_spread`) stays near 1, a small share of the "
                "threshold's (`spread_vs_pre`).  Matches Figure 1's argument."
            ),
            report_horizon=600.0,
            ignores=SINGLE_RUN_OUTPUTS,
            bands={
                "pre_b_over_a": (-INF, 0.18),
                "pre_c_over_a": (8.9, INF),
                "spread_vs_pre": (-INF, 0.014),
            },
        ),
        Experiment(
            "figure2_3",
            "Figures 2-3",
            "Promotion/demotion mechanics on the paper's six-peer example",
            _run_figure23,
            Figure23Result.check_shape,
            Figure23Result.render,
        ),
        Experiment(
            "figure4",
            "Figure 4",
            "Average age per layer under the dynamic lifetime shift",
            run_dynamic_scenario,
            figure4_shape,
            figure4_render,
            claim=(
                "Under DLM 'the age of super-layer is much larger than that "
                "of leaf-layer, regardless [of] the changing environments' "
                "-- the t=300 halving of arrival lifetime means does not "
                "invert the ordering."
            ),
            reading=(
                "**Reading.** Super-layer mean age exceeds the leaf-layer's "
                "at every sample after warm-up (`ordering_violations = 0`), "
                "through the lifetime-mean halving.  Matches the paper."
            ),
            bands={
                "separation_factor": (6.8, INF),
                "ordering_violations": (0, 0),
                "samples": (180, INF),
            },
        ),
        Experiment(
            "figure5",
            "Figure 5",
            "Average capacity per layer under the dynamic capacity shift",
            run_dynamic_scenario,
            figure5_shape,
            figure5_render,
            check=figure5_check,
            claim=(
                "'DLM adaptively promotes the peers with large-capacities to "
                "super-layers and the average capacity value of super-layer "
                "is always larger than that of leaf-layer'; after t=1000 the "
                "super-layer mean tracks the doubled arrival capacities "
                "upward."
            ),
            reading=(
                "**Reading & deviation.** Separation holds before the shift "
                "and re-establishes afterwards, and the super-layer mean "
                "rises by `super_capacity_uplift` as the doubled-capacity "
                "generation is promoted.  Deviation: for a few hundred time "
                "units after t=1000 the *leaf* mean transiently leads "
                "(`transient_inversions` samples) because every new strong "
                "peer starts as a leaf and DLM's conjunctive rule makes it "
                "wait out the age gate before promotion; the paper's figure "
                "shows no such inversion.  We judge the inversion the "
                "honest consequence of the algorithm as specified -- "
                "electing young peers on capacity alone is exactly what the "
                "paper criticizes the threshold baseline for."
            ),
            bands={
                "separation_pre_shift": (1.3, INF),
                "separation_final": (1.1, INF),
                "super_capacity_uplift": (1.2, INF),
            },
        ),
        Experiment(
            "figure6",
            "Figure 6",
            "Layer sizes (log scale) -- ratio maintenance",
            run_dynamic_scenario,
            figure6_shape,
            figure6_render,
            claim=(
                "'An almost constant ratio is maintained throughout the "
                "simulation process, even [as] the network environment is "
                "changing' (log-scale layer sizes)."
            ),
            reading=(
                "**Reading.** `tail_ratio_error` is the relative distance of "
                "the maintained ratio from η = 40; on the paper's log-scale "
                "axis the measured swing renders as the same near-flat "
                "parallel lines."
            ),
            bands={"tail_ratio_error": (-INF, 0.13), "ratio_swing": (-INF, 1.1)},
        ),
        Experiment(
            "figure7",
            "Figure 7",
            "Layer size ratio: DLM vs preconfigured, same success rate",
            run_comparison,
            figure7_shape,
            figure7_render,
            claim=(
                "'DLM maintains the layer size ratio very well, while in the "
                "preconfigured algorithm, the layer size ratio changes "
                "periodically' -- at the same query success rate."
            ),
            reading=(
                "**Reading.** The preconfigured baseline's ratio oscillates "
                "with the workload period (`pre_ratio_swing`) while DLM's "
                "stays pinned (`dlm_ratio_swing`; `swing_ratio` is the "
                "first over the second), at success rates within a fraction "
                "of a percent of each other (`success_gap`) -- the paper's "
                "'on same success rate' framing."
            ),
            bands={
                "dlm_ratio_error": (-INF, 0.072),
                "swing_ratio": (2.6, INF),
                "success_gap": (-INF, 0.0063),
            },
            ignores=SINGLE_RUN_OUTPUTS,
        ),
        Experiment(
            "figure8",
            "Figure 8",
            "Average age comparisons: DLM vs preconfigured",
            run_comparison,
            figure8_shape,
            figure8_render,
            claim=(
                "Under DLM the layer mean ages 'are sharply divided and the "
                "average age of super-layer is much larger than that of the "
                "preconfigured algorithm'."
            ),
            reading=(
                "**Reading.** DLM separates the layers by age "
                "(`dlm_age_separation`) where the capacity threshold cannot "
                "(`pre_age_separation` ≈ 1: its super-peers are barely "
                "older than its leaves; `age_separation_ratio` is the first "
                "over the second), and DLM's super-layer is older in "
                "absolute terms (`super_age_advantage`)."
            ),
            bands={
                "age_separation_ratio": (4.9, INF),
                "super_age_advantage": (4.4, INF),
            },
            ignores=SINGLE_RUN_OUTPUTS,
        ),
        Experiment(
            "table3",
            "Table 3",
            "Peer Adjustment Overhead analysis across network sizes",
            run_table3,
            Table3Result.check_shape,
            Table3Result.render,
            claim=(
                "Peer Adjustment Overhead is small relative to join-driven "
                "connection traffic (PAO/NLCO of 0.39%/0.27%/0.19% at "
                "5k/20k/80k) and decreases with network size."
            ),
            reading=(
                "**Reading & deviation.** PAO/NLCO stays a small percentage "
                "and the largest network does no worse than the smallest "
                "(`trend_ratio` ≤ 1).  The absolute percentages exceed the "
                "paper's sub-percent values: our calibrated DLM demotes more "
                "readily at laptop scale (hundreds of super-peers rather "
                "than thousands, so ``l_nn`` concentration -- the very "
                "mechanism the paper credits for the decreasing trend -- is "
                "weaker).  The paper's own explanation thus predicts our "
                "numbers too."
            ),
            bands={"max_pao_nlco_percent": (-INF, 12.0), "trend_ratio": (-INF, 1.0)},
            paper_sizes=PAPER_SIZES,
            # Each size runs to settle + window on a single-engine
            # harness that steps its run by hand.
            ignores=("horizon", "shards", *SINGLE_RUN_OUTPUTS),
        ),
        Experiment(
            "figure_faults",
            "Extension",
            "Ratio maintenance and overhead under message loss/latency",
            run_figure_faults,
            FigureFaultsResult.check_shape,
            FigureFaultsResult.render,
            # The sweep's cells are the loss x latency grid, and each
            # cell reads its one system's ledger.
            ignores=("loss", "latency_scale", "shards", *SINGLE_RUN_OUTPUTS),
        ),
    )
}


def get_experiment(exp_id: str) -> Experiment:
    """Look up an experiment; raises ``KeyError`` with the known ids."""
    try:
        return EXPERIMENTS[exp_id]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {exp_id!r}; known: {known}") from None


def all_ids() -> Tuple[str, ...]:
    """All registered experiment ids, sorted."""
    return tuple(sorted(EXPERIMENTS))
