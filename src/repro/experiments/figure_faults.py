"""Fault sweep: DLM's ratio maintenance under message loss and latency.

The paper evaluates DLM with implicit instant-perfect information; this
harness measures how much that assumption is worth.  It sweeps the
message-driven Phase-1 engine over loss ∈ {0, 1%, 5%, 10%} × latency
scales, and reports, per cell, the ratio-maintenance error (tail mean of
the leaf/super ratio vs η, as in Figure 6) and the information-exchange
overhead (messages, retransmissions, timeouts, byte fraction) against
the omniscient baseline.  The zero-loss / zero-latency cell isolates the
cost of the protocol itself -- knowledge still travels in messages, they
just never fail -- from the cost of the faults.

Cells are independent seeded runs, so they fan out across cores through
:func:`~repro.experiments.parallel.parallel_map`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..metrics.summary import oscillation_amplitude, relative_error, summarize
from ..protocol.faults import FaultPlan
from .configs import ExperimentConfig, bench_config
from .dynamic_run import run_dynamic_scenario, tail_start
from .parallel import parallel_map

__all__ = ["FaultCell", "FigureFaultsResult", "run_figure_faults"]

#: The paper-motivated loss grid (§6-style overhead honesty under faults).
DEFAULT_LOSSES: Tuple[float, ...] = (0.0, 0.01, 0.05, 0.10)
#: One-way median latency scales swept against each loss rate.
DEFAULT_LATENCY_SCALES: Tuple[float, ...] = (0.0, 1.0)


@dataclass(frozen=True)
class FaultCell:
    """Reduced metrics of one run of the sweep (picklable payload)."""

    label: str
    loss_rate: float
    latency_scale: float
    message_driven: bool
    tail_ratio_mean: float
    tail_ratio_error: float
    ratio_swing: float
    dlm_messages: int
    dlm_retransmissions: int
    dlm_timeouts: int
    overhead_fraction: float
    deferrals: int


def _run_cell(config: ExperimentConfig) -> FaultCell:
    """Execute one sweep cell (module-level for the process pool)."""
    run = run_dynamic_scenario(config)
    result = run.result
    cfg = result.config
    ratio = result.series["ratio"]
    t0 = tail_start(cfg)
    tail = summarize(ratio, t_from=t0, t_to=cfg.horizon)
    ledger = result.ctx.messages
    faults = cfg.faults
    return FaultCell(
        label=cfg.name,
        loss_rate=faults.loss_rate if faults is not None else 0.0,
        latency_scale=faults.latency_scale if faults is not None else 0.0,
        message_driven=faults is not None,
        tail_ratio_mean=tail.mean,
        tail_ratio_error=relative_error(tail.mean, cfg.eta),
        ratio_swing=oscillation_amplitude(ratio, t_from=t0, t_to=cfg.horizon),
        dlm_messages=ledger.dlm_messages,
        dlm_retransmissions=ledger.dlm_retransmissions,
        dlm_timeouts=ledger.dlm_timeouts,
        overhead_fraction=ledger.dlm_overhead_fraction(),
        deferrals=getattr(result.policy, "deferrals", 0),
    )


@dataclass(frozen=True)
class FigureFaultsResult:
    """The omniscient baseline plus every fault-grid cell."""

    baseline: FaultCell
    cells: Tuple[FaultCell, ...]

    def check_shape(self) -> Dict[str, float]:
        """Degradation metrics relative to the omniscient baseline."""
        worst = max(self.cells, key=lambda c: c.tail_ratio_error)
        return {
            "baseline_ratio_error": self.baseline.tail_ratio_error,
            "worst_ratio_error": worst.tail_ratio_error,
            "worst_cell_loss": worst.loss_rate,
            "worst_cell_latency": worst.latency_scale,
            "max_overhead_fraction": max(c.overhead_fraction for c in self.cells),
            "max_message_overhead_vs_baseline": (
                max(c.dlm_messages for c in self.cells)
                / max(1, self.baseline.dlm_messages)
            ),
            "total_retransmissions": sum(c.dlm_retransmissions for c in self.cells),
            "total_timeouts": sum(c.dlm_timeouts for c in self.cells),
            "cells": len(self.cells),
        }

    def render(self) -> str:
        """Fixed-width table: one row per cell, baseline first."""
        header = (
            f"{'cell':>16s} {'loss':>6s} {'lat':>5s} {'ratio':>8s} "
            f"{'err%':>7s} {'swing':>7s} {'msgs':>9s} {'retx':>7s} "
            f"{'tmo':>7s} {'ovh%':>6s} {'defer':>7s}"
        )
        lines = ["Fault sweep -- ratio maintenance vs omniscient baseline", header]

        def row(c: FaultCell) -> str:
            return (
                f"{c.label:>16s} {c.loss_rate:6.2%} {c.latency_scale:5.1f} "
                f"{c.tail_ratio_mean:8.2f} {c.tail_ratio_error:7.2%} "
                f"{c.ratio_swing:7.2f} {c.dlm_messages:9d} "
                f"{c.dlm_retransmissions:7d} {c.dlm_timeouts:7d} "
                f"{c.overhead_fraction:6.2%} {c.deferrals:7d}"
            )

        lines.append(row(self.baseline))
        lines.extend(row(c) for c in self.cells)
        delta = max(c.tail_ratio_error for c in self.cells) - (
            self.baseline.tail_ratio_error
        )
        lines.append(
            f"worst-case ratio-error degradation vs omniscient: {delta:+.2%}"
        )
        return "\n".join(lines)


def run_figure_faults(
    config: Optional[ExperimentConfig] = None,
    *,
    losses: Sequence[float] = DEFAULT_LOSSES,
    latency_scales: Sequence[float] = DEFAULT_LATENCY_SCALES,
    n_workers: Optional[int] = None,
) -> FigureFaultsResult:
    """Run the omniscient baseline plus the loss × latency grid."""
    base = config if config is not None else bench_config()
    specs = [base.with_(name="omniscient", faults=None)]
    for scale in latency_scales:
        for loss in losses:
            specs.append(
                base.with_(
                    name=f"loss={loss:.0%},lat={scale:g}",
                    faults=FaultPlan(loss_rate=loss, latency_scale=scale),
                )
            )
    results = parallel_map(_run_cell, specs, n_workers=n_workers)
    return FigureFaultsResult(baseline=results[0], cells=tuple(results[1:]))
