"""Table 3: Peer Adjustment Overhead analysis.

For each network size the paper counts, per unit time: new leaf-peers,
demoted super-peers, leaves disconnected by those demotions, and the
ratio PAO/NLCO (each disconnected leaf re-creates one connection versus
``m`` for a new join).  Paper shape: the percentage is small (0.1-0.5%)
and **decreases** as the network grows, because larger networks
concentrate ``l_nn`` around ``k_l`` and misjudged demotions become rarer.

The measurement window opens after a settling period (cold start +
bootstrap promotions are excluded, as the paper's per-unit steady-state
accounting implies).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..churn.scenarios import stable_scenario
from ..metrics.overhead import Table3Row
from ..util.tables import render_table
from .configs import ExperimentConfig, table2_config
from .parallel import parallel_map
from .runner import run_experiment

__all__ = ["Table3Result", "run_table3", "PAPER_SIZES", "BENCH_SIZES"]

#: The paper's Table-3 network sizes.
PAPER_SIZES = (5_000, 20_000, 80_000)
#: Laptop-scale sweep (the settle/window dominate runtime, not n).
BENCH_SIZES = (1_000, 4_000, 8_000)


@dataclass(frozen=True)
class Table3Result:
    """The reproduced rows plus run metadata."""

    rows: List[Table3Row]
    settle: float
    window: float

    def render(self) -> str:
        """ASCII Table 3."""
        return render_table(
            [
                "Network size",
                "# new leaf-peers /unit",
                "# demoted supers /unit",
                "# disconnected leaves /unit",
                "PAO/NLCO (%)",
            ],
            [
                (
                    r.network_size,
                    r.new_leaf_peers_per_unit,
                    r.demoted_supers_per_unit,
                    r.disconnected_leaves_per_unit,
                    r.pao_nlco_percent,
                )
                for r in self.rows
            ],
            title="Table 3 -- Peer Adjustment Overhead analysis",
        )

    def check_shape(self) -> dict:
        """Shape metrics: the largest percentage, and the last size's over
        the first's (``trend_ratio``; its band's seed spread: DESIGN.md §3)."""
        pcts = [r.pao_nlco_percent for r in self.rows]
        return {
            "max_pao_nlco_percent": max(pcts),
            "first_pct": pcts[0],
            "last_pct": pcts[-1],
            "trend_ratio": pcts[-1] / pcts[0] if pcts[0] else float("inf"),
            "monotone_trend": pcts[-1] <= pcts[0],
        }


def _run_size(spec) -> Table3Row:
    """Worker: one network size's windowed overhead row.

    The spec is ``(cfg, n, settle, window)``; only the picklable
    :class:`Table3Row` record returns from the worker process.
    """
    cfg, n, settle, window = spec
    wired = run_experiment(cfg, scenario=stable_scenario(), run=False)
    wired.ctx.sim.run(until=settle)
    wired.ctx.overhead.window(settle)  # discard settling counters
    wired.ctx.sim.run(until=settle + window)
    counters, elapsed = wired.ctx.overhead.window(settle + window)
    return wired.ctx.overhead.table3_row(n, counters, elapsed)


def run_table3(
    base: ExperimentConfig | None = None,
    sizes: Sequence[int] = BENCH_SIZES,
    *,
    settle: float = 800.0,
    window: float = 400.0,
    n_workers: int | None = None,
) -> Table3Result:
    """Reproduce Table 3 over the given network sizes.

    Each size runs ``base`` (default: the Table-2 configuration), scaled
    to that size, under steady replacement churn; counters are windowed
    over ``[settle, settle + window]``, which is also each run's
    horizon.  The settle period must outlast the bootstrap transient --
    the super-layer grows from a single seed, and the promotion overshoot
    it corrects would otherwise be misread as steady-state demotion
    overhead (calibration: 300 units is too short, 800 is clean).

    Sizes are independent runs (each has its own derived seed) and fan
    across processes (``n_workers`` / ``REPRO_WORKERS``; see
    :mod:`.parallel`); rows keep ``sizes`` order.
    """
    if settle <= 0 or window <= 0:
        raise ValueError("settle and window must be positive")
    cfg0 = base if base is not None else table2_config()
    specs = [
        (
            cfg0.scaled(n, horizon=settle + window).with_(
                name=f"table3_n{n}", seed=cfg0.seed + n
            ),
            n,
            settle,
            window,
        )
        for n in sizes
    ]
    rows: List[Table3Row] = parallel_map(_run_size, specs, n_workers=n_workers)
    return Table3Result(rows=rows, settle=settle, window=window)
