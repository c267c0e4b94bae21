"""Cross-family comparison: layer management × overlay family.

The DLM election core is family-agnostic by construction (see
:mod:`repro.overlay.family`); this harness measures whether that holds
*experimentally*.  Every layer-management policy (DLM plus the
tournament baselines) runs over the same seeded churn workload under
each registered overlay family -- the paper's random superpeer backbone
and the hierarchical Chord ring -- with the search plane enabled, and
each cell reports:

* **ratio tracking** -- tail mean of the leaf/super ratio vs η and its
  oscillation amplitude (the Figure-6 quantities), which should be
  family-independent: elections see capacities and layer sizes, never
  link structure;
* **query cost** -- success rate, mean messages and supers visited per
  query, which should be strongly family-dependent: flooding pays the
  TTL-ball, ring routing pays O(log n) greedy hops.

Every cell also re-checks the overlay's structural invariants, the
family's own invariants (ring/successor/finger exactness for Chord),
and the O(1) aggregate mirrors against a from-scratch scan before it
reports (``check_invariants(aggregates=True)``).

Cells are independent seeded runs and fan out across processes via
:func:`~repro.experiments.parallel.parallel_map`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..metrics.summary import oscillation_amplitude, relative_error, summarize
from .comparison_run import matched_threshold
from .configs import ExperimentConfig, SearchConfig, bench_config
from .dynamic_run import tail_start
from .parallel import parallel_map
from .runner import run_experiment
from .tournament import POLICY_NAMES, build_policy

__all__ = [
    "DEFAULT_FAMILIES",
    "FamilyCell",
    "FigureFamiliesResult",
    "run_figure_families",
]

#: Families compared by default: the paper's backbone and the Chord ring.
DEFAULT_FAMILIES: Tuple[str, ...] = ("superpeer", "chord")


@dataclass(frozen=True, slots=True)
class FamilyCell:
    """One (family, policy) run's reduced metrics (picklable payload)."""

    family: str
    policy: str
    tail_ratio_mean: float
    tail_ratio_error: float
    ratio_swing: float
    queries_issued: int
    query_success: float
    mean_query_messages: float
    mean_supers_visited: float
    n_supers: int


def _run_cell(spec) -> FamilyCell:
    """Worker: run one (family, policy) arm and score it.

    The spec is ``(cfg, policy_name, threshold)``; the policy object is
    built inside the worker from the tournament registry, so nothing
    unpicklable crosses the process boundary.
    """
    cfg, name, threshold = spec
    result = run_experiment(
        cfg, policy_factory=lambda c: build_policy(name, c, threshold)
    )
    # The harness is also the cross-family health check: the structural
    # invariants, the family's own (ring exactness for Chord), and the
    # O(1) aggregate mirrors vs a from-scratch scan must all hold at the
    # horizon for every policy.
    result.ctx.overlay.check_invariants(aggregates=True)
    result.ctx.family.check_invariants()
    ratio = result.series["ratio"]
    t0 = tail_start(cfg)
    tail = summarize(ratio, t_from=t0, t_to=cfg.horizon)
    stats = result.query_stats
    return FamilyCell(
        family=cfg.family,
        policy=name,
        tail_ratio_mean=tail.mean,
        tail_ratio_error=relative_error(tail.mean, cfg.eta),
        ratio_swing=oscillation_amplitude(ratio, t_from=t0, t_to=cfg.horizon),
        queries_issued=stats.issued,
        query_success=stats.success_rate,
        mean_query_messages=stats.mean_messages_per_query,
        mean_supers_visited=stats.mean_supers_visited,
        n_supers=result.overlay.n_super,
    )


@dataclass(frozen=True)
class FigureFamiliesResult:
    """Every (family, policy) cell, grouped by family."""

    cells: Tuple[FamilyCell, ...]
    eta_target: float
    families: Tuple[str, ...]

    def _cell(self, family: str, policy: str) -> FamilyCell:
        for c in self.cells:
            if c.family == family and c.policy == policy:
                return c
        raise KeyError(f"no cell for ({family!r}, {policy!r})")

    def check_shape(self) -> Dict[str, float]:
        """Family-(in)dependence metrics.

        Ratio tracking should be (nearly) family-independent for DLM;
        query cost should separate the families clearly.
        """
        shape: Dict[str, float] = {}
        for fam in self.families:
            dlm = self._cell(fam, "DLM")
            shape[f"{fam}_dlm_ratio_error"] = dlm.tail_ratio_error
            shape[f"{fam}_dlm_query_success"] = dlm.query_success
            shape[f"{fam}_dlm_query_messages"] = dlm.mean_query_messages
        if set(("superpeer", "chord")) <= set(self.families):
            flood = self._cell("superpeer", "DLM").mean_query_messages
            ring = self._cell("chord", "DLM").mean_query_messages
            shape["dlm_chord_vs_flood_message_ratio"] = ring / max(flood, 1e-9)
            shape["dlm_ratio_error_family_gap"] = abs(
                self._cell("superpeer", "DLM").tail_ratio_error
                - self._cell("chord", "DLM").tail_ratio_error
            )
        shape["cells"] = len(self.cells)
        return shape

    def render(self) -> str:
        """Fixed-width table, one block per family."""
        header = (
            f"{'policy':>20s} {'ratio':>8s} {'err%':>7s} {'swing':>7s} "
            f"{'supers':>7s} {'queries':>8s} {'succ%':>7s} {'msgs/q':>8s} "
            f"{'visits/q':>9s}"
        )
        lines = [
            "Overlay-family comparison -- ratio tracking and query cost "
            f"(target eta={self.eta_target:.0f})"
        ]
        for fam in self.families:
            lines.append(f"\n[{fam}]")
            lines.append(header)
            for c in self.cells:
                if c.family != fam:
                    continue
                lines.append(
                    f"{c.policy:>20s} {c.tail_ratio_mean:8.2f} "
                    f"{c.tail_ratio_error:7.2%} {c.ratio_swing:7.2f} "
                    f"{c.n_supers:7d} {c.queries_issued:8d} "
                    f"{c.query_success:7.2%} {c.mean_query_messages:8.1f} "
                    f"{c.mean_supers_visited:9.1f}"
                )
        return "\n".join(lines)


def run_figure_families(
    config: Optional[ExperimentConfig] = None,
    *,
    families: Sequence[str] = DEFAULT_FAMILIES,
    contenders: Sequence[str] = POLICY_NAMES,
    n_workers: Optional[int] = None,
) -> FigureFamiliesResult:
    """Run every (family, policy) arm over the same seeded workload.

    The search plane is enabled (with defaults when the config carries
    none) so the query-cost axis is populated; churn, capacities, and
    the query trace are identical across arms -- only the policy and
    the super-layer structure differ.
    """
    cfg = config if config is not None else bench_config()
    if cfg.search is None:
        cfg = cfg.with_(search=SearchConfig())
    unknown = set(contenders) - set(POLICY_NAMES)
    if unknown:
        raise ValueError(f"unknown policies: {sorted(unknown)}")
    threshold = matched_threshold(cfg.eta)
    specs = [
        (cfg.with_(name=f"{fam}/{name}", family=fam), name, threshold)
        for fam in families
        for name in contenders
    ]
    cells = parallel_map(_run_cell, specs, n_workers=n_workers)
    return FigureFamiliesResult(
        cells=tuple(cells), eta_target=cfg.eta, families=tuple(families)
    )
