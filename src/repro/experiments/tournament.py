"""Policy tournament: every layer-management strategy on one workload.

Runs DLM, the preconfigured threshold, the adaptive threshold,
capacity-blind random election, the global-knowledge oracle, and the
do-nothing control over the same churn trace, then scores them on the
paper's two goals -- ratio maintenance and electing strong, long-lived
super-peers -- plus the structural health of the resulting overlay.

The arms are independent runs over the *same* config and seed (only the
policy differs), so they fan across worker processes.  Policies are
named in a module-level registry (:data:`POLICY_NAMES`) rather than
passed as closures, so an arm spec stays picklable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..analysis import analyze_ratio_convergence
from ..baselines import (
    AdaptiveThresholdPolicy,
    OraclePolicy,
    PreconfiguredPolicy,
    RandomElectionPolicy,
    StaticPolicy,
)
from ..core.dlm import DLMPolicy
from ..util.tables import render_table
from .comparison_run import matched_threshold
from .configs import ExperimentConfig, bench_config
from .parallel import parallel_map
from .runner import run_experiment

__all__ = [
    "POLICY_NAMES",
    "TournamentRow",
    "TournamentResult",
    "build_policy",
    "run_tournament",
]


def build_policy(name: str, cfg: ExperimentConfig, threshold: float):
    """Construct the named contender policy for ``cfg``.

    ``threshold`` is the capacity threshold matched to ``cfg.eta`` (the
    preconfigured/adaptive baselines start from it).
    """
    if name == "DLM":
        return DLMPolicy(cfg.dlm_config())
    if name == "preconfigured":
        return PreconfiguredPolicy(threshold)
    if name == "adaptive threshold":
        return AdaptiveThresholdPolicy(eta=cfg.eta, initial_threshold=threshold)
    if name == "random election":
        return RandomElectionPolicy(eta=cfg.eta)
    if name == "oracle":
        return OraclePolicy(eta=cfg.eta, interval=20.0)
    if name == "static (none)":
        return StaticPolicy()
    raise ValueError(f"unknown policy {name!r}; choose from {POLICY_NAMES}")


#: Registry of contender names ``run_tournament`` accepts, default order.
POLICY_NAMES: Tuple[str, ...] = (
    "DLM",
    "preconfigured",
    "adaptive threshold",
    "random election",
    "oracle",
    "static (none)",
)


@dataclass(frozen=True, slots=True)
class TournamentRow:
    """One contender's scores (picklable worker payload)."""

    policy: str
    tail_ratio: float
    tail_error: float
    age_separation: float
    capacity_separation: float
    backbone_connectivity: float


@dataclass(frozen=True)
class TournamentResult:
    """All contenders' scores, in contender order."""

    rows: List[TournamentRow]
    eta_target: float

    def render(self) -> str:
        """ASCII tournament table."""
        return render_table(
            [
                "policy",
                "tail ratio",
                "ratio error",
                "age sep.",
                "capacity sep.",
                "backbone conn.",
            ],
            [
                (
                    r.policy,
                    r.tail_ratio,
                    r.tail_error,
                    r.age_separation,
                    r.capacity_separation,
                    r.backbone_connectivity,
                )
                for r in self.rows
            ],
            title=f"Layer-management tournament (target eta={self.eta_target:.0f})",
        )


def _run_arm(spec) -> TournamentRow:
    """Worker: run one contender and score it.

    The spec is ``(cfg, name, threshold)``; the policy object is built
    inside the worker from the registry name, so nothing unpicklable
    crosses the process boundary in either direction.
    """
    cfg, name, threshold = spec
    result = run_experiment(
        cfg, policy_factory=lambda c: build_policy(name, c, threshold)
    )
    from ..analysis import backbone_connectivity  # lazy: pulls in networkx

    series = result.series
    conv = analyze_ratio_convergence(series["ratio"], cfg.eta)
    age_sep = series["super_mean_age"].tail_mean() / max(
        series["leaf_mean_age"].tail_mean(), 1e-9
    )
    cap_sep = series["super_mean_capacity"].tail_mean() / max(
        series["leaf_mean_capacity"].tail_mean(), 1e-9
    )
    return TournamentRow(
        policy=name,
        tail_ratio=conv.tail_mean,
        tail_error=conv.tail_error,
        age_separation=age_sep,
        capacity_separation=cap_sep,
        backbone_connectivity=backbone_connectivity(result.overlay),
    )


def run_tournament(
    config: ExperimentConfig | None = None,
    *,
    contenders: Sequence[str] = POLICY_NAMES,
    n_workers: int | None = None,
) -> TournamentResult:
    """Run every contender over the same seeded workload and score it.

    Arms fan across processes (``n_workers`` / ``REPRO_WORKERS``; see
    :mod:`.parallel`); rows keep ``contenders`` order.
    """
    cfg = config if config is not None else bench_config()
    unknown = set(contenders) - set(POLICY_NAMES)
    if unknown:
        raise ValueError(f"unknown policies: {sorted(unknown)}")
    threshold = matched_threshold(cfg.eta)
    specs = [(cfg, name, threshold) for name in contenders]
    rows = parallel_map(_run_arm, specs, n_workers=n_workers)
    return TournamentResult(rows=rows, eta_target=cfg.eta)
