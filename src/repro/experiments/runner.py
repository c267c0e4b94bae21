"""The experiment runner: composition root for one simulated run.

Wires a full system -- engine, overlay, churn, layer policy, samplers,
optional search plane -- from an :class:`ExperimentConfig` and returns a
:class:`RunResult` with every recorded artifact.  Executing it is the
barrier loop's job (:mod:`repro.experiments.sharded`), for one system
and for K shards alike.  All figure/table harnesses and examples run
through here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..churn.distributions import (
    BandwidthMixture,
    LogNormalDistribution,
    ScalableDistribution,
)
from ..churn.lifecycle import ChurnDriver
from ..churn.scenarios import Scenario
from ..context import SystemContext, build_context
from ..core.dlm import DLMPolicy
from ..core.policy import LayerPolicy
from ..health.plane import HealthMonitor
from ..metrics.layerstats import LayerStatsSampler
from ..metrics.timeseries import SeriesBundle
from ..search.content import ContentCatalog
from ..search.index import ContentDirectory
from ..search.workload import QueryWorkload
from ..sim.processes import PeriodicProcess
from ..telemetry import (
    TelemetryConfig,
    attach_transport_trace,
    bind_standard_producers,
    export_run,  # noqa: F401 -- bench/trace.py patches it here by name
    telemetry_from_config,
)
from .checkpoint import restore_run_state
from .configs import ExperimentConfig

__all__ = ["RunResult", "run_experiment", "default_policy_factory"]

PolicyFactory = Callable[[ExperimentConfig], LayerPolicy]


@dataclass
class RunResult:
    """Everything one run produced."""

    config: ExperimentConfig
    ctx: SystemContext
    policy: LayerPolicy
    driver: ChurnDriver
    series: SeriesBundle
    sampler: LayerStatsSampler = None  # set by run_experiment
    maintenance_process: PeriodicProcess = None  # set by run_experiment
    workload: Optional[QueryWorkload] = None
    directory: Optional[ContentDirectory] = None
    health_monitor: Optional["HealthMonitor"] = None
    #: Checkpoints the run loop wrote at its barriers.
    checkpoint_writes: int = 0

    @property
    def overlay(self):
        """The final overlay state."""
        return self.ctx.overlay

    @property
    def query_stats(self):
        """Cumulative query snapshot (None without a search plane)."""
        return self.workload.stats.snapshot if self.workload else None

    @property
    def telemetry(self):
        """The run's telemetry plane (NULL_TELEMETRY when disabled)."""
        return self.ctx.telemetry


def default_policy_factory(config: ExperimentConfig) -> LayerPolicy:
    """DLM with the experiment's η/m/k_s (and any explicit overrides)."""
    return DLMPolicy(config.dlm_config())


def build_distributions(
    config: ExperimentConfig,
) -> tuple[ScalableDistribution, ScalableDistribution]:
    """Fresh (lifetime, capacity) distributions for one run."""
    lifetimes = LogNormalDistribution(
        median=config.lifetime_median, sigma=config.lifetime_sigma
    )
    capacities = BandwidthMixture()
    return lifetimes, capacities


def run_experiment(
    config: ExperimentConfig,
    *,
    policy_factory: PolicyFactory = default_policy_factory,
    scenario: Optional[Scenario] = None,
    run: bool = True,
    resume_from: Optional[dict] = None,
    fresh_rng_domain: Optional[int] = None,
    populate: bool = True,
) -> "RunResult":
    """Wire and (by default) execute one run to ``config.horizon``.

    Execution is the barrier loop's (:func:`repro.experiments.sharded
    .execute`): it wires ``config.shards`` systems through this function
    with ``run=False`` and drives them to the horizon.  K = 1 is its
    one-shard case and returns that system's :class:`RunResult`; K > 1
    returns a :class:`~repro.experiments.sharded.ShardedRunResult` --
    same ``config``/``series`` surface, no single ``ctx``.

    With ``run=False`` the caller receives the fully wired system before
    any event fires -- used by tests and harnesses that single-step.

    ``resume_from`` takes ``{"state": capture_run_state(...)}``: the
    system is wired exactly as for a fresh run -- which re-derives all
    listeners, handlers, and process tokens -- then the captured state
    replaces the fresh state before the run continues.
    ``fresh_rng_domain`` (warm-start forks) keeps the captured RNG
    streams *out*: the wired system draws from the given RNG domain
    instead, so forked futures are independent of the prefix's draws.

    ``populate=False`` wires without seeding the population: the loop's
    resume path, which restores captured state *after* attaching a
    shard's mailbox processes so their wiring order (and hence process
    tokens) matches a fresh run.
    """
    if config.shards > 1 and (
        not run or resume_from is not None or fresh_rng_domain is not None
    ):
        raise ValueError(
            "run=False, resume_from and warm-start forks wire one system; "
            "a sharded config (shards > 1) only runs through the loop "
            "(resume it from its checkpoint with resume_run)"
        )
    if run:
        from .sharded import execute

        if resume_from is None:
            return execute(config, policy_factory, scenario)
        state = resume_from["state"]
        return execute(
            config,
            policy_factory,
            scenario,
            t_start=state["sim"]["clock"],
            states=[{"run": state}],
            fresh_rng_domain=fresh_rng_domain,
        )
    telemetry_cfg = config.telemetry
    if telemetry_cfg is None and config.health is not None:
        # The health plane observes *through* telemetry: detectors need
        # the record log and registry, so enabling health without an
        # explicit TelemetryConfig wires the default one.
        telemetry_cfg = TelemetryConfig()
    telemetry = telemetry_from_config(telemetry_cfg)
    wire_span = telemetry.span("run.wire")
    wire_span.__enter__()
    ctx = build_context(
        seed=config.seed,
        m=config.m,
        k_s=config.k_s,
        faults=config.faults,
        rng_domain=fresh_rng_domain if fresh_rng_domain is not None else 0,
        telemetry=telemetry,
        family=config.family,
    )
    policy = policy_factory(config)
    policy.bind(ctx)
    attach_transport_trace(telemetry, ctx.info)

    maintenance_process = PeriodicProcess(
        ctx.sim,
        config.maintenance_interval,
        lambda sim, now: ctx.maintenance.sweep(),
        kind="maintenance_sweep",
    )

    lifetimes, capacities = build_distributions(config)
    driver = ChurnDriver(
        ctx, policy, lifetimes, capacities, replacement=True, scenario=scenario
    )
    wire_span.__exit__(None, None, None)
    if resume_from is None and populate:
        with telemetry.span("run.populate"):
            driver.populate(config.n, warmup=config.warmup)

    sampler = LayerStatsSampler(
        ctx.sim,
        ctx.overlay,
        interval=config.sample_interval,
        start=config.sample_interval,
    )

    workload = None
    directory = None
    if config.search is not None:
        sc = config.search
        catalog = ContentCatalog(n_objects=sc.n_objects, s=sc.zipf_s)
        directory = ContentDirectory(
            ctx.overlay,
            catalog,
            ctx.sim.rng.get("content"),
            files_per_peer=sc.files_per_peer,
        )
        router = ctx.family.build_router(directory, sc, ledger=ctx.messages)
        workload = QueryWorkload(
            ctx.sim, ctx.overlay, catalog, router, rate=sc.query_rate
        )
    bind_standard_producers(
        telemetry, ctx, driver=driver, policy=policy, workload=workload
    )

    health_monitor = None
    if config.health is not None:
        health_monitor = HealthMonitor(
            config.health,
            telemetry=telemetry,
            ctx=ctx,
            policy=policy,
            run_config=config,
        ).attach(sampler)

    result = RunResult(
        config=config,
        ctx=ctx,
        policy=policy,
        driver=driver,
        series=sampler.bundle,
        sampler=sampler,
        maintenance_process=maintenance_process,
        workload=workload,
        directory=directory,
        health_monitor=health_monitor,
    )

    if resume_from is not None:
        restore_run_state(
            result, resume_from["state"], restore_rng=fresh_rng_domain is None
        )
    return result
