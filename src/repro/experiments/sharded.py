"""The sharded engine: conservative parallel execution of one run.

``ExperimentConfig.shards = K > 1`` turns a run into a federation of K
*logical shards*.  Each shard is a complete sub-system -- its own
calendar-wheel :class:`~repro.sim.scheduler.Simulator`, named RNG
streams rooted at :func:`~repro.sim.shard.shard_seed`, its own columnar
peer-store slice, churn driver, DLM policy, and sampler -- built by the
same composition root as a classic run (:func:`run_experiment` with
``run=False``).  Shards interact only through the timestamped mailbox
protocol of :mod:`repro.sim.shard`: a periodic ring gossip carries each
shard's layer-aggregate summary to its successor over the shard-link
latency model, and every delivery is merged deterministically by the
``(arrival, origin_shard, origin_seq)`` total order.

Execution is windowed conservative PDES.  The lookahead window is the
link model's exact ``min_delay()``; shards advance window by window and
exchange mailboxes at each barrier, which the module docstring of
:mod:`repro.sim.shard` proves is always in time.  The window loop runs
either serially in-process or across long-lived worker processes
(``--workers`` / ``REPRO_WORKERS``); by construction the two layouts
are **bit-identical** -- every shard's trajectory is a pure function of
``(config, shard index, scenario, merged inboxes)`` and the merge key
erases worker scheduling -- which is the parity discipline the tests
and the CI smoke job gate on.  The logical shard count K, by contrast,
is a *model* parameter like ``seed``: K = 1 is exactly the classic
engine (the runner never even dispatches here), and different K are
different (equally valid) trajectories of the same experiment, so K
participates in the checkpoint config hash.

Global metrics come from exact reduction, not averaging: each shard
logs its raw big-int aggregate rows per sample tick
(:class:`~repro.metrics.shardstats.ShardSampleLog`) and the parent sums
them with :func:`~repro.metrics.shardstats.reduce_sample_logs`, so the
reduced layer series are bit-equal to a single sampler scanning the
union population, regardless of worker layout or reduction order.

Checkpoints (schema v6) are written only at window barriers, after
routing *and* delivery: in-flight messages are then already scheduled
in their destination shard's queue, so the canonical file is just the
K per-shard states plus the envelope -- and a resume is free to use
any worker count.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import time
import traceback
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..churn.scenarios import Scenario
from ..metrics.shardstats import ShardSampleLog, reduce_sample_logs
from ..metrics.timeseries import SeriesBundle
from ..sim.events import Event, EventKind
from ..sim.processes import PeriodicProcess
from ..sim.scheduler import Simulator
from ..sim.shard import (
    ShardContext,
    ShardMessage,
    partition_counts,
    shard_seed,
)
from ..telemetry import WindowProgress, export_run
from ..telemetry.export import write_sharded_chrome_trace
from .checkpoint import (
    CheckpointError,
    capture_run_state,
    restore_run_state,
    write_checkpoint,
)
from .configs import ExperimentConfig

__all__ = [
    "GOSSIP_INTERVAL",
    "ShardRun",
    "ShardPlaneStats",
    "ShardedRunResult",
    "run_sharded_experiment",
    "resume_sharded_run",
]

#: Simulated-time period of the ring gossip each shard sends its
#: successor.  A model constant (it shapes the trajectory), not a knob.
GOSSIP_INTERVAL = 5.0


def _suffix_path(path: Optional[str], index: int) -> Optional[str]:
    return None if path is None else f"{path}.shard{index}"


def shard_config(config: ExperimentConfig, index: int) -> ExperimentConfig:
    """The sub-config shard ``index`` of ``config`` is wired from.

    A shard is a classic single-engine run over its population slice:
    ``shards`` collapses to 1 (the composition root must not recurse),
    the seed is the shard's derived root, checkpointing moves up to the
    plane (barrier-aligned, one canonical file), and telemetry export
    paths get a per-shard suffix so K exporters never collide.
    """
    sizes = partition_counts(config.n, config.shards)
    telemetry = config.telemetry
    if telemetry is not None:
        telemetry = dataclasses.replace(
            telemetry,
            jsonl_path=_suffix_path(telemetry.jsonl_path, index),
            chrome_trace_path=_suffix_path(telemetry.chrome_trace_path, index),
            # K interleaved stderr reporters are noise; the plane's
            # barrier loop reduces to run-level WindowProgress lines.
            progress_every=None,
        )
    health = config.health
    if health is not None and health.flight_path is not None:
        # K flight recorders must never clobber one shared bundle path.
        health = dataclasses.replace(
            health, flight_path=_suffix_path(health.flight_path, index)
        )
    return config.with_(
        name=f"{config.name}.s{index}",
        n=sizes[index],
        seed=shard_seed(config.seed, index),
        shards=1,
        shard_link_latency=None,
        checkpoint_every=None,
        checkpoint_path=None,
        telemetry=telemetry,
        health=health,
    )


class ShardRun:
    """One logical shard: a full sub-system plus its mailbox endpoint.

    Wiring order is part of the determinism contract: the classic
    composition root runs first (assigning the same process tokens as
    any classic run), then the shard plane attaches its gossip process
    and sample listeners.  The resume path wires identically (with
    ``populate=False``) and only then restores captured state, so
    process tokens and handler registrations always line up.
    """

    def __init__(
        self,
        config: ExperimentConfig,
        index: int,
        *,
        policy_factory=None,
        scenario: Optional[Scenario] = None,
        populate: bool = True,
    ) -> None:
        from .runner import default_policy_factory, run_experiment

        self.index = index
        self.nshards = config.shards
        self.link = config.shard_link_model()
        lookahead = self.link.min_delay()
        sub = shard_config(config, index)
        self.result = run_experiment(
            sub,
            policy_factory=policy_factory or default_policy_factory,
            scenario=scenario,
            run=False,
            populate=populate,
        )
        sim = self.result.ctx.sim
        self.shard = ShardContext(sim, index, config.shards, lookahead)
        self._link_rng = sim.rng.get("shard-link")
        #: Last population each shard reported (own entry kept live).
        self.view: List[int] = [0] * config.shards
        self.busy_wall = 0.0
        self.telemetry = self.result.ctx.telemetry
        if self.telemetry.enabled:
            reg = self.telemetry.registry
            reg.gauge("shard.index").set(index)
            reg.gauge("shard.count").set(config.shards)
            reg.gauge("shard.window_width").set(lookahead)
            self._m_rounds = reg.counter("shard.sync_rounds")
            self._m_sent = reg.counter("shard.messages_sent")
            self._m_received = reg.counter("shard.messages_received")
            self._idle_gauge = reg.gauge("shard.idle_fraction")
        else:
            self._m_rounds = self._m_sent = None
            self._m_received = self._idle_gauge = None
        sim.on(EventKind.SHARD_DELIVER, self._on_deliver)
        self.gossip_process = PeriodicProcess(
            sim,
            GOSSIP_INTERVAL,
            self._gossip,
            start=GOSSIP_INTERVAL,
            kind=EventKind.SHARD_GOSSIP,
        )
        self.sample_log = ShardSampleLog()
        self.result.sampler.add_sample_listener(self.sample_log.observe)
        self.result.sampler.add_sample_listener(self._record_view)

    # -- the cross-shard workload -------------------------------------------
    def _gossip(self, sim: Simulator, now: float) -> None:
        """Send this shard's aggregate summary to its ring successor."""
        agg = self.result.ctx.overlay.aggregates
        self.view[self.index] = agg.n
        dest = (self.index + 1) % self.nshards
        delay = self.link.sample_one(self._link_rng)
        self.shard.send(
            dest, delay, {"n": agg.n, "n_super": agg.super_layer.count}
        )

    def _on_deliver(self, sim: Simulator, event: Event) -> None:
        payload = event.payload
        self.view[payload["origin"]] = payload["data"]["n"]

    def _record_view(self, now: float, agg) -> None:
        # The gossip-built global view, recorded as a per-shard series:
        # this is the user-visible metric through which mailbox merge
        # determinism is observable (and therefore testable).
        self.view[self.index] = agg.n
        self.result.series.record("shard_known_n", now, float(sum(self.view)))

    # -- window execution ----------------------------------------------------
    def advance(self, until: float) -> int:
        """Execute one window; returns events delivered."""
        t0 = time.perf_counter()
        events = self.shard.advance(until)
        self.busy_wall += time.perf_counter() - t0
        if self._m_rounds is not None:
            self._m_rounds.inc()
        return events

    def drain(self) -> List[ShardMessage]:
        """The window's outbound messages (clears the outbox)."""
        out = self.shard.drain_outbox()
        if self._m_sent is not None and out:
            self._m_sent.inc(len(out))
        return out

    def deliver(self, inbox: Sequence[ShardMessage]) -> int:
        """Merge and schedule a barrier's inbound messages."""
        count = self.shard.deliver(inbox)
        if self._m_received is not None and count:
            self._m_received.inc(count)
        return count

    # -- checkpoint state ----------------------------------------------------
    def snapshot_state(self) -> Dict[str, Any]:
        """This shard's complete barrier state, as plain data."""
        return {
            "run": capture_run_state(self.result),
            "shard": self.shard.snapshot(),
            "gossip_process": self.gossip_process.snapshot(),
            "view": list(self.view),
            "sample_log": self.sample_log.snapshot(),
        }

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Adopt captured state into this freshly wired (unpopulated) shard."""
        restore_run_state(self.result, state["run"])
        self.shard.restore(state["shard"])
        self.gossip_process.restore(
            state["gossip_process"], self.result.ctx.sim
        )
        self.view = list(state["view"])
        self.sample_log.restore(state["sample_log"])

    # -- completion ----------------------------------------------------------
    def finish_payload(self, wall_time: float) -> Dict[str, Any]:
        """Reduced, picklable final artifacts (also exports telemetry)."""
        result = self.result
        agg = result.ctx.overlay.aggregates
        idle = 0.0
        if wall_time > 0:
            idle = max(0.0, 1.0 - self.busy_wall / wall_time)
        spans = None
        if self.telemetry.enabled:
            self._idle_gauge.set(idle)
            export_run(result)
            spans = list(self.telemetry.spans.intervals())
        return {
            "index": self.index,
            "series": result.series.snapshot(),
            "sample_log": self.sample_log.snapshot(),
            "joins": result.driver.joins,
            "deaths": result.driver.deaths,
            "events": result.ctx.sim.events_processed,
            "n_super": agg.super_layer.count,
            "n_leaf": agg.leaf_layer.count,
            "sent": self.shard.sent,
            "received": self.shard.received,
            "sync_rounds": self.shard.sync_rounds,
            "busy_wall": self.busy_wall,
            "idle_fraction": idle,
            "spans": spans,
        }


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardPlaneStats:
    """Execution statistics of the shard plane."""

    shards: int
    workers: int
    window: float
    sync_rounds: int
    cross_messages: int
    events_processed: int
    busy_wall: tuple
    idle_fraction: tuple
    wall_time: float


@dataclass
class ShardedRunResult:
    """Everything a sharded run produced.

    Intentionally shaped like :class:`~repro.experiments.runner
    .RunResult` where downstream harnesses look -- ``config`` and the
    global ``series`` -- while being honest that there is no single
    ``ctx``: per-shard series ride along, and the plane's execution
    stats replace the single-simulator counters.
    """

    config: ExperimentConfig
    series: SeriesBundle
    shard_series: List[SeriesBundle]
    stats: ShardPlaneStats
    joins: int
    deaths: int
    n_super: int
    n_leaf: int
    policy_name: str
    checkpoint_writes: int = 0

    @property
    def n(self) -> int:
        """Final global population."""
        return self.n_super + self.n_leaf

    @property
    def query_stats(self):
        """None: the search plane samples per shard, not globally."""
        return None


# ---------------------------------------------------------------------------
# Executors: the same barrier protocol, in-process or across processes
# ---------------------------------------------------------------------------


def _route(messages: Sequence[ShardMessage], nshards: int) -> List[List[ShardMessage]]:
    inboxes: List[List[ShardMessage]] = [[] for _ in range(nshards)]
    for msg in messages:
        inboxes[msg.dest].append(msg)
    return inboxes


class _SerialExecutor:
    """All K shards in this process; the reference executor."""

    def __init__(self, config, policy_factory, scenario, resume_states) -> None:
        populate = resume_states is None
        self.runs = [
            ShardRun(
                config,
                k,
                policy_factory=policy_factory,
                scenario=scenario,
                populate=populate,
            )
            for k in range(config.shards)
        ]
        if resume_states is not None:
            for run, state in zip(self.runs, resume_states):
                run.restore_state(state)
        self.policy_name = self.runs[0].result.policy.name

    def advance(self, t_end: float) -> tuple:
        outgoing: List[ShardMessage] = []
        events = 0
        for run in self.runs:
            events += run.advance(t_end)
            outgoing.extend(run.drain())
        return outgoing, events

    def deliver(self, inboxes: List[List[ShardMessage]]) -> None:
        for run in self.runs:
            run.deliver(inboxes[run.index])

    def capture(self) -> List[dict]:
        return [run.snapshot_state() for run in self.runs]

    def finish(self, wall: float) -> List[dict]:
        return [run.finish_payload(wall) for run in self.runs]

    def close(self) -> None:
        pass


def _shard_worker(conn, config, policy_factory, scenario, shard_ids, states):
    """Worker-process main loop: build assigned shards, serve barriers.

    Everything a worker needs is a pure function of its arguments, and
    everything it returns crosses the pipe as plain data -- the same
    contract as :mod:`repro.experiments.parallel`.
    """
    try:
        runs = {
            k: ShardRun(
                config,
                k,
                policy_factory=policy_factory,
                scenario=scenario,
                populate=states is None,
            )
            for k in shard_ids
        }
        if states is not None:
            for k in shard_ids:
                runs[k].restore_state(states[k])
        conn.send(("ready", runs[shard_ids[0]].result.policy.name))
        while True:
            msg = conn.recv()
            op = msg[0]
            if op == "advance":
                outgoing: List[ShardMessage] = []
                events = 0
                for k in shard_ids:
                    events += runs[k].advance(msg[1])
                    outgoing.extend(runs[k].drain())
                conn.send(("ok", outgoing, events))
            elif op == "deliver":
                for k in shard_ids:
                    runs[k].deliver(msg[1][k])
            elif op == "capture":
                conn.send(
                    ("ok", {k: runs[k].snapshot_state() for k in shard_ids})
                )
            elif op == "finish":
                conn.send(
                    ("ok", {k: runs[k].finish_payload(msg[1]) for k in shard_ids})
                )
            elif op == "stop":
                return
            else:  # pragma: no cover - protocol bug guard
                raise RuntimeError(f"unknown shard-worker op {op!r}")
    except BaseException:  # noqa: BLE001 - report, then die
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:  # pragma: no cover - parent already gone
            pass


class _ProcessExecutor:
    """K shards spread round-robin over long-lived worker processes."""

    def __init__(
        self, config, policy_factory, scenario, resume_states, workers, mp_ctx
    ) -> None:
        nshards = config.shards
        self.assignments = [
            list(range(w, nshards, workers)) for w in range(workers)
        ]
        self.conns = []
        self.procs = []
        for ids in self.assignments:
            parent_conn, child_conn = mp_ctx.Pipe()
            states = (
                None
                if resume_states is None
                else {k: resume_states[k] for k in ids}
            )
            proc = mp_ctx.Process(
                target=_shard_worker,
                args=(child_conn, config, policy_factory, scenario, ids, states),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self.conns.append(parent_conn)
            self.procs.append(proc)
        self.policy_name = ""
        for conn in self.conns:
            self.policy_name = self._recv(conn)[1]

    def _recv(self, conn):
        try:
            msg = conn.recv()
        except EOFError:
            self.close()
            raise RuntimeError(
                "a shard worker died without reporting an error"
            ) from None
        if msg[0] == "error":
            self.close()
            raise RuntimeError(f"shard worker failed:\n{msg[1]}")
        return msg

    def advance(self, t_end: float) -> tuple:
        for conn in self.conns:
            conn.send(("advance", t_end))
        outgoing: List[ShardMessage] = []
        events = 0
        for conn in self.conns:
            msg = self._recv(conn)
            outgoing.extend(msg[1])
            events += msg[2]
        return outgoing, events

    def deliver(self, inboxes: List[List[ShardMessage]]) -> None:
        # No ack: the pipe is ordered, so the next command finds the
        # delivery already applied.
        for ids, conn in zip(self.assignments, self.conns):
            conn.send(("deliver", {k: inboxes[k] for k in ids}))

    def capture(self) -> List[dict]:
        for conn in self.conns:
            conn.send(("capture",))
        states: Dict[int, dict] = {}
        for conn in self.conns:
            states.update(self._recv(conn)[1])
        return [states[k] for k in sorted(states)]

    def finish(self, wall: float) -> List[dict]:
        for conn in self.conns:
            conn.send(("finish", wall))
        payloads: Dict[int, dict] = {}
        for conn in self.conns:
            payloads.update(self._recv(conn)[1])
        return [payloads[k] for k in sorted(payloads)]

    def close(self) -> None:
        for conn in self.conns:
            try:
                conn.send(("stop",))
            except (OSError, BrokenPipeError):
                pass
        for proc in self.procs:
            proc.join(timeout=30)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
        for conn in self.conns:
            conn.close()


# ---------------------------------------------------------------------------
# The window loop
# ---------------------------------------------------------------------------


def _resolve_shard_workers(requested: Optional[int], nshards: int) -> int:
    from .parallel import resolve_workers

    return max(1, min(resolve_workers(requested), nshards))


def _execute(
    config: ExperimentConfig,
    policy_factory,
    scenario: Optional[Scenario],
    *,
    workers: Optional[int],
    t_start: float,
    resume_states: Optional[List[dict]],
) -> ShardedRunResult:
    nshards = config.shards
    window = config.shard_link_model().min_delay()
    n_workers = _resolve_shard_workers(workers, nshards)
    mp_ctx = None
    if n_workers > 1:
        try:
            mp_ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platform
            n_workers = 1

    wall0 = time.perf_counter()
    if n_workers > 1:
        executor = _ProcessExecutor(
            config, policy_factory, scenario, resume_states, n_workers, mp_ctx
        )
    else:
        executor = _SerialExecutor(
            config, policy_factory, scenario, resume_states
        )

    checkpoint_writes = 0
    next_due = (
        None
        if config.checkpoint_every is None
        else t_start + config.checkpoint_every
    )
    progress = None
    if (
        config.telemetry is not None
        and config.telemetry.progress_every is not None
    ):
        # Per-shard reporters are suppressed in shard_config(); the
        # barrier loop reduces to one run-level line instead.
        progress = WindowProgress(
            horizon=config.horizon,
            every=config.telemetry.progress_every,
            label=config.name,
        )
    total_events = 0
    try:
        # The barrier grid is i * window from t = 0; config validation
        # guarantees the horizon is a grid point, and a resume starts
        # from the barrier recorded in the checkpoint header.
        first_step = round(t_start / window) + 1
        last_step = round(config.horizon / window)
        for i in range(first_step, last_step + 1):
            t_end = i * window
            outgoing, events = executor.advance(t_end)
            total_events += events
            executor.deliver(_route(outgoing, nshards))
            if progress is not None:
                progress.update(t_end, total_events)
            if next_due is not None and t_end >= next_due - 1e-12:
                write_checkpoint(
                    config.checkpoint_path,
                    config,
                    scenario,
                    policy=executor.policy_name,
                    time=t_end,
                    shard_states=executor.capture(),
                )
                checkpoint_writes += 1
                while next_due <= t_end + 1e-12:
                    next_due += config.checkpoint_every
        wall = time.perf_counter() - wall0
        payloads = executor.finish(wall)
    finally:
        executor.close()

    series = reduce_sample_logs([p["sample_log"] for p in payloads])
    shard_series = []
    for p in payloads:
        bundle = SeriesBundle()
        bundle.restore(p["series"])
        shard_series.append(bundle)
    stats = ShardPlaneStats(
        shards=nshards,
        workers=n_workers,
        window=window,
        sync_rounds=payloads[0]["sync_rounds"],
        cross_messages=sum(p["sent"] for p in payloads),
        events_processed=sum(p["events"] for p in payloads),
        busy_wall=tuple(p["busy_wall"] for p in payloads),
        idle_fraction=tuple(p["idle_fraction"] for p in payloads),
        wall_time=wall,
    )
    if config.telemetry is not None and config.telemetry.chrome_trace_path:
        lanes = {
            p["index"]: p["spans"]
            for p in payloads
            if p["spans"] is not None
        }
        if lanes:
            write_sharded_chrome_trace(
                config.telemetry.chrome_trace_path, lanes
            )
    if config.telemetry is not None and config.telemetry.jsonl_path:
        # The run-level stream: per-shard exports merged by the
        # (t, shard, seq) total order, so every read-back CLI sees a
        # sharded run exactly like a classic one.
        from ..health.aggregate import write_merged_run

        write_merged_run(
            config.telemetry.jsonl_path,
            [
                _suffix_path(config.telemetry.jsonl_path, k)
                for k in range(nshards)
            ],
            header_overrides={
                "name": config.name,
                "n": config.n,
                "seed": config.seed,
                "shards": config.shards,
            },
        )
    return ShardedRunResult(
        config=config,
        series=series,
        shard_series=shard_series,
        stats=stats,
        joins=sum(p["joins"] for p in payloads),
        deaths=sum(p["deaths"] for p in payloads),
        n_super=sum(p["n_super"] for p in payloads),
        n_leaf=sum(p["n_leaf"] for p in payloads),
        policy_name=executor.policy_name,
        checkpoint_writes=checkpoint_writes,
    )


def run_sharded_experiment(
    config: ExperimentConfig,
    *,
    policy_factory=None,
    scenario: Optional[Scenario] = None,
    workers: Optional[int] = None,
) -> ShardedRunResult:
    """Execute a ``shards > 1`` config to its horizon.

    ``workers`` is execution-only (default: ``REPRO_WORKERS`` / CPU
    count, capped at the shard count); any value yields bit-identical
    results.  Reached through :func:`~repro.experiments.runner
    .run_experiment`'s dispatch, or directly.
    """
    if config.shards < 2:
        raise ValueError(
            "run_sharded_experiment needs shards >= 2; a single-shard "
            "run is the classic engine (run_experiment)"
        )
    if config.checkpoint_every is not None and config.checkpoint_path is None:
        raise ValueError("checkpoint_every requires checkpoint_path")
    from .runner import default_policy_factory

    return _execute(
        config,
        policy_factory or default_policy_factory,
        scenario,
        workers=workers,
        t_start=0.0,
        resume_states=None,
    )


def resume_sharded_run(
    payload: dict,
    config: ExperimentConfig,
    *,
    policy_factory=None,
    workers: Optional[int] = None,
) -> ShardedRunResult:
    """Continue a sharded checkpoint payload to ``config.horizon``.

    The worker count is free to differ from the writing run's -- shard
    states are worker-agnostic by construction.  Called by
    :func:`~repro.experiments.checkpoint.resume_run` after envelope
    validation.
    """
    states = payload.get("shard_states")
    if not isinstance(states, list):
        raise CheckpointError("checkpoint has no shard_states list")
    if len(states) != config.shards:
        raise CheckpointError(
            f"checkpoint holds {len(states)} shard states but the config "
            f"declares shards={config.shards}"
        )
    header = payload["header"]
    if header.get("shards") != config.shards:
        raise CheckpointError(
            f"checkpoint header records shards={header.get('shards')} but "
            f"the config declares shards={config.shards}"
        )
    from .runner import default_policy_factory

    return _execute(
        config,
        policy_factory or default_policy_factory,
        payload.get("scenario"),
        workers=workers,
        t_start=header["time"],
        resume_states=states,
    )
