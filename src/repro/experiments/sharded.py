"""The run loop: every run executes here, one system or K shards.

``run_experiment(config)`` wires ``K = config.shards`` systems and
drives them through one barrier loop (:func:`execute`), which also owns
checkpoints (written at barriers, after routing *and* delivery, so no
message is in transit), run-level progress, every shard's crash bundle
when a window raises, and the telemetry export.  K = 1 is its one-shard
case: ``shard_config(config, 0)`` is ``config`` itself, there is no
mailbox, the result is the system's :class:`~repro.experiments.runner
.RunResult`, and its barriers (the sample grid) only pause the simulator
between events, which cannot move the trajectory.

K > 1 is a federation of *logical shards*, each a complete sub-system
(scheduler, RNG streams rooted at :func:`~repro.sim.shard.shard_seed`,
peer-store slice, churn driver, policy, sampler) built by the same
composition root.  Shards interact only through the timestamped mailbox
of :mod:`repro.sim.shard`: a ring gossip carries each shard's aggregate
summary to its successor over the shard-link latency model, merged by
the ``(arrival, origin_shard, origin_seq)`` total order.  Execution is
conservative PDES with the link model's exact ``min_delay()`` as the
window, serially in-process or across worker processes (``--workers``);
the two layouts are **bit-identical** by construction, while K itself
is a *model* parameter in the checkpoint config hash.  Global series
come from exact big-int reduction of each shard's per-tick aggregate
rows (:func:`~repro.metrics.shardstats.reduce_sample_logs`), bit-equal
to one sampler over the union population.
"""

from __future__ import annotations

import dataclasses
import math
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
from .runner import RunResult, default_policy_factory, run_experiment

__all__ = [
    "GOSSIP_INTERVAL",
    "SystemRun",
    "ShardRun",
    "ShardPlaneStats",
    "ShardedRunResult",
    "ShardWorkerError",
    "execute",
    "run_sharded_experiment",
]

#: Simulated-time period of the ring gossip each shard sends its
#: successor.  A model constant (it shapes the trajectory), not a knob.
GOSSIP_INTERVAL = 5.0


def _suffix_path(path: Optional[str], index: int) -> Optional[str]:
    return None if path is None else f"{path}.shard{index}"


def shard_config(config: ExperimentConfig, index: int) -> ExperimentConfig:
    """The sub-config shard ``index`` of ``config`` is wired from.

    With one shard that is ``config`` itself.  Otherwise a shard is a
    one-system run over its population slice: ``shards`` collapses to 1
    (the composition root must not recurse), the seed is the shard's
    derived root, checkpointing stays with the loop (barrier-aligned,
    one canonical file), and telemetry export and flight-recorder paths
    get a per-shard suffix so K writers never collide.
    """
    if config.shards == 1:
        return config
    sizes = partition_counts(config.n, config.shards)
    telemetry = config.telemetry
    if telemetry is not None:
        telemetry = dataclasses.replace(
            telemetry,
            jsonl_path=_suffix_path(telemetry.jsonl_path, index),
            chrome_trace_path=_suffix_path(telemetry.chrome_trace_path, index),
        )
    health = config.health
    if health is not None and health.flight_path is not None:
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


class SystemRun:
    """One wired system the loop drives window by window.

    This is the whole of a K = 1 run; :class:`ShardRun` adds the mailbox
    plane for K > 1.  The ``run.execute`` span opens in :meth:`start`
    and closes in :meth:`finish`, so it covers every window once.
    """

    def __init__(
        self,
        config: ExperimentConfig,
        index: int,
        *,
        policy_factory=default_policy_factory,
        scenario: Optional[Scenario] = None,
        populate: bool = True,
        fresh_rng_domain: Optional[int] = None,
    ) -> None:
        self.index = index
        self.result: RunResult = run_experiment(
            shard_config(config, index),
            policy_factory=policy_factory,
            scenario=scenario,
            run=False,
            populate=populate,
            fresh_rng_domain=fresh_rng_domain,
        )
        self._restore_rng = fresh_rng_domain is None
        self.telemetry = self.result.ctx.telemetry
        self._execute_span = self.telemetry.span("run.execute")

    def start(self, state: Optional[Mapping[str, Any]] = None) -> None:
        """Adopt captured state (a resume), then open ``run.execute``."""
        if state is not None:
            self.restore_state(state)
        self._execute_span.__enter__()

    # -- window execution ----------------------------------------------------
    def advance(self, until: float) -> int:
        """Execute one window; returns events delivered."""
        sim = self.result.ctx.sim
        before = sim.events_processed
        sim.run(until=until)
        return sim.events_processed - before

    def drain(self) -> List[ShardMessage]:
        """The window's outbound messages: none without a mailbox."""
        return []

    def deliver(self, inbox: Sequence[ShardMessage]) -> int:
        """Nothing arrives without a mailbox."""
        return 0

    # -- checkpoint state ----------------------------------------------------
    def snapshot_state(self) -> Dict[str, Any]:
        """This system's complete barrier state, as plain data."""
        return {"run": capture_run_state(self.result)}

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Adopt captured state into this freshly wired (unpopulated) system."""
        restore_run_state(self.result, state["run"], restore_rng=self._restore_rng)

    # -- the epilogue --------------------------------------------------------
    def crash(self, exc: BaseException) -> None:
        """Write the flight recorder's crash bundle (if one is configured)."""
        if self.result.health_monitor is not None:
            self.result.health_monitor.crash_dump(exc)

    def finish(self, wall_time: float):
        """Close ``run.execute``, export telemetry; returns the result."""
        self._execute_span.__exit__(None, None, None)
        export_run(self.result)
        return self.result


class ShardRun(SystemRun):
    """One logical shard: a full sub-system plus its mailbox endpoint.

    Wiring order is part of the determinism contract: the composition
    root runs first (assigning the same process tokens as any one-system
    run), then the shard plane attaches its gossip process and sample
    listeners.  The resume path wires identically (with
    ``populate=False``) and only then restores captured state, so
    process tokens and handler registrations always line up.
    """

    def __init__(self, config: ExperimentConfig, index: int, **wiring) -> None:
        super().__init__(config, index, **wiring)
        self.nshards = config.shards
        self.link = config.shard_link_model()
        lookahead = self.link.min_delay()
        sim = self.result.ctx.sim
        self.shard = ShardContext(sim, index, config.shards, lookahead)
        self._link_rng = sim.rng.get("shard-link")
        #: Last population each shard reported (own entry kept live).
        self.view: List[int] = [0] * config.shards
        self.busy_wall = 0.0
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
        delay = float(self.link.sample(self._link_rng, 1)[0])
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
            **super().snapshot_state(),
            "shard": self.shard.snapshot(),
            "gossip_process": self.gossip_process.snapshot(),
            "view": list(self.view),
            "sample_log": self.sample_log.snapshot(),
        }

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Adopt captured state into this freshly wired (unpopulated) shard."""
        super().restore_state(state)
        self.shard.restore(state["shard"])
        self.gossip_process.restore(
            state["gossip_process"], self.result.ctx.sim
        )
        self.view = list(state["view"])
        self.sample_log.restore(state["sample_log"])

    # -- completion ----------------------------------------------------------
    def finish(self, wall_time: float) -> Dict[str, Any]:
        """Reduced, picklable final artifacts (also exports telemetry)."""
        idle = 0.0
        if wall_time > 0:
            idle = max(0.0, 1.0 - self.busy_wall / wall_time)
        if self._idle_gauge is not None:
            self._idle_gauge.set(idle)
        result = super().finish(wall_time)
        agg = result.ctx.overlay.aggregates
        spans = None
        if self.telemetry.enabled:
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


class ShardWorkerError(RuntimeError):
    """A shard worker process died without reporting an error."""

    def __init__(self, shards: Sequence[int], exitcode: Optional[int]) -> None:
        self.shards = tuple(shards)
        self.exitcode = exitcode
        names = ", ".join(str(k) for k in self.shards)
        super().__init__(
            f"the worker running shard(s) {names} died with exit code "
            f"{exitcode} without reporting an error"
        )


# ---------------------------------------------------------------------------
# Executors: the same barrier protocol, in-process or across processes
# ---------------------------------------------------------------------------


def _route(messages: Sequence[ShardMessage], nshards: int) -> List[List[ShardMessage]]:
    inboxes: List[List[ShardMessage]] = [[] for _ in range(nshards)]
    for msg in messages:
        inboxes[msg.dest].append(msg)
    return inboxes


class _SerialExecutor:
    """Shards in this process: the reference executor, and each worker's."""

    def __init__(
        self, config, shard_ids, policy_factory, scenario, states, fresh_rng_domain
    ) -> None:
        cls = ShardRun if config.shards > 1 else SystemRun
        self.runs = []
        for k in shard_ids:
            run = cls(
                config,
                k,
                policy_factory=policy_factory,
                scenario=scenario,
                populate=states is None,
                fresh_rng_domain=fresh_rng_domain,
            )
            run.start(None if states is None else states[k])
            self.runs.append(run)
        self.policy_name = self.runs[0].result.policy.name

    def advance(self, t_end: float) -> tuple:
        outgoing: List[ShardMessage] = []
        events = 0
        for run in self.runs:
            events += run.advance(t_end)
            outgoing.extend(run.drain())
        return outgoing, events

    def deliver(self, inboxes) -> None:
        for run in self.runs:
            run.deliver(inboxes[run.index])

    def capture(self) -> Dict[int, dict]:
        return {run.index: run.snapshot_state() for run in self.runs}

    def crash(self, exc: BaseException) -> None:
        for run in self.runs:
            run.crash(exc)

    def finish(self, wall: float) -> dict:
        return {run.index: run.finish(wall) for run in self.runs}

    def close(self) -> None:
        pass


def _shard_worker(conn, config, policy_factory, scenario, shard_ids, states):
    """Worker-process main loop: a serial executor behind a pipe.

    Everything a worker needs is a pure function of its arguments, and
    everything it returns crosses the pipe as plain data -- the same
    contract as :mod:`repro.experiments.parallel`.  On any failure the
    worker writes its shards' crash bundles before it reports.
    """
    local = None
    try:
        local = _SerialExecutor(
            config, shard_ids, policy_factory, scenario, states, None
        )
        conn.send(("ready", local.policy_name))
        while True:
            op, *args = conn.recv()
            if op == "stop":
                return
            if op == "crash":
                raise RuntimeError(f"another shard failed:\n{args[0]}")
            reply = getattr(local, op)(*args)
            if op != "deliver":  # the pipe is ordered: no ack needed
                conn.send(("ok", reply))
    except Exception as exc:  # dump, report, then die
        if local is not None:
            local.crash(exc)
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:  # pragma: no cover - parent already gone
            pass


class _ProcessExecutor:
    """K shards spread round-robin over long-lived worker processes."""

    def __init__(
        self, config, policy_factory, scenario, states, workers, mp_ctx
    ) -> None:
        nshards = config.shards
        self.assignments = [
            list(range(w, nshards, workers)) for w in range(workers)
        ]
        self.conns = []
        self.procs = []
        for ids in self.assignments:
            parent_conn, child_conn = mp_ctx.Pipe()
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
        try:
            for w in range(workers):
                self.policy_name = self._recv(w)[1]
        except Exception as exc:
            self.crash(exc)
            self.close()
            raise

    def _recv(self, w: int):
        try:
            msg = self.conns[w].recv()
        except EOFError:
            proc = self.procs[w]
            proc.join(timeout=30)
            raise ShardWorkerError(self.assignments[w], proc.exitcode) from None
        if msg[0] == "error":
            raise RuntimeError(f"shard worker failed:\n{msg[1]}")
        return msg

    def _all(self, *op) -> list:
        for conn in self.conns:
            conn.send(op)
        return [self._recv(w)[1] for w in range(len(self.conns))]

    def advance(self, t_end: float) -> tuple:
        outgoing: List[ShardMessage] = []
        events = 0
        for out, count in self._all("advance", t_end):
            outgoing.extend(out)
            events += count
        return outgoing, events

    def deliver(self, inboxes: List[List[ShardMessage]]) -> None:
        for ids, conn in zip(self.assignments, self.conns):
            conn.send(("deliver", {k: inboxes[k] for k in ids}))

    def capture(self) -> Dict[int, dict]:
        return {k: v for reply in self._all("capture") for k, v in reply.items()}

    def crash(self, exc: BaseException) -> None:
        # Workers that are still alive dump their shards' bundles too.
        text = "".join(traceback.format_exception_only(type(exc), exc))
        for conn in self.conns:
            try:
                conn.send(("crash", text))
            except OSError:
                pass

    def finish(self, wall: float) -> dict:
        return {k: v for reply in self._all("finish", wall) for k, v in reply.items()}

    def close(self) -> None:
        """Stop and reap every worker, whatever state it is in."""
        for conn in self.conns:
            try:
                conn.send(("stop",))
            except OSError:
                pass
        for proc in self.procs:
            proc.join(timeout=30)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join()
        for conn in self.conns:
            conn.close()


# ---------------------------------------------------------------------------
# The loop
# ---------------------------------------------------------------------------


def _in_order(by_shard: Dict[int, Any]) -> list:
    return [by_shard[k] for k in sorted(by_shard)]


def _barriers(config: ExperimentConfig, t_start: float) -> List[float]:
    """The barrier times after ``t_start``, the last one at the horizon.

    K > 1: the lookahead grid ``i * W`` from t = 0 (config validation
    puts the horizon on it, and a resume starts from the barrier its
    checkpoint recorded).  K = 1 has no lookahead: the sample grid, the
    last barrier clamped to the horizon.
    """
    if config.shards > 1:
        window = config.shard_link_model().min_delay()
        first = round(t_start / window) + 1
        last = round(config.horizon / window)
        return [i * window for i in range(first, last + 1)]
    step = config.sample_interval
    i = math.floor(t_start / step) + 1
    times = []
    while i * step < config.horizon:
        times.append(i * step)
        i += 1
    times.append(config.horizon)
    return times


def execute(
    config: ExperimentConfig,
    policy_factory=None,
    scenario: Optional[Scenario] = None,
    *,
    workers: Optional[int] = None,
    t_start: float = 0.0,
    states: Optional[List[dict]] = None,
    fresh_rng_domain: Optional[int] = None,
):
    """Wire ``config.shards`` systems and drive them to the horizon.

    ``states`` (one per shard, index order) resumes captured systems
    from ``t_start``; ``fresh_rng_domain`` is the warm-start fork's
    (K = 1 only).  Returns the system's
    :class:`~repro.experiments.runner.RunResult` when K = 1, a
    :class:`ShardedRunResult` otherwise.
    """
    nshards = config.shards
    policy_factory = policy_factory or default_policy_factory
    if states is not None and len(states) != nshards:
        raise CheckpointError(
            f"checkpoint holds {len(states)} shard states but the config "
            f"declares shards={nshards}"
        )
    n_workers = 1
    if nshards > 1:
        from .parallel import resolve_workers

        n_workers = max(1, min(resolve_workers(workers), nshards))
    mp_ctx = None
    if n_workers > 1:
        try:
            mp_ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platform
            n_workers = 1

    wall0 = time.perf_counter()
    if n_workers > 1:
        executor = _ProcessExecutor(
            config, policy_factory, scenario, states, n_workers, mp_ctx
        )
    else:
        executor = _SerialExecutor(
            config, range(nshards), policy_factory, scenario, states, fresh_rng_domain
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
        progress = WindowProgress(
            horizon=config.horizon,
            every=config.telemetry.progress_every,
            label=config.name,
        )
    total_events = 0
    try:
        try:
            for t_end in _barriers(config, t_start):
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
                        shard_states=_in_order(executor.capture()),
                    )
                    checkpoint_writes += 1
                    while next_due <= t_end + 1e-12:
                        next_due += config.checkpoint_every
        except Exception as exc:
            # The flight recorder's crash half: every shard dumps its
            # postmortem bundle before the exception propagates.
            executor.crash(exc)
            raise
        wall = time.perf_counter() - wall0
        payloads = _in_order(executor.finish(wall))
    finally:
        executor.close()

    if nshards == 1:
        (result,) = payloads
        result.checkpoint_writes = checkpoint_writes
        return result
    return _reduce(
        config, payloads, executor.policy_name, n_workers, wall, checkpoint_writes
    )


def _reduce(config, payloads, policy_name, n_workers, wall, checkpoint_writes):
    """The K shards' final payloads as one :class:`ShardedRunResult`."""
    series = reduce_sample_logs([p["sample_log"] for p in payloads])
    shard_series = []
    for p in payloads:
        bundle = SeriesBundle()
        bundle.restore(p["series"])
        shard_series.append(bundle)
    stats = ShardPlaneStats(
        shards=config.shards,
        workers=n_workers,
        window=config.shard_link_model().min_delay(),
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
        # sharded run exactly like a one-system one.
        from ..health.aggregate import write_merged_run

        write_merged_run(
            config.telemetry.jsonl_path,
            [
                _suffix_path(config.telemetry.jsonl_path, k)
                for k in range(config.shards)
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
        policy_name=policy_name,
        checkpoint_writes=checkpoint_writes,
    )


def run_sharded_experiment(
    config: ExperimentConfig,
    *,
    policy_factory=None,
    scenario: Optional[Scenario] = None,
    workers: Optional[int] = None,
):
    """Execute ``config`` to its horizon on an explicit worker count.

    ``workers`` is execution-only (default: ``REPRO_WORKERS`` / CPU
    count, capped at the shard count); any value yields bit-identical
    results.  :func:`~repro.experiments.runner.run_experiment` is the
    same call with the default worker count.
    """
    return execute(config, policy_factory, scenario, workers=workers)
