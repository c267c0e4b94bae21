"""cProfile and timers for the simulation hot paths (``repro profile``).

``repro profile TARGET`` profiles one registered experiment (``figure6``,
``table3``, ...) under the same run options as ``repro <id>``, or one of
the synthetic micro-workloads below, and prints the top functions by
cumulative and internal time.  Workload setup (settling an overlay for
the flooding micro-workload) runs outside the profiled region, so the
report shows only the hot path.

``flooding`` also times the queries of its settling run, cold (the
first of an entry set after a backbone change) and warm apart -- the
figures DESIGN.md §5 "Flood by lookup" quotes.

``evaluate`` is a timer, not a profile: it settles one overlay per
knowledge plane and prints the cost of one DLM verdict (phases 2-4,
nothing executed) per role in µs, with the mean related-set size --
the figure DESIGN.md §5 "Verdict path" quotes, as one command -- the
audit record's cost per verdict, and how the settling run's
evaluations exited (gone, rate limit, cooldown, ... verdict) per
trigger, drain event or evaluation sweep.
``repair`` is its sibling for orphan passes: it kills supers of a
settled overlay and prints µs per reconnected orphan, orphans per pass
and NumPy calls on the bootstrap stream per pass.  ``join`` prints µs
per leaf join, split into the driver's takes, the sampler draw, the row
write, the links and the requests (DESIGN.md §8 "Draw by the block").
``transport`` times the message-driven Phase-1 exchange per link
(DESIGN.md §9 "Lazy timeouts") with its timeouts armed, fired and
materialized, and the drop/latency NumPy calls per 1000 legs.

This is the tool that guided the scheduler/flooding/topology hot-path
optimizations; re-run it after touching the simulation core to see where
the time went.

Examples::

    repro profile figure6 --n 500 --horizon 300
    repro profile flooding --queries 500 --sort tottime
    repro profile evaluate --n 2000
    repro profile repair --n 2000
    repro profile join --n 2000
    repro profile transport --n 2000
    repro profile figure6 --scale
"""

from __future__ import annotations

import cProfile
import pstats
import sys
from itertools import cycle, islice
from time import perf_counter
from typing import Callable, Dict, Optional, Tuple

__all__ = ["MICRO_WORKLOADS", "profile_call"]

#: Verdicts timed per role and knowledge plane by ``evaluate``.
_VERDICTS = 20_000
#: Default size of the flooding workload.
_QUERIES = 200
#: Leaves ``join`` adds to its settled overlay.
_JOINS = 2_000


def _flooding_workload(config, opts) -> Callable[[], object]:
    """Flood queries timed inside a run, then replayed to be profiled.

    The settling run queries at ``search_reads``' rate with every
    :meth:`FloodRouter.query` timed: a cold query built a reach row (the
    first of its entry set since the backbone changed), a warm one -- a
    lookup or a local hit -- did not.  It prints µs per cold and per warm
    query and reach rows built per 1000 queries.  The profiled replay,
    outside the run, issues ``--queries`` queries from 64 fixed leaves of
    the settled overlay and drops the router's snapshot as often as the
    run rebuilt it.
    """
    from .experiments.configs import SearchConfig
    from .experiments.runner import run_experiment
    from .search.flooding import FloodRouter

    spent = {"cold": 0.0, "warm": 0.0}
    count = {"cold": 0, "warm": 0, "snapshots": 0}
    query = FloodRouter.query

    def timed(router, source, obj):
        rows, n_rows = router._reach, len(router._reach)
        t0 = perf_counter()
        out = query(router, source, obj)
        kind = "warm" if router._reach is rows and len(rows) == n_rows else "cold"
        spent[kind] += perf_counter() - t0
        count[kind] += 1
        count["snapshots"] += router._reach is not rows
        return out

    FloodRouter.query = timed
    try:
        result = run_experiment(
            config.with_(horizon=300.0, search=SearchConfig(query_rate=120.0))
        )
    finally:
        FloodRouter.query = query
    cold, total = count["cold"], count["cold"] + count["warm"]
    print(
        f"{spent['cold'] / max(cold, 1) * 1e6:7.2f} us/cold query"
        f"  {spent['warm'] / max(total - cold, 1) * 1e6:6.2f} us/warm query"
        f"  {cold / max(total, 1) * 1000:6.1f} reach rows/1000 queries"
        f"  ({total} queries, {count['snapshots']} snapshots)"
    )

    router = FloodRouter(result.overlay, result.directory, ttl=7)
    rng = result.ctx.sim.rng.get("profile")
    sources = result.overlay.leaf_ids.sample(rng, 64)
    catalog = result.workload.catalog
    queries = opts.queries if opts.queries is not None else _QUERIES
    pairs = [
        (sources[i % len(sources)], catalog.query_target(rng))
        for i in range(queries)
    ]
    every = max(total // max(count["snapshots"], 1), 1)

    def run() -> int:
        hits = 0
        for i, (src, obj) in enumerate(pairs):
            if i % every == 0:
                router.resync()
            hits += router.query(src, obj).found
        return hits

    return run


#: ``evaluate``'s exits, in the order it takes them (``small G``: too
#: few members to compare against, e.g. the forced-demotion path).
_EXITS = ("gone", "rate limit", "cooldown", "ineligible", "defer", "small G", "verdict")
#: The policy's two evaluation loops, by the trigger they count under.
_TRIGGERS = {"_on_evaluate_event": "drain", "_evaluation_sweep": "sweep"}


def _count_exits(policy_cls, counts: dict) -> Callable[[], None]:
    """Patch ``policy_cls`` so each ``evaluate`` call adds one to
    ``counts[(trigger, exit)]`` -- trigger ``drain`` (the evaluation
    event), ``sweep`` or ``other`` -- and return the undo.  The guard
    exits are read from the columns before the call, the rest from its
    result and the deferral counter: no policy counter is added."""
    originals = {n: vars(policy_cls)[n] for n in ("evaluate", *_TRIGGERS)}
    trigger = ["other"]

    def under(trig: str, fn: Callable) -> Callable:
        def handler(self, *args):
            trigger.append(trig)
            try:
                return fn(self, *args)
            finally:
                trigger.pop()

        return handler

    def evaluate(self, pid):
        peer, cfg, now = self._get(pid), self.config, self._clock._now
        deferrals, exit_ = self.deferrals, None
        if peer is None:
            exit_ = "gone"
        else:
            store, slot, interval = peer._store, peer._slot, cfg.min_eval_interval
            if interval > 0.0 and now - store.last_eval[slot] < interval:
                exit_ = "rate limit"
            elif now - store.role_change_time[slot] < cfg.transition_cooldown:
                exit_ = "cooldown"
            elif not (store.role[slot] or store.eligible[slot]):
                exit_ = "ineligible"
        decision = originals["evaluate"](self, pid)
        if exit_ is None:
            exit_ = "verdict" if decision is not None else "small G"
            exit_ = "defer" if self.deferrals > deferrals else exit_
        counts[trigger[-1], exit_] = counts.get((trigger[-1], exit_), 0) + 1
        return decision

    policy_cls.evaluate = evaluate
    for name, trig in _TRIGGERS.items():
        setattr(policy_cls, name, under(trig, originals[name]))

    def undo() -> None:
        for name, fn in originals.items():
            setattr(policy_cls, name, fn)

    return undo


def _time_verdicts(config, opts) -> None:
    """Print µs per DLM verdict per role over a settled overlay, per
    knowledge plane, and how the settling run's ``evaluate`` calls exited.

    Times :meth:`DLMPolicy._evaluate_leaf` / ``_evaluate_super`` -- µ, the
    scaled comparison and the threshold rule, without the action -- on
    the peers that reach them (eligible leaves, supers with enough
    leaves), cycling until :data:`_VERDICTS` ran.  ``decided`` is how
    many returned a decision; the rest deferred for missing knowledge
    (observed plane only).  The omniscient super verdict is also timed on
    each comparison branch, the threshold forced to the loop and to the
    vector pass (DESIGN.md §5 "Verdict path").  Then the
    whole of ``evaluate`` -- prologue, verdict and audit record, with the
    rate limit, the cooldown and the action switched off -- is timed
    with the audit off and with a bound audit log: their difference is
    the audit's cost per verdict (best of two alternated passes each).
    The settling run is outside the timed region; its ``evaluate`` exits
    are counted per trigger (:func:`_count_exits`).
    """
    from dataclasses import replace

    from .core import comparison
    from .core.dlm import DLMPolicy
    from .experiments.runner import run_experiment
    from .protocol.faults import FaultPlan
    from .telemetry.records import AuditLog, RecordLog

    for plane, faults in (
        ("omniscient", None),
        ("observed", FaultPlan(loss_rate=0.05, latency_scale=0.2)),
    ):
        exits: dict = {}
        undo = _count_exits(DLMPolicy, exits)
        try:
            result = run_experiment(config.with_(horizon=400.0, faults=faults))
        finally:
            undo()
        overlay, policy, now = result.overlay, result.policy, result.ctx.now
        floor = policy.config.min_related_set
        leaves = [p for p in map(overlay.peer, overlay.leaf_ids) if p.eligible]
        supers = [
            p
            for p in map(overlay.peer, overlay.super_ids)
            if len(p.leaf_neighbors) >= floor
        ]
        runs = [("leaf", leaves, policy._evaluate_leaf, None)]
        runs += [("super", supers, policy._evaluate_super, None)]
        if faults is None:  # and forced onto each comparison branch
            runs += [("super loop", supers, policy._evaluate_super, sys.maxsize)]
            runs += [("super vector", supers, policy._evaluate_super, 0)]
        kept = comparison._VECTOR_THRESHOLD
        for role, peers, verdict, threshold in runs:
            comparison._VECTOR_THRESHOLD = kept if threshold is None else threshold
            decided = g_total = 0
            t0 = perf_counter()
            try:
                for peer in islice(cycle(peers), _VERDICTS):
                    decision = verdict(peer, now)
                    if decision is not None:
                        decided += 1
                        g_total += decision.y.g_size
            finally:
                comparison._VECTOR_THRESHOLD = kept
            elapsed = perf_counter() - t0
            print(
                f"{plane:10s} {role:12s} {elapsed / _VERDICTS * 1e6:7.2f} us/verdict"
                f"  mean |G| {g_total / max(decided, 1):5.1f}"
                f"  decided {decided}/{_VERDICTS}  ({len(peers)} peers)"
            )
        policy.config = replace(
            policy.config, min_eval_interval=0.0, transition_cooldown=0.0
        )
        policy._act = lambda peer, decision: None
        for role, peers in (("leaf", leaves), ("super", supers)):
            pids = [p.pid for p in islice(cycle(peers), _VERDICTS)]
            cost = dict.fromkeys(("off", "bound"), float("inf"))
            for audit in ("off", "bound") * 2:  # alternated, best of two
                policy._audit = None if audit == "off" else AuditLog(RecordLog())
                t0 = perf_counter()
                for pid in pids:
                    policy.evaluate(pid)
                spent = (perf_counter() - t0) / len(pids) * 1e6
                cost[audit] = min(cost[audit], spent)
            print(
                f"{plane:10s} {role:12s} evaluate: audit off {cost['off']:6.2f}"
                f"  bound {cost['bound']:6.2f} us/verdict"
                f"  (audit {cost['bound'] - cost['off']:+.2f} us)"
            )
        print(f"{plane:10s} evaluate exits per trigger (settling run):")
        print(f"  {'trigger':8s}" + "".join(f"{e:>11s}" for e in _EXITS))
        for trigger in sorted({t for t, _ in exits}):
            row = "".join(f"{exits.get((trigger, e), 0):11d}" for e in _EXITS)
            print(f"  {trigger:8s}{row}")


class _CountedDraws:
    """A generator that counts its NumPy calls."""

    def __init__(self, gen) -> None:
        self.bit_generator, self.calls, self._gen = gen.bit_generator, 0, gen

    def __getattr__(self, name):  # integers, choice: fetched to be called
        self.calls += 1
        return getattr(self._gen, name)


def _time_repairs(config, opts) -> None:
    """Print µs per reconnected orphan over a settled overlay.

    Kills two supers in three, one at a time, and times the orphan pass
    (:meth:`Maintenance.reconnect_orphans`) each death needs; backbone
    repair and the settling run are outside the timed region.
    """
    from .experiments.runner import run_experiment

    result = run_experiment(config.with_(horizon=400.0))
    overlay, maint = result.overlay, result.ctx.maintenance
    bootstrap = maint.join.rng  # a DrawAhead: count under its blocks too
    bootstrap.gen = draws = _CountedDraws(bootstrap.gen)
    passes = made = calls = 0
    elapsed = 0.0
    for sid in list(overlay.super_ids)[: overlay.n_super * 2 // 3]:
        orphans, former = overlay.remove_peer(sid)
        calls -= draws.calls
        t0 = perf_counter()
        made += maint.reconnect_orphans(orphans).leaf_reconnections
        elapsed += perf_counter() - t0
        calls += draws.calls
        passes += 1
        maint.repair_backbone(former)
    print(
        f"{elapsed / max(made, 1) * 1e6:7.2f} us/orphan  {made / max(passes, 1):6.1f}"
        f" orphans/pass  {calls / max(passes, 1):6.1f} NumPy calls/pass"
        f"  ({passes} passes)"
    )


def _time_joins(config, opts) -> None:
    """Print µs per leaf join over a settled overlay, split into the
    driver's capacity, lifetime and eligibility takes from the run's own
    streams (``sample``), the sampler draw (``connect_leaf`` less its
    links), the row write with its membership listeners (``add_peer``),
    the links with their listeners (``link_leaf``, less the requests)
    and the evaluation requests.  Each part carries its timing wrapper
    (about 0.2 µs a call); the settling run and each join's evaluation
    drain are outside the timed region.
    """
    from .experiments.runner import run_experiment

    result = run_experiment(config.with_(horizon=400.0))
    ctx, overlay = result.ctx, result.overlay
    spent = dict.fromkeys(("sample", "draw", "row", "links", "requests"), 0.0)

    def timed(fn, part):
        def call(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            spent[part] += perf_counter() - t0
            return out

        return call

    ctx.join.connect_leaf = timed(ctx.join.connect_leaf, "draw")
    overlay.add_peer = timed(overlay.add_peer, "row")
    overlay.link_leaf = timed(overlay.link_leaf, "links")
    listeners = ctx.info._completion_listeners
    listeners[:] = [timed(fn, "requests") for fn in listeners]
    draw_peer = timed(result.driver._draw_peer, "sample")
    elapsed = 0.0
    for _ in range(_JOINS):
        t0 = perf_counter()
        capacity, lifetime, eligible = draw_peer()
        ctx.join.join(ctx.now, capacity, lifetime, eligible=eligible)
        elapsed += perf_counter() - t0
        ctx.sim.run(until=ctx.now)
    spent["draw"] -= spent["links"]
    spent["links"] -= spent["requests"]
    parts = "  ".join(f"{k} {v / _JOINS * 1e6:.2f}" for k, v in spent.items())
    print(f"{elapsed / _JOINS * 1e6:7.2f} us/join  ({parts})  ({_JOINS} joins)")


def _time_transport(config, opts) -> None:
    """Print µs per message-driven link exchange over a settled overlay.

    Settles a message-driven run (the ``msg_faults`` fault plan unless
    ``--loss``/``--latency-scale`` give one), then runs the Phase-1
    exchange of every leaf--super link on a fresh transport and
    simulator until it drains.  Per link: timeouts armed (request legs
    sent), fired, and materialized (built as an Event); per 1000
    message legs: NumPy calls of the drop and latency streams.
    """
    from .experiments.runner import run_experiment
    from .protocol.accounting import MessageLedger
    from .protocol.faults import FaultPlan
    from .protocol.messages import NeighNumRequest, ValueRequest
    from .protocol.transport import InfoExchange
    from .sim.scheduler import Simulator

    faults = config.faults or FaultPlan(loss_rate=0.05, latency_scale=0.2)
    result = run_experiment(config.with_(horizon=200.0, faults=faults))
    overlay = result.overlay
    sim = Simulator(seed=config.seed, start=result.ctx.now)
    ledger = MessageLedger()
    info = InfoExchange(overlay, ledger, sim=sim, faults=faults)
    # Block draws of the drop/latency streams, and timeout Events built:
    # a timeout of >= one window is never materialized when it
    # is armed, so the rows harvested are every timeout Event.
    counts = {"draws": 0, "built": 0}

    def counted(fn, key, size):
        def call(*args):
            out = fn(*args)
            counts[key] += size(out)
            return out

        return call

    for ahead in sim.rng._ahead.values():
        ahead.draw = counted(ahead.draw, "draws", lambda out: 1)
    info._timeouts.harvest = counted(info._timeouts.harvest, "built", len)
    links = [
        (lid, sid)
        for lid in overlay.leaf_ids
        for sid in overlay.peer(lid).super_neighbors
    ]
    t0 = perf_counter()
    for leaf, sup in links:
        info.on_connection_created(leaf, sup)
    sim.run()
    elapsed = perf_counter() - t0
    sent = ledger.snapshot()
    legs = sent.total_count()
    armed = sent.total_count(t.wire_name for t in (NeighNumRequest, ValueRequest))
    n = max(len(links), 1)
    print(
        f"{elapsed / n * 1e6:7.2f} us/link  timeouts/link: armed {armed / n:.3f}"
        f" fired {sum(sent.timeouts.values()) / n:.3f}"
        f" materialized {counts['built'] / n:.3f}"
        f"  {counts['draws'] / max(legs, 1) * 1000:6.1f}"
        f" draws/1000 legs  ({len(links)} links, {legs} legs)"
    )


#: Micro-workload -> (function, the options it reads).  The function
#: takes the built config and the parsed ``repro profile`` options and
#: returns the callable to profile, or None for a timer that printed its
#: own figures.
MICRO_WORKLOADS: Dict[str, Tuple[Callable, Tuple[str, ...]]] = {
    "flooding": (
        _flooding_workload,
        ("n", "seed", "queries", "sort", "limit", "out"),
    ),
    "evaluate": (_time_verdicts, ("n", "seed")),
    "repair": (_time_repairs, ("n", "seed")),
    "join": (_time_joins, ("n", "seed")),
    "transport": (_time_transport, ("n", "seed", "loss", "latency_scale")),
}


def profile_call(
    workload: Callable[[], object], sort: str, limit: int, out: Optional[str]
) -> None:
    """Run ``workload`` under cProfile and print the top ``limit`` rows by
    ``sort`` (stdout) and by the other order (stderr header)."""
    profiler = cProfile.Profile()
    profiler.enable()
    workload()
    profiler.disable()

    stats = pstats.Stats(profiler)
    stats.strip_dirs()
    stats.sort_stats(sort).print_stats(limit)
    secondary = "tottime" if sort == "cumulative" else "cumulative"
    print(f"--- top by {secondary} ---", file=sys.stderr)
    stats.sort_stats(secondary).print_stats(limit)
    if out:
        stats.dump_stats(out)
