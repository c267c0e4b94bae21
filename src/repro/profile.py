"""cProfile and timers for the simulation hot paths (``repro profile``).

``repro profile TARGET`` profiles one registered experiment (``figure6``,
``table3``, ...) under the same run options as ``repro <id>``, or one of
the synthetic micro-workloads below, and prints the top functions by
cumulative and internal time.  Workload setup (settling an overlay for
the flooding micro-workload) runs outside the profiled region, so the
report shows only the hot path.

``evaluate`` is a timer, not a profile: it settles one overlay per
knowledge plane and prints the cost of one DLM verdict (phases 2-4,
nothing executed) per role in µs, with the mean related-set size --
the figure DESIGN.md §8 "Verdict path" quotes, as one command.
``repair`` is its sibling for DESIGN.md §8 "Repair passes draw once":
it kills supers of a settled overlay and prints µs per reconnected
orphan, orphans per pass and sampler draws per pass.

This is the tool that guided the scheduler/flooding/topology hot-path
optimizations; re-run it after touching the simulation core to see where
the time went.

Examples::

    repro profile figure6 --n 500 --horizon 300
    repro profile scheduler --events 200000
    repro profile flooding --queries 500 --sort tottime
    repro profile evaluate --n 2000
    repro profile repair --n 2000
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
#: Default sizes of the scheduler and flooding workloads.
_EVENTS = 100_000
_QUERIES = 200


def _scheduler_workload(config, opts) -> Callable[[], object]:
    """Self-perpetuating event chain: pure scheduler overhead."""
    from .sim.scheduler import Simulator

    events = opts.events if opts.events is not None else _EVENTS

    def run() -> int:
        sim = Simulator(seed=0)
        remaining = [events]

        def handler(s, e):
            remaining[0] -= 1
            if remaining[0] > 0:
                s.schedule(0.01, "tick")

        sim.on("tick", handler)
        sim.schedule(0.01, "tick")
        sim.run()
        return sim.events_processed

    return run


def _flooding_workload(config, opts) -> Callable[[], object]:
    """Repeated flood queries over a settled backbone.

    The settling run happens here, outside the profiled region.
    """
    from .experiments.configs import SearchConfig
    from .experiments.runner import run_experiment
    from .search.flooding import FloodRouter

    result = run_experiment(
        config.with_(
            horizon=300.0, search=SearchConfig(query_rate=0.001, n_objects=5000)
        )
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

    def run() -> int:
        hits = 0
        for src, obj in pairs:
            hits += router.query(src, obj).found
        return hits

    return run


def _time_verdicts(config, opts) -> None:
    """Print µs per DLM verdict per role over a settled overlay, per
    knowledge plane.

    Times :meth:`DLMPolicy._evaluate_leaf` / ``_evaluate_super`` -- µ, the
    scaled comparison and the threshold rule, without the action -- on
    the peers that reach them (eligible leaves, supers with enough
    leaves), cycling until :data:`_VERDICTS` ran.  ``decided`` is how
    many returned a decision; the rest deferred for missing knowledge
    (observed plane only).  The settling run is outside the timed region.
    """
    from .experiments.runner import run_experiment
    from .protocol.faults import FaultPlan

    for plane, faults in (
        ("omniscient", None),
        ("observed", FaultPlan(loss_rate=0.05, latency_scale=0.2)),
    ):
        result = run_experiment(config.with_(horizon=400.0, faults=faults))
        overlay, policy, now = result.overlay, result.policy, result.ctx.now
        floor = policy.config.min_related_set
        leaves = [p for p in map(overlay.peer, overlay.leaf_ids) if p.eligible]
        supers = [
            p
            for p in map(overlay.peer, overlay.super_ids)
            if len(p.leaf_neighbors) >= floor
        ]
        for role, peers, verdict in (
            ("leaf", leaves, policy._evaluate_leaf),
            ("super", supers, policy._evaluate_super),
        ):
            decided = g_total = 0
            t0 = perf_counter()
            for peer in islice(cycle(peers), _VERDICTS):
                decision = verdict(peer, now)
                if decision is not None:
                    decided += 1
                    g_total += decision.y.g_size
            elapsed = perf_counter() - t0
            print(
                f"{plane:10s} {role:5s} {elapsed / _VERDICTS * 1e6:7.2f} us/verdict"
                f"  mean |G| {g_total / max(decided, 1):5.1f}"
                f"  decided {decided}/{_VERDICTS}  ({len(peers)} peers)"
            )


class _CountedDraws:
    """A generator that counts its ``integers`` calls."""

    def __init__(self, rng) -> None:
        self._rng = rng
        self.calls = 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self._rng.integers(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _time_repairs(config, opts) -> None:
    """Print µs per reconnected orphan over a settled overlay.

    Kills two supers in three, one at a time, and times the orphan pass
    (:meth:`Maintenance.reconnect_orphans`) each death needs; backbone
    repair and the settling run are outside the timed region.
    """
    from .experiments.runner import run_experiment

    result = run_experiment(config.with_(horizon=400.0))
    overlay, maint = result.overlay, result.ctx.maintenance
    maint.join.rng = draws = _CountedDraws(maint.join.rng)
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
        f" orphans/pass  {calls / max(passes, 1):6.1f} sampler draws/pass"
        f"  ({passes} passes)"
    )


#: Micro-workload -> (function, the options it reads).  The function
#: takes the built config and the parsed ``repro profile`` options and
#: returns the callable to profile, or None for a timer that printed its
#: own figures.
MICRO_WORKLOADS: Dict[str, Tuple[Callable, Tuple[str, ...]]] = {
    "scheduler": (_scheduler_workload, ("events", "sort", "limit", "out")),
    "flooding": (
        _flooding_workload,
        ("n", "seed", "queries", "sort", "limit", "out"),
    ),
    "evaluate": (_time_verdicts, ("n", "seed")),
    "repair": (_time_repairs, ("n", "seed")),
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
