"""cProfile entry point for the simulation hot paths.

Usage::

    PYTHONPATH=src python -m repro.profile <experiment> [options]

Profiles one registered experiment (``figure6``, ``table3``, ...) or one
of the synthetic micro-workloads (``scheduler``, ``flooding``) under
cProfile and prints the top functions by cumulative and internal time.
Workload setup (settling an overlay for the flooding micro-workload)
runs outside the profiled region, so the report shows only the hot path.

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

    python -m repro.profile figure6 --n 500 --horizon 300
    python -m repro.profile scheduler --events 200000
    python -m repro.profile flooding --queries 500 --sort tottime
    python -m repro.profile evaluate -n 2000
    python -m repro.profile repair -n 2000
    python -m repro.profile figure6 --config-scale largescale -n 100000
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys
from itertools import cycle, islice
from time import perf_counter
from typing import Callable, Optional, Sequence

__all__ = ["main", "build_parser"]

#: Synthetic micro-workloads profiled without a registry entry.
MICRO_WORKLOADS = ("scheduler", "flooding", "evaluate", "repair")

#: Verdicts timed per role and knowledge plane by ``evaluate``.
_VERDICTS = 20_000


def build_parser() -> argparse.ArgumentParser:
    """The ``repro.profile`` argument parser."""
    from .experiments.registry import all_ids

    parser = argparse.ArgumentParser(
        prog="python -m repro.profile",
        description="Profile an experiment harness or micro-workload.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(all_ids()) + list(MICRO_WORKLOADS),
        help="registered experiment id or a micro-workload",
    )
    parser.add_argument(
        "-n",
        "--n",
        "--scale",
        dest="n",
        type=int,
        default=1000,
        help="network size (aliases: -n, --scale)",
    )
    parser.add_argument(
        "--config-scale",
        choices=("bench", "largescale"),
        default="bench",
        help="base config family: bench (default) or the columnar "
        "largescale path (omniscient knowledge)",
    )
    parser.add_argument(
        "--horizon", type=float, default=400.0, help="simulated horizon"
    )
    parser.add_argument("--seed", type=int, default=None, help="root seed")
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="K",
        help="profile the conservative sharded engine at K logical "
        "shards (experiment harnesses only; the profile covers the "
        "parent's window loop plus, when serial, the shard schedulers)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for sharded runs (sets REPRO_WORKERS; "
        "only in-process work appears in the profile)",
    )
    parser.add_argument(
        "--events", type=int, default=100_000, help="events for the scheduler workload"
    )
    parser.add_argument(
        "--queries", type=int, default=200, help="queries for the flooding workload"
    )
    parser.add_argument(
        "--sort",
        choices=("cumulative", "tottime"),
        default="cumulative",
        help="primary sort order of the report",
    )
    parser.add_argument(
        "--limit", type=int, default=25, help="rows to print per report"
    )
    parser.add_argument(
        "--out", default=None, help="also dump raw pstats data to this path"
    )
    return parser


def _scheduler_workload(events: int) -> Callable[[], object]:
    """Self-perpetuating event chain: pure scheduler overhead."""
    from .sim.scheduler import Simulator

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


def _flooding_workload(queries: int, n: int) -> Callable[[], object]:
    """Repeated flood queries over a settled bench-scale backbone.

    The settling run happens here, outside the profiled region.
    """
    from .experiments.configs import SearchConfig, bench_config
    from .experiments.runner import run_experiment
    from .search.flooding import FloodRouter

    cfg = bench_config().with_(
        n=n, horizon=300.0, search=SearchConfig(query_rate=0.001, n_objects=5000)
    )
    result = run_experiment(cfg)
    router = FloodRouter(result.overlay, result.directory, ttl=7)
    rng = result.ctx.sim.rng.get("profile")
    sources = result.overlay.leaf_ids.sample(rng, 64)
    catalog = result.workload.catalog
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


def _time_verdicts(n: int) -> None:
    """Print µs per DLM verdict per role over a settled overlay, per
    knowledge plane.

    Times :meth:`DLMPolicy._evaluate_leaf` / ``_evaluate_super`` -- µ, the
    scaled comparison and the threshold rule, without the action -- on
    the peers that reach them (eligible leaves, supers with enough
    leaves), cycling until :data:`_VERDICTS` ran.  ``decided`` is how
    many returned a decision; the rest deferred for missing knowledge
    (observed plane only).  The settling run is outside the timed region.
    """
    from .experiments.configs import bench_config
    from .experiments.runner import run_experiment
    from .protocol.faults import FaultPlan

    for plane, faults in (
        ("omniscient", None),
        ("observed", FaultPlan(loss_rate=0.05, latency_scale=0.2)),
    ):
        result = run_experiment(bench_config().with_(n=n, horizon=400.0, faults=faults))
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


def _time_repairs(n: int) -> None:
    """Print µs per reconnected orphan over a settled overlay.

    Kills two supers in three, one at a time, and times the orphan pass
    (:meth:`Maintenance.reconnect_orphans`) each death needs; backbone
    repair and the settling run are outside the timed region.
    """
    from .experiments.configs import bench_config
    from .experiments.runner import run_experiment

    result = run_experiment(bench_config().with_(n=n, horizon=400.0))
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


#: The micro-workloads that are timers, not profiles.
_TIMERS = {"evaluate": _time_verdicts, "repair": _time_repairs}


def _experiment_workload(args: argparse.Namespace) -> Callable[[], object]:
    """One registered experiment harness at the requested scale."""
    from .experiments.configs import bench_config, largescale_config
    from .experiments.registry import get_experiment

    base = largescale_config if args.config_scale == "largescale" else bench_config
    cfg = base().with_(n=args.n, horizon=args.horizon)
    if args.seed is not None:
        cfg = cfg.with_(seed=args.seed)
    if args.shards is not None:
        cfg = cfg.with_(shards=args.shards)
    exp = get_experiment(args.experiment)
    return lambda: exp.run(cfg)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)

    if args.workers is not None:
        os.environ["REPRO_WORKERS"] = str(args.workers)

    if args.experiment in _TIMERS:
        _TIMERS[args.experiment](args.n)  # prints its own figures, no profiler
        return 0
    if args.experiment == "scheduler":
        workload = _scheduler_workload(args.events)
    elif args.experiment == "flooding":
        workload = _flooding_workload(args.queries, args.n)
    else:
        workload = _experiment_workload(args)

    profiler = cProfile.Profile()
    profiler.enable()
    workload()
    profiler.disable()

    stats = pstats.Stats(profiler)
    stats.strip_dirs()
    stats.sort_stats(args.sort).print_stats(args.limit)
    secondary = "tottime" if args.sort == "cumulative" else "cumulative"
    print(f"--- top by {secondary} ---", file=sys.stderr)
    stats.sort_stats(secondary).print_stats(args.limit)
    if args.out:
        stats.dump_stats(args.out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
