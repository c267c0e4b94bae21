"""Result verification: a fast wrong answer never enters a record.

Every run, timed or traced, passes through :func:`verify_run` before
its numbers are accepted:

* the final overlay state satisfies ``check_invariants`` including the
  aggregate-plane scan (``aggregates.mismatches() == []``);
* on workloads whose horizon lets the layers settle, the tail
  layer-size ratio lies in the science band around η;
* a trajectory **fingerprint** -- sha256 over the bit-exact sampled
  series, the final layer sizes, and every exact counter -- which the
  parent requires to be identical across all repeats and between the
  traced and untraced runs of a workload.

The expected fingerprint is deliberately not pinned anywhere: a later
change may declare an RNG reorder.  What gates is the band, the
``age_sep`` metric, and agreement between runs of the *same* code.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Sequence, Tuple

__all__ = [
    "SCIENCE_BAND",
    "TAIL_FRACTION",
    "exact_counts",
    "fingerprint",
    "tail_ratio",
    "ratio_error",
    "age_separation",
    "verify_run",
]

#: Converged workloads must end with the tail ratio within this
#: fraction of η.  n = 2000 at η = 40 means ~49 supers, so one super
#: more or less moves the ratio by 2 %, and at horizon 500 the layers
#: have had two evaluation generations to settle: the band is wider
#: than the issue's 15 % (measured for horizon 2000).
SCIENCE_BAND = 0.30

#: The tail of the sampled series the result statistics average.
TAIL_FRACTION = 0.2


def tail_ratio(result) -> float:
    """Mean layer-size ratio over the last 20 % of samples."""
    return result.series["ratio"].tail_mean(TAIL_FRACTION)


def ratio_error(ratio: float, eta: float) -> float:
    """|ratio - η| / η, the issue's ``ratio_err`` (0 is perfect)."""
    return abs(ratio - eta) / eta


def age_separation(result) -> float:
    """Tail mean age of supers over that of leaves (``age_sep``).

    The paper's election-quality claim: DLM keeps the older peers in
    the super layer, so this is well above 1 once supers have been
    elected.  It is the gated simulated statistic because, unlike the
    layer ratio, it is settled on every workload: across ten seeds its
    quartile spread is 1-5 % even where the horizon ends mid-transient
    and the ratio still swings by half.
    """
    series = result.series
    return series["super_mean_age"].tail_mean(TAIL_FRACTION) / series[
        "leaf_mean_age"
    ].tail_mean(TAIL_FRACTION)


def exact_counts(result, systems: Sequence[Tuple[object, object]], config) -> Dict[str, int]:
    """Counters that repeat exactly for a fixed seed.

    ``systems`` is the ``(ctx, policy)`` pair of every engine the run
    wired: one for the classic runner, K for a sharded run.
    """
    ledgers = [ctx.messages.snapshot() for ctx, _ in systems]
    counts = {
        "sim.events": sum(ctx.sim.events_processed for ctx, _ in systems),
        "overlay.connections_created": sum(
            ctx.overlay.total_connections_created for ctx, _ in systems
        ),
        "protocol.messages": sum(l.total_count() for l in ledgers),
        "protocol.bytes": sum(l.total_bytes() for l in ledgers),
        "protocol.retransmissions": sum(
            sum(l.retransmissions.values()) for l in ledgers
        ),
        "protocol.timeouts": sum(sum(l.timeouts.values()) for l in ledgers),
        "core.evaluations": sum(p.evaluations for _, p in systems),
        "core.promotions": sum(p.promotions for _, p in systems),
        "core.demotions": sum(p.demotions for _, p in systems),
        "core.deferrals": sum(p.deferrals for _, p in systems),
        "telemetry.records": sum(
            ctx.telemetry.log.total_emitted
            for ctx, _ in systems
            if ctx.telemetry.enabled
        ),
    }
    if config.shards > 1:
        counts["churn.joins"] = result.joins
        counts["churn.deaths"] = result.deaths
        counts["experiments.shard_sync_rounds"] = result.stats.sync_rounds
        counts["experiments.shard_cross_messages"] = result.stats.cross_messages
    else:
        counts["churn.joins"] = result.driver.joins
        counts["churn.deaths"] = result.driver.deaths
        counts["experiments.shard_sync_rounds"] = 0
        counts["experiments.shard_cross_messages"] = 0
    queries = result.query_stats
    counts["search.queries"] = queries.issued if queries else 0
    counts["search.succeeded"] = queries.succeeded if queries else 0
    counts["search.messages"] = (
        queries.total_query_messages + queries.total_hit_messages if queries else 0
    )
    return counts


def fingerprint(result, systems, counts: Dict[str, int]) -> str:
    """sha256 of the run's canonical trajectory summary."""
    canonical = {
        # Raw array('d') buffers: bit-exact, no float formatting.
        "series": {
            entry["name"]: [entry["times"].hex(), entry["values"].hex()]
            for entry in result.series.snapshot()
        },
        "n_super": sum(ctx.overlay.n_super for ctx, _ in systems),
        "n_leaf": sum(ctx.overlay.n_leaf for ctx, _ in systems),
        "counts": counts,
    }
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def verify_run(result, systems, config, *, converged: bool) -> List[str]:
    """Problems with one finished run (empty list: accepted)."""
    problems: List[str] = []
    for index, (ctx, _) in enumerate(systems):
        try:
            ctx.overlay.check_invariants(aggregates=True)
        except Exception as exc:  # OverlayError or a broken structure
            problems.append(f"overlay[{index}] invariants: {exc}")
    if converged:
        ratio = tail_ratio(result)
        if ratio_error(ratio, config.eta) > SCIENCE_BAND:
            problems.append(
                f"tail ratio {ratio:.2f} outside ±{SCIENCE_BAND:.0%} of "
                f"eta={config.eta:g}"
            )
    telemetry = config.telemetry
    if telemetry is not None and telemetry.jsonl_path is not None:
        if not os.path.exists(telemetry.jsonl_path):
            problems.append(f"telemetry export missing: {telemetry.jsonl_path}")
    return problems
