"""One benchmarked run in a fresh process.

``run.py`` starts this file once per repeat so that every number is
per-run: interpreter start-up and imports land in ``setup_s``,
``ru_maxrss`` is this workload's own high-water mark, and no state
survives from one repeat to the next.  The order inside is fixed:

    imports, config build -> RUN (calibration sampled inside) -> verify

The last line of stdout is one JSON object (see :func:`main`).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def run_once(workload: str, seed: int, tmpdir: str, *, smoke: bool, traced: bool, spawn_epoch: float) -> dict:
    """Execute and verify one run; returns the sample dict."""
    import trace as bench_trace
    import verify
    import workloads
    from calib import InRunCalibration
    from repro.experiments.runner import default_policy_factory, run_experiment
    from repro.experiments.sharded import run_sharded_experiment

    spec = workloads.WORKLOADS[workload]
    config = workloads.build(workload, seed, tmpdir, smoke=smoke)

    policies: list = []

    def capturing_factory(cfg):
        # A sharded result has no ctx; the policies its public
        # policy_factory hook hands out are the way to the K contexts.
        policy = default_policy_factory(cfg)
        policies.append(policy)
        return policy

    if config.shards > 1:
        def call():
            return run_sharded_experiment(
                config, policy_factory=capturing_factory, workers=1
            )
    else:
        def call():
            return run_experiment(config)

    entered = time.time()
    cpu0 = time.process_time()
    if traced:
        with bench_trace.tracing() as tracer:
            call = tracer.wrap(bench_trace.ROOT_SPAN, call)
            # The slices become a span of their own, so they drop out
            # of the self time of whatever they interrupted.
            with InRunCalibration(
                lambda tick: tracer.wrap(bench_trace.CALIB_SPAN, tick)
            ) as calib:
                result = call()
    else:
        with InRunCalibration() as calib:
            result = call()
    cpu = time.process_time() - cpu0

    if config.shards > 1:
        systems = [(p.ctx, p) for p in policies]
        idle = result.stats.idle_fraction
        shard_idle = sum(idle) / len(idle)
    else:
        systems = [(result.ctx, result.policy)]
        shard_idle = 0.0
    counts = verify.exact_counts(result, systems, config)
    ratio = verify.tail_ratio(result)
    jsonl = config.telemetry.jsonl_path if config.telemetry else None
    sample = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        # Process start -> entry of the run call.
        "setup_s": entered - spawn_epoch,
        # Wall and CPU seconds of the run call; wall excludes the
        # calibration slices, CPU cannot.
        "wall_s": calib.wall_s,
        "cpu_s": cpu,
        "calib_slices": calib.slices,
        "calib_slice_s": calib.slice_s,
        "wall_norm": calib.units,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "tail_ratio": ratio,
        "ratio_err": verify.ratio_error(ratio, config.eta),
        "age_sep": verify.age_separation(result),
        "counts": counts,
        "shard_idle_frac": shard_idle,
        "jsonl_bytes": os.path.getsize(jsonl) if jsonl and os.path.exists(jsonl) else 0,
        "fingerprint": verify.fingerprint(result, systems, counts),
        "problems": verify.verify_run(
            result, systems, config, converged=spec.converged and not smoke
        ),
    }
    if traced:
        sample["spans"] = tracer.spans()
    return sample


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmpdir", required=True)
    parser.add_argument("--spawn-epoch", type=float, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    sample = run_once(
        args.workload,
        args.seed,
        args.tmpdir,
        smoke=args.smoke,
        traced=args.traced,
        spawn_epoch=args.spawn_epoch,
    )
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    sys.exit(main())
