#!/usr/bin/env python
"""Flash crowd: a weak-peer influx stresses the layer manager.

The scenario the paper's introduction motivates: a popular event brings
a wave of modem-class, short-session peers into the network (think the
Napster-era evening rush).  A pre-configured threshold either refuses
them all (the super-layer starves as old supers die) or -- if the
threshold were tuned for the new mix -- admits far too many.  DLM keeps
recruiting the *relatively* best peers, so the ratio holds.

The run: a stable network of 1 500 peers; at t=250 arrivals switch to
half-lifetime, quarter-capacity peers; at t=600 the crowd leaves and
arrivals revert.

Run:  python examples/flash_crowd.py
"""

from __future__ import annotations

from repro.baselines import PreconfiguredPolicy
from repro.churn.scenarios import Scenario, Shift
from repro.experiments import bench_config, run_experiment
from repro.experiments.comparison_run import matched_threshold
from repro.util.ascii_plot import ascii_plot


def flash_crowd_scenario() -> Scenario:
    return Scenario(
        name="flash_crowd",
        shifts=(
            Shift(250.0, "capacity", 0.25),
            Shift(250.0, "lifetime", 0.5),
            Shift(600.0, "capacity", 1.0),
            Shift(600.0, "lifetime", 1.0),
        ),
    )


def main() -> None:
    cfg = bench_config().with_(n=1500, horizon=900.0, warmup=60.0, seed=17)
    scenario = flash_crowd_scenario()
    threshold = matched_threshold(cfg.eta)

    print("Running the flash-crowd scenario under DLM...")
    dlm = run_experiment(cfg, scenario=scenario)
    print("...and under a fixed capacity threshold "
          f"({threshold:.0f} KB/s).")
    pre = run_experiment(
        cfg,
        policy_factory=lambda c: PreconfiguredPolicy(threshold),
        scenario=scenario,
    )

    # Plot from t=120 so the cold-start transient does not dominate the
    # autoscaled axis (the super-layer grows from one seed peer).
    d_ratio = dlm.series["ratio"]
    p_ratio = pre.series["ratio"]
    d_keep = d_ratio.times >= 120.0
    p_keep = p_ratio.times >= 120.0
    print()
    print(
        ascii_plot(
            {
                "DLM": (d_ratio.times[d_keep], d_ratio.values[d_keep]),
                "preconfigured": (p_ratio.times[p_keep], p_ratio.values[p_keep]),
            },
            title=(
                "Layer size ratio through a weak-peer flash crowd "
                "(t=250 arrival, t=600 departure; target eta=40)"
            ),
        )
    )

    for name, result in (("DLM", dlm), ("preconfigured", pre)):
        crowd = result.series["ratio"].window(300.0, 600.0)
        print(
            f"{name:15s} ratio during the crowd: "
            f"mean {crowd.mean():7.1f}  min {crowd.min():7.1f}  "
            f"max {crowd.max():7.1f}"
        )
    print(
        "\nDLM recruits the best of whatever arrives; the threshold "
        "policy's super-layer tracks the arrival mix instead of the "
        "protocol target."
    )


if __name__ == "__main__":
    main()
