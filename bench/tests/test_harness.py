"""The benchmark harness checked on ``--smoke`` sizes.

Run with ``python -m pytest bench/tests -q`` (outside tier-1 testpaths).
"""

from __future__ import annotations

import json
import re
import time

import pytest

import child
import run
import trace as bench_trace
import verify
import workloads
from repro.churn.lifecycle import ChurnDriver
from repro.experiments.runner import run_experiment
from repro.metrics.layerstats import LayerStatsSampler
from repro.overlay.topology import Overlay
from repro.sim.scheduler import Simulator

SPEC = run.load_spec()
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def test_trace_module_is_the_benchmarks_own():
    assert bench_trace.__file__.endswith("bench/trace.py")


def _patched_attributes():
    return {
        "Simulator.on": vars(Simulator)["on"],
        "Simulator.off": vars(Simulator)["off"],
        "Simulator.run": vars(Simulator)["run"],
        "Overlay.connect": vars(Overlay)["connect"],
        "ChurnDriver.kill_peer": vars(ChurnDriver)["kill_peer"],
        "LayerStatsSampler.add_sample_listener": vars(LayerStatsSampler)[
            "add_sample_listener"
        ],
        "runner.export_run": vars(__import__("repro.experiments.runner", fromlist=["x"]))[
            "export_run"
        ],
    }


def test_tracing_restores_every_attribute():
    before = _patched_attributes()
    with bench_trace.tracing():
        during = _patched_attributes()
        assert all(during[k] is not before[k] for k in before)
    after = _patched_attributes()
    assert all(after[k] is before[k] for k in before)


def test_tracing_restores_when_the_run_raises(tmp_path):
    before = _patched_attributes()
    config = workloads.build("churn_steady", 1, str(tmp_path), smoke=True)
    with pytest.raises(RuntimeError, match="boom"):
        with bench_trace.tracing() as tracer:
            result = run_experiment(config, run=False)

            def explode(sim, event):
                raise RuntimeError("boom")

            result.ctx.sim.on("peer_join", explode)
            result.ctx.sim.run(until=config.horizon)
    assert tracer.open_spans == 0
    after = _patched_attributes()
    assert all(after[k] is before[k] for k in before)


def test_off_finds_the_wrapper_of_a_traced_handler():
    calls = []

    def handler(sim, event):
        calls.append(event.kind)

    with bench_trace.tracing() as tracer:
        sim = Simulator(seed=1)
        sim.on("peer_join", handler)
        sim.schedule(1.0, "peer_join")
        sim.run(until=2.0)
        sim.off("peer_join", handler)
        sim.schedule(1.0, "peer_join")
        sim.run(until=4.0)
        with pytest.raises(ValueError):
            sim.off("peer_join", handler)
    assert calls == ["peer_join"]
    assert tracer.records["churn.on_join"][0] == 1


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_run_partitions_the_wall_and_keeps_the_trajectory(name, tmp_path):
    samples = [
        child.run_once(
            name, 5, str(tmp_path), smoke=True, traced=traced,
            spawn_epoch=time.time(),
        )
        for traced in (False, True)
    ]
    assert [s["problems"] for s in samples] == [[], []]
    assert samples[0]["fingerprint"] == samples[1]["fingerprint"]
    assert samples[0]["counts"] == samples[1]["counts"]
    layers = run.layer_metrics(
        samples[:1], samples[1], {"wall_norm": samples[0]["wall_norm"]}
    )
    assert layers["trace.unattributed_frac"] <= 0.02
    shares = sum(layers[f"{layer}.share"] for layer in bench_trace.LAYERS)
    assert shares == pytest.approx(1.0, abs=0.02)
    assert layers["experiments.run_experiment.calls"] == 1
    assert layers["sim.run.calls"] >= 1


@pytest.fixture(scope="module")
def smoke_record(tmp_path_factory):
    """One full ``--smoke --trace`` command over all six workloads."""
    out = tmp_path_factory.mktemp("bench") / "record.json"
    code = run.main(["--smoke", "--repeats", "1", "--trace", "--out", str(out)])
    with open(out) as fh:
        return code, json.load(fh)


def test_smoke_command_succeeds_and_declares_what_it_emits(smoke_record):
    code, record = smoke_record
    assert code == 0
    declared = {
        "end_to_end": {m["name"] for m in SPEC["end_to_end"]},
        "per_layer": {m["name"] for m in SPEC["per_layer"]},
    }
    assert len(declared["per_layer"]) == 97
    for name in WORKLOAD_NAMES:
        summary = record["sets"][0][name]
        assert summary["failed"] == 0 and summary["failed_frac"] == 0.0
        for section, names in declared.items():
            emitted = set(summary[section])
            assert emitted == names
            assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", n) for n in emitted)
    assert set(record["host"]) == {"nproc", "python", "machine", "commit"}


def test_smoke_workloads_isolate_their_layers(smoke_record):
    _, record = smoke_record
    layers = {n: record["sets"][0][n]["per_layer"] for n in WORKLOAD_NAMES}
    for name, metrics in layers.items():
        searching = name == "search_reads"
        observed = name == "churn_observed"
        sharded = name == "sharded_k4"
        assert (metrics["search.share"] > 0) == searching
        # export_run is called (and returns at once) on every classic
        # run, so "no telemetry" is a few microseconds, not zero.
        observing = metrics["telemetry.share"] + metrics["health.share"]
        assert (observing > 0.001) == observed
        assert (metrics["telemetry.emit.calls"] > 0) == observed
        assert (metrics["experiments.shard_advance.calls"] > 0) == sharded
        assert (metrics["protocol.on_deliver.calls"] > 0) == (name == "msg_faults")
    # Observing must not perturb: same trajectory but for the records.
    steady = dict(record["sets"][0]["churn_steady"]["counts"])
    observed = dict(record["sets"][0]["churn_observed"]["counts"])
    assert steady.pop("telemetry.records") == 0
    assert observed.pop("telemetry.records") > 0
    assert steady == observed


def test_result_line_has_the_contract_shape(smoke_record):
    _, record = smoke_record
    one = {"msg_faults": record["sets"][0]["msg_faults"]}
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        line = run.result_line(one, SPEC, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        assert set(line["metrics"]) == {m["name"] for m in SPEC[section]}
        for metric in SPEC[section]:
            assert line["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_verifier_rejects_a_broken_final_state(tmp_path):
    config = workloads.build("churn_steady", 3, str(tmp_path), smoke=True)
    result = run_experiment(config)
    systems = [(result.ctx, result.policy)]
    assert verify.verify_run(result, systems, config, converged=False) == []
    result.ctx.overlay.aggregates.leaf_link_count += 1
    problems = verify.verify_run(result, systems, config, converged=False)
    assert problems and "invariants" in problems[0]


def test_science_band_applies_to_converged_workloads(tmp_path):
    # At smoke size the layers have not settled: the band must fire.
    config = workloads.build("churn_steady", 3, str(tmp_path), smoke=True)
    result = run_experiment(config)
    systems = [(result.ctx, result.policy)]
    problems = verify.verify_run(result, systems, config, converged=True)
    assert any("tail ratio" in p for p in problems)


def test_a_broken_run_fails_the_command(monkeypatch, capsys):
    real = run.spawn_child
    calls = []

    def tampering(*args, **kwargs):
        sample = real(*args, **kwargs)
        calls.append(sample)
        if len(calls) == 2:
            sample["fingerprint"] = "0" * 64
        return sample

    monkeypatch.setattr(run, "spawn_child", tampering)
    code = run.main(["--smoke", "--repeats", "3", "--workload", "churn_steady"])
    assert code == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert any("FAILED: fingerprint" in line for line in lines)
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (3, 1)


def test_a_crashing_child_counts_as_failed(monkeypatch, capsys):
    monkeypatch.setattr(
        run, "spawn_child", lambda *a, **k: {"error": "exit 1: boom", "traced": False}
    )
    code = run.main(["--smoke", "--repeats", "1", "--workload", "churn_steady"])
    assert code == 2  # nothing verified: no result line at all
    assert "FAILED: exit 1: boom" in capsys.readouterr().out
