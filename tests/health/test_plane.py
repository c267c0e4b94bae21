"""The health evidence of real runs, and the crash flight recorder."""

from __future__ import annotations

import io
import json
import sys

import pytest

from repro.experiments.configs import bench_config, table2_config
from repro.health.config import HealthConfig
from repro.health.detectors import HealthSample, build_detectors
from repro.health.evidence import replay
from repro.health.flight import (
    FlightRecorderError,
    build_flight_bundle,
    crash_dump,
    load_flight_bundle,
    write_flight_bundle,
)
from repro.experiments.runner import run_experiment
from repro.telemetry import TelemetryConfig
from repro.telemetry.export import iter_jsonl
from repro.telemetry.records import SCHEMAS, record_as_dict
from repro.cli import main as repro_main


def small_config(**kw):
    return table2_config().with_(
        name="health-test", n=200, horizon=80.0, warmup=20.0, seed=5, **kw
    )


def exported(tmp_path, health):
    """Run :func:`small_config` with ``health`` and return its stream."""
    jsonl = tmp_path / "run.jsonl"
    cfg = small_config(
        telemetry=TelemetryConfig(jsonl_path=str(jsonl)), health=health
    )
    return run_experiment(cfg), list(iter_jsonl(str(jsonl)))


class TestMonitorWiring:
    def test_health_auto_enables_telemetry(self):
        result = run_experiment(small_config(health=HealthConfig()))
        assert result.telemetry.enabled
        assert result.telemetry.log.records("sample")

    def test_no_health_config_means_no_monitor_and_no_records(self, tmp_path):
        _, lines = exported(tmp_path, None)
        assert "health" not in lines[0]
        assert not [d for d in lines if d["kind"] in ("sample", "role")]
        assert replay(iter(lines)) == (lines[0], None, 0)

    def test_health_plane_does_not_perturb_the_trajectory(self):
        plain = run_experiment(small_config())
        with_health = run_experiment(small_config(health=HealthConfig()))
        assert (
            plain.ctx.sim.events_processed
            == with_health.ctx.sim.events_processed
        )
        assert plain.overlay.n_super == with_health.overlay.n_super
        assert (
            plain.overlay.total_promotions
            == with_health.overlay.total_promotions
        )

    def test_disabled_thresholds_drop_detectors(self, tmp_path):
        cfg = HealthConfig(
            ratio_band=None,
            flap_transitions=None,
            imbalance_ratio=None,
            surge_count=None,
            defer_rate=None,
            stall_events_per_unit=None,
        )
        assert build_detectors(cfg, eta=40.0, grace=0.0) == []
        _, lines = exported(tmp_path, cfg)
        header, firings, ticks = replay(iter(lines))
        assert firings == [] and ticks > 0

    def test_one_sample_per_tick_and_one_role_record_per_role_change(
        self, tmp_path
    ):
        result, lines = exported(tmp_path, HealthConfig())
        samples = [d for d in lines if d["kind"] == "sample"]
        roles = [d for d in lines if d["kind"] == "role"]
        n_super = result.series["n_super"]
        assert [d["t"] for d in samples] == list(n_super.times)
        assert [d["n_super"] for d in samples] == list(n_super.values)
        # Every executed promotion and demotion, nothing the policy
        # only decided; the header carries what the fold needs.
        overlay = result.overlay
        promoted = [d for d in roles if d["role"] == "super"]
        assert len(promoted) == overlay.total_promotions > 0
        assert len(roles) - len(promoted) == overlay.total_demotions
        entry = lines[0]["health"]
        assert entry["eta"] == result.config.eta
        assert entry["grace"] == result.config.warmup
        assert "flight_path" not in entry

    def test_the_sample_schema_is_the_health_sample(self):
        fields = HealthSample.__dataclass_fields__
        assert ("t", *SCHEMAS["sample"]) == tuple(fields)

    def test_a_truncated_stream_is_refused(self, tmp_path):
        _, lines = exported(tmp_path, HealthConfig())
        lines.append({"kind": "truncation", "dropped": 1, "retained": 9})
        with pytest.raises(ValueError, match="dropped 1 records"):
            replay(iter(lines))

    def test_a_malformed_health_header_is_bad_input(self):
        header = {"kind": "run", "health": {"eta": 40.0, "bogus": 1}}
        with pytest.raises(ValueError, match="malformed health entry"):
            replay(iter([header]))
        with pytest.raises(ValueError, match="malformed health entry"):
            replay(iter([{"kind": "run", "health": {}}]))


class TestFlightRecorder:
    def crash_bundle(self, tmp_path, **health_kw):
        """A finished run's crash bundle, written as if it had died."""
        flight = tmp_path / "flight.json"
        cfg = small_config(health=HealthConfig(flight_path=str(flight), **health_kw))
        result = run_experiment(cfg)
        try:
            raise RuntimeError("boom for the recorder")
        except RuntimeError as exc:
            crash_dump(result, exc)
        return result, flight

    def test_a_critical_firing_writes_no_bundle(self, tmp_path):
        # A critical is the fold's verdict, after the run: the run has
        # nothing to dump for it.
        flight = tmp_path / "flight.json"
        jsonl = tmp_path / "run.jsonl"
        cfg = small_config(
            telemetry=TelemetryConfig(jsonl_path=str(jsonl)),
            health=HealthConfig(
                ratio_band=0.0, critical_after=1, flight_path=str(flight)
            ),
        )
        run_experiment(cfg)
        _, firings, _ = replay(iter_jsonl(str(jsonl)))
        assert any(f["severity"] == "critical" for f in firings)
        assert list(tmp_path.iterdir()) == [jsonl]

    def test_bundle_tails_equal_slices_of_a_wrapped_ring(self):
        cfg = bench_config().with_(
            n=300,
            horizon=150.0,
            warmup=50.0,
            seed=11,
            telemetry=TelemetryConfig(record_capacity=500),
            health=HealthConfig(ratio_band=0.2, critical_after=2),
        )
        result = run_experiment(cfg)
        log = result.telemetry.log
        assert log.dropped > 0 and len(log) == 500  # the ring has wrapped
        for record_tail, audit_tail in ((400, 150), (25, 900), (1, 1)):
            bundle = build_flight_bundle(
                telemetry=result.telemetry,
                sim=result.ctx.sim,
                config=cfg,
                policy_name="dlm",
                reason="test",
                record_tail=record_tail,
                audit_tail=audit_tail,
            )
            # The expressions the bundle used before RecordLog.tail.
            assert bundle["records"] == [
                record_as_dict(r) for r in tuple(log)[-record_tail:]
            ]
            assert bundle["audit"] == [
                record_as_dict(r) for r in log.records("audit")[-audit_tail:]
            ]
            if record_tail == 400:  # the tail crosses health evidence
                assert {r["kind"] for r in bundle["records"]} > {"audit"}

    def test_crash_dump_writes_a_sibling_bundle_with_the_traceback(
        self, tmp_path
    ):
        result, flight = self.crash_bundle(tmp_path, record_tail=25)
        crash = load_flight_bundle(str(flight) + ".crash")
        assert crash["reason"] == "exception"
        assert "boom for the recorder" in crash["error"]
        assert crash["config"]["name"] == "health-test"
        assert 0 < len(crash["records"]) <= 25
        assert crash["sim"]["events_processed"] > 0
        assert crash["config_hash"]
        assert not flight.exists()  # only the .crash sibling is written
        # No flight path, no bundle.
        assert crash_dump(run_experiment(small_config()), RuntimeError()) is None

    def test_crash_dump_fires_on_unhandled_runner_exception(self, tmp_path):
        flight = tmp_path / "flight.json"
        cfg = small_config(health=HealthConfig(flight_path=str(flight)))

        def exploding_policy(config):
            from repro.core.dlm import DLMPolicy

            policy = DLMPolicy(config.dlm_config())
            original = policy.evaluate

            def evaluate(*a, **kw):
                if policy_state["calls"] > 40:
                    raise RuntimeError("injected mid-run failure")
                policy_state["calls"] += 1
                return original(*a, **kw)

            policy_state = {"calls": 0}
            policy.evaluate = evaluate
            return policy

        raised = False
        try:
            run_experiment(cfg, policy_factory=exploding_policy)
        except RuntimeError:
            raised = True
        assert raised
        crash = load_flight_bundle(str(flight) + ".crash")
        assert crash["reason"] == "exception"
        assert "injected mid-run failure" in crash["error"]

    def test_an_uncreatable_flight_path_is_refused_before_the_run(
        self, tmp_path, capsys
    ):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        code = repro_main(
            ["figure6", "--n", "200", "--horizon", "120", "--health"]
            + ["--flight-recorder", str(blocker / "flight.json")]
        )
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: --flight-recorder")

    def test_a_refused_command_creates_no_flight_directory(self, tmp_path):
        flight = tmp_path / "new" / "dir" / "flight.json"
        code = repro_main(
            ["figure5", "--horizon", "180", "--flight-recorder", str(flight)]
        )
        assert code == 2
        assert not (tmp_path / "new").exists()

    def test_a_failed_dump_is_a_typed_error_and_leaves_no_tmp(self, tmp_path):
        # The directory exists, but the bundle cannot replace a directory
        # of the same name.
        result, _ = self.crash_bundle(tmp_path)
        target = tmp_path / "taken"
        target.mkdir()
        with pytest.raises(FlightRecorderError, match="cannot write flight bundle"):
            write_flight_bundle(
                str(target),
                telemetry=result.telemetry,
                sim=result.ctx.sim,
                config=result.config,
                policy_name="dlm",
                reason="test",
            )
        assert not list(tmp_path.glob("*.tmp"))

    def test_a_failed_crash_dump_never_masks_the_run_exception(
        self, tmp_path, caplog
    ):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        cfg = small_config(
            health=HealthConfig(flight_path=str(blocker / "flight.json"))
        )
        policy_state = {"calls": 0}

        def dividing_policy(config):
            from repro.core.dlm import DLMPolicy

            policy = DLMPolicy(config.dlm_config())
            original = policy.evaluate

            def evaluate(*a, **kw):
                policy_state["calls"] += 1
                if policy_state["calls"] > 40:
                    return 1 / 0
                return original(*a, **kw)

            policy.evaluate = evaluate
            return policy

        with caplog.at_level("WARNING", logger="repro.health"):
            with pytest.raises(ZeroDivisionError) as err:
                run_experiment(cfg, policy_factory=dividing_policy)
        (record,) = [r for r in caplog.records if r.name == "repro.health"]
        assert record.getMessage().startswith("flight recorder: no crash bundle:")
        if sys.version_info >= (3, 11):
            assert err.value.__notes__ == [record.getMessage()]

    def test_postmortem_cli_renders_the_bundle(self, tmp_path):
        _, flight = self.crash_bundle(tmp_path)
        flight = flight.with_name(flight.name + ".crash")
        out = io.StringIO()
        from repro.cli import cmd_postmortem

        class Args:
            bundle = str(flight)
            records = 3
            audit = 2
            json = False

        assert cmd_postmortem(Args(), out=out) == 0
        text = out.getvalue()
        assert "postmortem: health-test" in text
        assert "reason: exception" in text
        assert "boom for the recorder" in text
        assert "config_hash:" in text
        # A bundle written before the overlay family went still renders,
        # and renders the same.
        bundle = json.loads(flight.read_text())
        assert "family" not in bundle["config"]
        bundle["config"]["family"] = "superpeer"
        flight.write_text(json.dumps(bundle))
        old = io.StringIO()
        assert cmd_postmortem(Args(), out=old) == 0
        assert old.getvalue() == text

    def test_postmortem_cli_json_roundtrips(self, tmp_path):
        _, flight = self.crash_bundle(tmp_path)
        out = io.StringIO()
        from repro.cli import cmd_postmortem

        class Args:
            bundle = f"{flight}.crash"
            records = 3
            audit = 2
            json = True

        assert cmd_postmortem(Args(), out=out) == 0
        assert json.loads(out.getvalue())["kind"] == "postmortem"

    def test_postmortem_cli_rejects_a_non_bundle(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"kind": "something-else"}\n')
        assert repro_main(["postmortem", str(bogus)]) == 2
