"""The HealthMonitor wired into real runs, and the flight recorder."""

from __future__ import annotations

import io
import json

from repro.experiments.configs import table2_config
from repro.health.config import HealthConfig
from repro.health.flight import load_flight_bundle
from repro.experiments.runner import run_experiment
from repro.telemetry import TelemetryConfig
from repro.telemetry.cli import main as telemetry_main


def small_config(**kw):
    return table2_config().with_(
        name="health-test", n=200, horizon=80.0, warmup=20.0, seed=5, **kw
    )


class TestMonitorWiring:
    def test_health_auto_enables_telemetry(self):
        result = run_experiment(small_config(health=HealthConfig()))
        assert result.telemetry.enabled
        assert result.health_monitor is not None
        assert result.telemetry.registry.collect()["health.ticks"] > 0

    def test_no_health_config_means_no_monitor_and_no_records(self):
        result = run_experiment(
            small_config(telemetry=TelemetryConfig())
        )
        assert result.health_monitor is None
        assert not [
            d for d in result.telemetry.log.dicts()
            if d["kind"].startswith("health.")
        ]
        assert "health.ticks" not in result.telemetry.registry.collect()

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

    def test_disabled_thresholds_drop_detectors(self):
        cfg = HealthConfig(
            ratio_band=None,
            flap_transitions=None,
            imbalance_ratio=None,
            surge_count=None,
            defer_rate=None,
            stall_events_per_unit=None,
        )
        result = run_experiment(small_config(health=cfg))
        assert result.health_monitor.detectors == []


class TestFlightRecorder:
    def force_critical(self, tmp_path, **health_kw):
        flight = tmp_path / "flight.json"
        cfg = small_config(
            health=HealthConfig(
                ratio_band=0.0,  # every tick breaches
                critical_after=1,
                flight_path=str(flight),
                **health_kw,
            )
        )
        return run_experiment(cfg), flight

    def test_critical_firing_writes_one_bounded_bundle(self, tmp_path):
        result, flight = self.force_critical(tmp_path, record_tail=25)
        monitor = result.health_monitor
        criticals = result.telemetry.registry.collect()["health.criticals"]
        assert criticals >= 1
        assert monitor.dumps == 1  # max_dumps=1 bounds repeated criticals
        bundle = load_flight_bundle(str(flight))
        assert bundle["reason"] == "critical:ratio_drift"
        assert bundle["config"]["name"] == "health-test"
        assert len(bundle["records"]) <= 25
        assert bundle["records"]  # tail is non-empty
        assert bundle["sim"]["events_processed"] > 0
        assert bundle["config_hash"]

    def test_crash_dump_writes_a_sibling_bundle_with_the_traceback(
        self, tmp_path
    ):
        result, flight = self.force_critical(tmp_path)
        try:
            raise RuntimeError("boom for the recorder")
        except RuntimeError as exc:
            result.health_monitor.crash_dump(exc)
        crash = load_flight_bundle(str(flight) + ".crash")
        assert crash["reason"] == "exception"
        assert "boom for the recorder" in crash["error"]
        # The detector-triggered bundle was not clobbered.
        assert load_flight_bundle(str(flight))["reason"].startswith("critical:")

    def test_crash_dump_fires_on_unhandled_runner_exception(self, tmp_path):
        flight = tmp_path / "flight.json"
        cfg = small_config(
            health=HealthConfig(flight_path=str(flight)),
            # Sample cadence fine enough that the monitor attaches hooks.
        )

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

    def test_postmortem_cli_renders_the_bundle(self, tmp_path):
        _, flight = self.force_critical(tmp_path)
        out = io.StringIO()
        from repro.health.cli import cmd_postmortem

        class Args:
            bundle = str(flight)
            records = 3
            audit = 2
            json = False

        assert cmd_postmortem(Args(), out=out) == 0
        text = out.getvalue()
        assert "postmortem: health-test" in text
        assert "reason: critical:ratio_drift" in text
        assert "config_hash:" in text

    def test_postmortem_cli_json_roundtrips(self, tmp_path):
        _, flight = self.force_critical(tmp_path)
        out = io.StringIO()
        from repro.health.cli import cmd_postmortem

        class Args:
            bundle = str(flight)
            records = 3
            audit = 2
            json = True

        assert cmd_postmortem(Args(), out=out) == 0
        assert json.loads(out.getvalue())["kind"] == "postmortem"

    def test_postmortem_cli_rejects_a_non_bundle(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"kind": "something-else"}\n')
        assert telemetry_main(["postmortem", str(bogus)]) == 2
