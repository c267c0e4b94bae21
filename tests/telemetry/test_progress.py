"""WindowProgress: cadence, line format, and a reporter that lives in
the run loop, outside every simulator."""

from __future__ import annotations

import logging

import numpy as np
import pytest

from repro.experiments.configs import table2_config
from repro.experiments.runner import run_experiment
from repro.telemetry import TelemetryConfig
from repro.telemetry.progress import WindowProgress


class FakeClock:
    """A controllable wall clock (advances only when told to)."""

    def __init__(self) -> None:
        self.t = 0.0
        self.step = 0.0

    def __call__(self) -> float:
        self.t += self.step
        return self.t


def _config(**overrides):
    base = dict(name="prog", n=120, horizon=60.0, warmup=20.0, seed=5)
    base.update(overrides)
    return table2_config().with_(**base)


def _barriers(reporter: WindowProgress, n: int) -> None:
    for i in range(1, n + 1):
        reporter.update(float(i), 10 * i)


class TestCadence:
    def test_reports_at_wall_clock_cadence(self):
        clock = FakeClock()
        reporter = WindowProgress(horizon=10.0, every=5.0, clock=clock)
        clock.step = 2.0  # each barrier advances the wall clock 2s
        _barriers(reporter, 10)
        # 10 barriers x 2s apart, one report every >= 5s of wall time.
        assert 3 <= reporter.reports <= 4

    def test_no_reports_when_wall_clock_stalls(self):
        reporter = WindowProgress(horizon=10.0, every=5.0, clock=FakeClock())
        _barriers(reporter, 10)  # clock never advances past the cadence
        assert reporter.reports == 0

    def test_rejects_nonpositive_cadence(self):
        with pytest.raises(ValueError):
            WindowProgress(horizon=1.0, every=0.0)


class TestNonPerturbation:
    def test_reporter_schedules_no_events(self):
        plain = run_experiment(_config())
        observed = run_experiment(
            _config(telemetry=TelemetryConfig(progress_every=1e-9))
        )
        assert observed.ctx.sim.events_processed == plain.ctx.sim.events_processed
        for name in plain.series.names():
            a, b = plain.series[name], observed.series[name]
            assert np.array_equal(a.values, b.values), name

    def test_detach_stops_reporting(self, caplog):
        # The reporter lives in the loop, not in a simulator: once the
        # run has returned, nothing is left attached to report.
        cfg = _config(telemetry=TelemetryConfig(progress_every=1e-9))
        with caplog.at_level(logging.INFO, logger="repro.progress"):
            result = run_experiment(cfg)
            during = [r.getMessage() for r in caplog.records]
            result.ctx.sim.run(until=cfg.horizon + 20.0)
        assert during and all(line.startswith("prog: t=") for line in during)
        assert len(caplog.records) == len(during)


class TestEmit:
    def test_line_carries_label_progress_and_rates(self):
        clock = FakeClock()
        reporter = WindowProgress(horizon=8.0, every=1.0, label="fig6", clock=clock)
        clock.step = 2.0
        line = reporter.update(4.0, 40)
        assert line.startswith("fig6: t=4/8 (50.0%)")
        assert "events" in line and "ev/s" in line and "eta" in line

    def test_eta_unknown_without_sim_progress(self):
        clock = FakeClock()
        reporter = WindowProgress(horizon=5.0, every=1.0, clock=clock)
        clock.step = 1.0
        assert "eta ?" in reporter.update(0.0, 0)
