"""Unit tests for the FaultPlan configuration value."""

from __future__ import annotations

import math

import pytest

from repro.protocol.faults import FaultPlan


class TestValidation:
    def test_defaults_are_valid_and_lossless(self):
        plan = FaultPlan()
        assert plan.lossless
        assert plan.staleness_horizon == math.inf

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"loss_rate": 1.0},
            {"loss_rate": -0.1},
            {"latency_scale": -1.0},
            {"latency_scale": math.nan},
            {"latency_scale": math.inf},
            {"latency_sigma": 0.0},
            {"timeout": 0.0},
            {"max_retries": -1},
            {"backoff": 0.5},
            {"burst_loss_rate": 1.0},
            {"burst_interval": 0.0},
            {"burst_interval": 10.0, "burst_duration": 0.0},
            {"burst_interval": 10.0, "burst_duration": 11.0},
            {"staleness_horizon": 0.0},
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs)


class TestLossSchedule:
    def test_constant_loss_without_bursts(self):
        plan = FaultPlan(loss_rate=0.05)
        assert plan.loss_at(0.0) == plan.loss_at(123.4) == 0.05
        assert not plan.lossless

    def test_burst_windows_raise_the_rate(self):
        plan = FaultPlan(
            loss_rate=0.01,
            burst_loss_rate=0.5,
            burst_interval=10.0,
            burst_duration=2.0,
        )
        assert plan.loss_at(1.0) == 0.5  # inside the burst
        assert plan.loss_at(5.0) == 0.01  # between bursts
        assert plan.loss_at(11.5) == 0.5  # bursts repeat every interval
        assert not plan.lossless

    def test_burst_never_lowers_the_base_rate(self):
        plan = FaultPlan(
            loss_rate=0.4,
            burst_loss_rate=0.1,
            burst_interval=10.0,
            burst_duration=2.0,
        )
        assert plan.loss_at(1.0) == 0.4
