"""Unit tests for warm-up arrival times."""

from __future__ import annotations

import pytest

from repro.churn.arrivals import warmup_join_times


class TestWarmupJoinTimes:
    def test_count_and_bounds(self, rng):
        times = warmup_join_times(100, 50.0, rng)
        assert len(times) == 100
        assert all(0.0 <= t <= 50.0 for t in times)

    def test_sorted(self, rng):
        times = warmup_join_times(200, 30.0, rng)
        assert times == sorted(times)

    def test_start_offset(self, rng):
        times = warmup_join_times(10, 5.0, rng, start=100.0)
        assert all(100.0 <= t <= 105.0 for t in times)

    def test_zero_warmup_all_at_start(self, rng):
        assert warmup_join_times(3, 0.0, rng, start=2.0) == [2.0, 2.0, 2.0]

    def test_zero_n(self, rng):
        assert warmup_join_times(0, 10.0, rng) == []

    def test_negative_inputs_rejected(self, rng):
        with pytest.raises(ValueError):
            warmup_join_times(-1, 10.0, rng)
        with pytest.raises(ValueError):
            warmup_join_times(1, -1.0, rng)

