"""Tests for the seed-replication harness."""

from __future__ import annotations

import pytest

from repro.experiments.configs import bench_config
from repro.experiments.registry import Experiment, get_experiment
from repro.experiments.replication import MetricStats, replicate

TINY = bench_config().with_(n=250, horizon=300.0, warmup=30.0)


class TestReplicate:
    @pytest.fixture(scope="class")
    def result(self):
        return replicate(get_experiment("figure6"), seeds=(1, 2, 3), config=TINY)

    def test_aggregates_every_numeric_metric(self, result):
        assert "tail_ratio_mean" in result.metrics
        assert "tail_ratio_error" in result.metrics
        stats = result.metrics["tail_ratio_mean"]
        assert stats.n == 3
        assert stats.minimum <= stats.mean <= stats.maximum

    def test_shape_is_seed_stable(self, result):
        """The reproduction claim: the ratio shape holds across seeds."""
        assert result.stable("tail_ratio_mean", max_cv=0.5)
        assert result.metrics["tail_ratio_error"].maximum < 1.0

    def test_render(self, result):
        out = result.render()
        assert "figure6 over 3 seeds" in out
        assert "tail_ratio_mean" in out

    def test_different_seeds_really_ran(self, result):
        stats = result.metrics["tail_ratio_mean"]
        assert stats.std > 0  # distinct sample paths

    def test_empty_seed_set_rejected(self):
        with pytest.raises(ValueError):
            replicate(get_experiment("figure6"), seeds=(), config=TINY)


class TestMetricStats:
    def test_cv(self):
        s = MetricStats("x", mean=10.0, std=2.0, minimum=8, maximum=12, n=3)
        assert s.cv == pytest.approx(0.2)

    def test_cv_zero_mean(self):
        s = MetricStats("x", mean=0.0, std=1.0, minimum=-1, maximum=1, n=2)
        assert s.cv == float("inf")
        z = MetricStats("x", mean=0.0, std=0.0, minimum=0, maximum=0, n=2)
        assert z.cv == 0.0


class TestBooleanAggregation:
    def test_bools_become_fractions(self):
        class FakeResult:
            def __init__(self, flag):
                self.flag = flag

            def check_shape(self):
                return {"held": self.flag, "value": 1.0}

        calls = iter([True, True, False])

        def run_fn(cfg):
            return FakeResult(next(calls))

        fake = Experiment("fake", "", "", run_fn, FakeResult.check_shape, str)
        result = replicate(fake, seeds=(1, 2, 3))
        assert result.metrics["held"].mean == pytest.approx(2 / 3)
