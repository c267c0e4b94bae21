"""Unit tests for the churn distributions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.churn.distributions import (
    BandwidthMixture,
    ConstantDistribution,
    ExponentialDistribution,
    LogNormalDistribution,
    ParetoDistribution,
    ScalableDistribution,
    UniformDistribution,
    WeibullDistribution,
    default_capacity_distribution,
    default_lifetime_distribution,
)
from repro.churn.multimetric import default_multimetric_capacity

ALL_DISTS = [
    LogNormalDistribution(median=60.0, sigma=1.0),
    ParetoDistribution(alpha=2.0, xmin=10.0),
    ExponentialDistribution(mean=50.0),
    WeibullDistribution(k=0.7, lam=40.0),
    UniformDistribution(lo=1.0, hi=9.0),
    ConstantDistribution(5.0),
    BandwidthMixture(),
]


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: type(d).__name__)
class TestCommonContract:
    def test_samples_positive(self, dist, rng):
        assert np.all(dist.sample(rng, 500) > 0)

    def test_sample_count(self, dist, rng):
        assert dist.sample(rng, 7).shape == (7,)
        assert dist.sample(rng, 0).shape == (0,)

    def test_empirical_mean_near_theoretical(self, dist, rng):
        samples = dist.sample(rng, 60_000)
        assert samples.mean() == pytest.approx(dist.mean, rel=0.15)

    def test_scale_multiplies_mean(self, dist, rng):
        base = dist.mean
        dist.set_scale(2.0)
        try:
            assert dist.mean == pytest.approx(2.0 * base)
            samples = dist.sample(rng, 60_000)
            assert samples.mean() == pytest.approx(2.0 * base, rel=0.15)
        finally:
            dist.set_scale(1.0)

    def test_negative_n_rejected(self, dist, rng):
        with pytest.raises(ValueError):
            dist.sample(rng, -1)

    def test_nonpositive_scale_rejected(self, dist, rng):
        with pytest.raises(ValueError):
            dist.set_scale(0.0)

    def test_sample_one_is_scalar(self, dist, rng):
        assert isinstance(dist.sample_one(rng), float)


# Every distribution class in the package, overriding ``sample_one`` or not.
SCALAR_CASES = ALL_DISTS + [default_multimetric_capacity()]


def test_scalar_cases_cover_every_distribution_class():
    shipped = {
        cls
        for cls in ScalableDistribution.__subclasses__()
        if cls.__module__.startswith("repro.")
    }
    assert shipped <= {type(d) for d in SCALAR_CASES}


@pytest.mark.parametrize("dist", SCALAR_CASES, ids=lambda d: type(d).__name__)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    scale=st.floats(min_value=1e-3, max_value=1e3),
)
@settings(max_examples=20, deadline=None)
def test_sample_one_is_the_vector_stream(dist, seed, scale):
    """``sample_one`` returns the bits ``sample(rng, 1)[0]`` would and
    leaves the generator where that call would (scalar overrides on the
    per-join path must not move a single draw)."""
    scalar_rng, vector_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    dist.set_scale(scale)
    try:
        for _ in range(50):
            one = dist.sample_one(scalar_rng)
            assert one.hex() == float(dist.sample(vector_rng, 1)[0]).hex()
        assert scalar_rng.bit_generator.state == vector_rng.bit_generator.state
    finally:
        dist.set_scale(1.0)


class TestLogNormal:
    def test_median_parameterization(self, rng):
        d = LogNormalDistribution(median=60.0, sigma=1.0)
        samples = d.sample(rng, 50_000)
        assert np.median(samples) == pytest.approx(60.0, rel=0.05)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LogNormalDistribution(median=0, sigma=1)
        with pytest.raises(ValueError):
            LogNormalDistribution(median=1, sigma=0)


class TestPareto:
    def test_minimum_respected(self, rng):
        d = ParetoDistribution(alpha=2.0, xmin=10.0)
        assert d.sample(rng, 1000).min() >= 10.0

    def test_alpha_at_most_one_rejected(self):
        with pytest.raises(ValueError, match="finite mean"):
            ParetoDistribution(alpha=1.0, xmin=1.0)


class TestUniform:
    def test_bounds(self, rng):
        d = UniformDistribution(2.0, 4.0)
        s = d.sample(rng, 1000)
        assert s.min() >= 2.0 and s.max() <= 4.0

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            UniformDistribution(4.0, 2.0)


class TestBandwidthMixture:
    def test_multimodal_classes_all_present(self, rng):
        d = BandwidthMixture()
        s = d.sample(rng, 20_000)
        # each default class center should attract samples near it
        for _, center, jitter in BandwidthMixture.DEFAULT_CLASSES:
            lo, hi = center * (1 - jitter), center * (1 + jitter)
            assert np.any((s >= lo) & (s <= hi))

    def test_weights_normalized(self):
        d = BandwidthMixture([(2.0, 10.0, 0.1), (2.0, 20.0, 0.1)])
        assert d.weights.sum() == pytest.approx(1.0)
        assert d.base_mean == pytest.approx(15.0)

    def test_empty_classes_rejected(self):
        with pytest.raises(ValueError):
            BandwidthMixture([])

    def test_invalid_jitter_rejected(self):
        with pytest.raises(ValueError):
            BandwidthMixture([(1.0, 10.0, 1.5)])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            BandwidthMixture([(0.0, 10.0, 0.1)])


class TestDefaults:
    def test_default_lifetime_is_lognormal_hour_median(self):
        d = default_lifetime_distribution()
        assert isinstance(d, LogNormalDistribution)
        assert np.exp(d.mu) == pytest.approx(60.0)

    def test_default_capacity_is_mixture(self):
        assert isinstance(default_capacity_distribution(), BandwidthMixture)
