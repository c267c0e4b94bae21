"""Property tests for churn distributions and the content catalog."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.churn.distributions import (
    BandwidthMixture,
    ExponentialDistribution,
    LogNormalDistribution,
    ParetoDistribution,
    WeibullDistribution,
)
from repro.search.content import ContentCatalog
from tests.conftest import examples


@given(
    st.floats(min_value=1.0, max_value=500.0),
    st.floats(min_value=0.1, max_value=2.5),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=examples(0.4))
def test_lognormal_positive_and_scaled(median, sigma, seed):
    d = LogNormalDistribution(median=median, sigma=sigma)
    rng = np.random.default_rng(seed)
    s = d.sample(rng, 200)
    assert np.all(s > 0)
    d.set_scale(3.0)
    s2 = d.sample(np.random.default_rng(seed), 200)
    np.testing.assert_allclose(s2, 3.0 * s)


@given(
    st.floats(min_value=1.01, max_value=10.0),
    st.floats(min_value=0.1, max_value=100.0),
)
@settings(max_examples=examples(0.4))
def test_pareto_respects_minimum(alpha, xmin):
    d = ParetoDistribution(alpha=alpha, xmin=xmin)
    s = d.sample(np.random.default_rng(0), 500)
    assert np.all(s >= xmin)
    assert d.base_mean >= xmin


@given(
    st.floats(min_value=0.2, max_value=5.0),
    st.floats(min_value=0.1, max_value=100.0),
)
@settings(max_examples=examples(0.4))
def test_weibull_mean_formula(k, lam):
    d = WeibullDistribution(k=k, lam=lam)
    s = d.sample(np.random.default_rng(1), 60_000)
    assert abs(s.mean() - d.mean) / d.mean < 0.25


@given(st.floats(min_value=0.01, max_value=1e4))
@settings(max_examples=examples(0.4))
def test_exponential_memoryless_mean(mean):
    d = ExponentialDistribution(mean)
    assert d.base_mean == mean


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.1, max_value=10.0),
            st.floats(min_value=1.0, max_value=1000.0),
            st.floats(min_value=0.0, max_value=0.9),
        ),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=examples(0.4))
def test_mixture_mean_is_weighted_center(classes):
    d = BandwidthMixture(classes)
    weights = np.array([c[0] for c in classes])
    centers = np.array([c[1] for c in classes])
    expected = float(np.dot(weights / weights.sum(), centers))
    assert d.base_mean == np.float64(expected)


@given(st.integers(1, 5000), st.floats(min_value=0.0, max_value=3.0))
@settings(max_examples=examples(0.3))
def test_catalog_probabilities_valid(n_objects, s):
    cat = ContentCatalog(n_objects=n_objects, s=s)
    probs = cat.probabilities
    assert probs.shape == (n_objects,)
    assert abs(probs.sum() - 1.0) < 1e-9
    assert np.all(probs > 0)
    assert np.all(np.diff(probs) <= 1e-18)  # non-increasing in rank


@given(st.integers(1, 200), st.integers(0, 50), st.integers(0, 2**31 - 1))
@settings(max_examples=examples(0.4))
def test_shared_sets_within_catalog(n_objects, n_files, seed):
    cat = ContentCatalog(n_objects=n_objects, s=0.8)
    files = cat.sample_shared_set(np.random.default_rng(seed), n_files)
    assert len(files) == len(set(files))
    assert all(0 <= f < n_objects for f in files)
