"""Unit tests for the Phase-2 µ estimator."""

from __future__ import annotations

import math

import pytest

from repro.core.config import DLMConfig
from repro.core.estimator import RatioEstimator
from tests.conftest import super_with_lnn
from tests.core.reference_related_set import RelatedSetView, mu_for_leaf


@pytest.fixture
def estimator():
    return RatioEstimator(DLMConfig(eta=40.0, m=2))  # k_l = 80


class TestSuperMu:
    def test_zero_at_kl(self, estimator):
        sup = super_with_lnn(80)
        assert estimator.mu_for_super(sup) == pytest.approx(0.0)

    def test_positive_when_overloaded(self, estimator):
        """l_nn = 160 > k_l: too few supers, mu = log 2."""
        sup = super_with_lnn(160)
        assert estimator.mu_for_super(sup) == pytest.approx(math.log(2))

    def test_negative_when_underloaded(self, estimator):
        sup = super_with_lnn(40)
        assert estimator.mu_for_super(sup) == pytest.approx(-math.log(2))

    def test_leafless_super_strongly_negative_but_finite(self, estimator):
        mu = estimator.mu_for_super(super_with_lnn(0))
        assert math.isfinite(mu) and mu < -3


class TestLeafMu:
    def test_uses_mean_lnn_over_g(self, estimator):
        view = RelatedSetView(
            members=(1, 2),
            capacities=(1.0, 1.0),
            ages=(1.0, 1.0),
            leaf_counts=(60, 100),  # mean 80 = k_l
        )
        assert mu_for_leaf(estimator.config, view) == pytest.approx(0.0)

    def test_none_for_empty_g(self, estimator):
        view = RelatedSetView(members=(), capacities=(), ages=())
        assert mu_for_leaf(estimator.config, view) is None

    def test_none_without_lnn_observations(self, estimator):
        """Members observed but no l_nn delivered: µ must not be
        fabricated from a floored zero mean."""
        view = RelatedSetView(
            members=(1, 2),
            capacities=(1.0, 1.0),
            ages=(1.0, 1.0),
            leaf_counts=(),
            missing=0,
        )
        assert mu_for_leaf(estimator.config, view) is None

    def test_sign_matches_global_imbalance(self, estimator):
        crowded = RelatedSetView((1,), (1.0,), (1.0,), (160,))
        sparse = RelatedSetView((1,), (1.0,), (1.0,), (20,))
        assert mu_for_leaf(estimator.config, crowded) > 0
        assert mu_for_leaf(estimator.config, sparse) < 0

