"""Property-based tests for the Phase-2 µ estimator.

Hypothesis drives :class:`~repro.core.estimator.RatioEstimator` over the
whole admissible input space; the properties are the §4 Phase-2
invariants the fixed-example unit tests can only spot-check:

* sign(µ) matches the ordering of the (mean) observed ``l_nn`` vs the
  optimum ``k_l = m·η`` -- with the ``l_nn = 0`` floor as the one
  documented exception,
* µ = 0 exactly at ``l_nn = k_l``,
* µ is monotone in the observed leaf counts (more crowded supers can
  never lower the "too few supers" signal),
* µ is ``None`` exactly when there is nothing observed to estimate from.
"""

from __future__ import annotations

import math

from hypothesis import given, strategies as st

from repro.core.config import DLMConfig
from repro.core.estimator import RatioEstimator
from tests.conftest import super_with_lnn
from tests.core.reference_related_set import RelatedSetView, mu_for_leaf

#: The floor mu_inappropriateness applies before the log (l_nn = 0 case).
FLOOR = 0.25

etas = st.floats(min_value=0.5, max_value=200.0, allow_nan=False)
ms = st.integers(min_value=1, max_value=8)
leaf_counts = st.lists(
    st.integers(min_value=0, max_value=2000), min_size=1, max_size=32
)


def estimator_for(eta: float, m: int) -> RatioEstimator:
    return RatioEstimator(DLMConfig(eta=eta, m=m))


def view_with(counts) -> RelatedSetView:
    n = len(counts)
    return RelatedSetView(
        members=tuple(range(n)),
        capacities=(1.0,) * n,
        ages=(1.0,) * n,
        leaf_counts=tuple(counts),
    )


class TestSuperMu:
    @given(eta=etas, m=ms, l_nn=st.integers(min_value=0, max_value=5000))
    def test_sign_matches_lnn_vs_kl_ordering(self, eta, m, l_nn):
        est = estimator_for(eta, m)
        mu = est.mu_for_super(super_with_lnn(l_nn))
        assert math.isfinite(mu)
        effective = max(l_nn, FLOOR)  # the documented l_nn = 0 floor
        if effective > est.config.k_l:
            assert mu > 0
        elif effective < est.config.k_l:
            assert mu < 0
        else:
            assert mu == 0.0

    @given(eta=etas, m=ms)
    def test_zero_exactly_at_equality(self, eta, m):
        est = estimator_for(eta, m)
        k_l = est.config.k_l
        view = view_with([k_l])  # mean == k_l exactly
        assert mu_for_leaf(est.config, view) == 0.0

    @given(eta=etas, m=ms, l_nn=st.integers(min_value=1, max_value=4999))
    def test_monotone_in_lnn(self, eta, m, l_nn):
        est = estimator_for(eta, m)
        lo, hi = super_with_lnn(l_nn), super_with_lnn(l_nn + 1)
        assert est.mu_for_super(lo) < est.mu_for_super(hi)


class TestLeafMu:
    @given(eta=etas, m=ms, counts=leaf_counts)
    def test_sign_matches_mean_vs_kl_ordering(self, eta, m, counts):
        est = estimator_for(eta, m)
        mu = mu_for_leaf(est.config, view_with(counts))
        assert mu is not None and math.isfinite(mu)
        effective = max(sum(counts) / len(counts), FLOOR)
        if effective > est.config.k_l:
            assert mu > 0
        elif effective < est.config.k_l:
            assert mu < 0
        else:
            assert mu == 0.0

    @given(eta=etas, m=ms, counts=leaf_counts, bump=st.integers(1, 100))
    def test_monotone_in_any_observation(self, eta, m, counts, bump):
        """Raising one observed l_nn (above the floor regime) raises µ."""
        est = estimator_for(eta, m)
        crowded = list(counts)
        crowded[0] += bump
        mu_lo = mu_for_leaf(est.config, view_with(counts))
        mu_hi = mu_for_leaf(est.config, view_with(crowded))
        if sum(counts) / len(counts) >= FLOOR:
            assert mu_hi > mu_lo
        else:
            assert mu_hi >= mu_lo  # both may sit on the floor

    @given(eta=etas, m=ms, n_members=st.integers(0, 8))
    def test_none_iff_nothing_observed(self, eta, m, n_members):
        """Members without delivered l_nn yield None, never a fabricated
        value from the floor."""
        est = estimator_for(eta, m)
        view = RelatedSetView(
            members=tuple(range(n_members)),
            capacities=(1.0,) * n_members,
            ages=(1.0,) * n_members,
            leaf_counts=(),
        )
        assert mu_for_leaf(est.config, view) is None
