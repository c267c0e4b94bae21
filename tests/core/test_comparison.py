"""Unit tests for the Phase-3 scaled comparison."""

from __future__ import annotations

import pytest

from repro.core.comparison import _VECTOR_THRESHOLD, scaled_fractions
from tests.core.reference_related_set import RelatedSetView, compare_against


class TestScaledFractions:
    def test_paper_pseudocode_semantics(self):
        """Y counts peers whose SCALED value strictly exceeds the local one."""
        result = scaled_fractions(
            own_capacity=100.0,
            own_age=10.0,
            capacities=[50.0, 150.0, 99.0],
            ages=[5.0, 20.0, 10.0],
            x_capa=1.0,
            x_age=1.0,
        )
        assert result.y_capa == pytest.approx(1 / 3)  # only 150 beats 100
        assert result.y_age == pytest.approx(1 / 3)  # ties do not count
        assert result.g_size == 3

    def test_scale_shifts_outcome(self):
        """With X=2, a peer of half the value appears to win."""
        result = scaled_fractions(100.0, 10.0, [60.0], [6.0], 2.0, 2.0)
        assert result.y_capa == 1.0 and result.y_age == 1.0

    def test_scale_below_one_shrinks_rivals(self):
        result = scaled_fractions(100.0, 10.0, [150.0], [15.0], 0.5, 0.5)
        assert result.y_capa == 0.0 and result.y_age == 0.0

    def test_bounds(self):
        result = scaled_fractions(0.0, 0.0, [1.0, 2.0], [1.0, 2.0], 1.0, 1.0)
        assert result.y_capa == 1.0 and result.y_age == 1.0

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            scaled_fractions(1.0, 1.0, [], [], 1.0, 1.0)

    def test_ragged_set_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            scaled_fractions(1.0, 1.0, [1.0], [1.0, 2.0], 1.0, 1.0)

    def test_metrics_are_disjoint(self):
        """A peer can win on capacity and lose on age (§4 Phase 3)."""
        result = scaled_fractions(100.0, 1.0, [50.0], [100.0], 1.0, 1.0)
        assert result.y_capa == 0.0 and result.y_age == 1.0


class TestVectorizedPathEquivalence:
    def test_large_sets_use_numpy_and_agree_with_loop(self, rng):
        n = _VECTOR_THRESHOLD * 3
        caps = list(rng.uniform(1, 200, n))
        ages = list(rng.uniform(1, 300, n))
        big = scaled_fractions(90.0, 120.0, caps, ages, 0.8, 1.3)
        # Compute the same by explicit loop.
        yc = sum(1 for c in caps if c * 0.8 > 90.0) / n
        ya = sum(1 for a in ages if a * 1.3 > 120.0) / n
        assert big.y_capa == pytest.approx(yc)
        assert big.y_age == pytest.approx(ya)

    def test_boundary_size(self, rng):
        n = _VECTOR_THRESHOLD
        caps = list(rng.uniform(1, 10, n))
        ages = list(rng.uniform(1, 10, n))
        r1 = scaled_fractions(5.0, 5.0, caps, ages, 1.0, 1.0)
        r2 = scaled_fractions(5.0, 5.0, caps[:-1], ages[:-1], 1.0, 1.0)
        assert 0.0 <= r1.y_capa <= 1.0 and 0.0 <= r2.y_capa <= 1.0


class TestCompareAgainst:
    def test_view_wrapper(self):
        view = RelatedSetView(
            members=(1, 2), capacities=(10.0, 30.0), ages=(1.0, 3.0)
        )
        result = compare_against(view, 20.0, 2.0, 1.0, 1.0)
        assert result.y_capa == 0.5 and result.y_age == 0.5
