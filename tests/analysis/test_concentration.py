"""Unit tests for leaf-load concentration measurement."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.concentration import gini, measure_lnn_concentration
from repro.overlay.roles import Role
from repro.overlay.topology import Overlay
from tests.conftest import add_peer


class TestGini:
    def test_perfect_equality_is_zero(self):
        assert gini(np.array([5.0, 5.0, 5.0, 5.0])) == pytest.approx(0.0)

    def test_total_concentration_near_one(self):
        v = np.zeros(100)
        v[0] = 100.0
        assert gini(v) == pytest.approx(0.99, abs=0.01)

    def test_known_two_point_value(self):
        # one has everything of two peers: G = 1/2
        assert gini(np.array([0.0, 10.0])) == pytest.approx(0.5)

    def test_scale_invariant(self):
        v = np.array([1.0, 2.0, 3.0, 10.0])
        assert gini(v) == pytest.approx(gini(v * 7.0))

    def test_all_zero_sample(self):
        assert gini(np.zeros(5)) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            gini(np.array([]))
        with pytest.raises(ValueError):
            gini(np.array([-1.0, 2.0]))


def build_overlay(lnn_counts):
    ov = Overlay()
    pid = 1000
    for sid, count in enumerate(lnn_counts):
        add_peer(ov, sid, Role.SUPER)
    for sid, count in enumerate(lnn_counts):
        for _ in range(count):
            add_peer(ov, pid, Role.LEAF)
            ov.connect(pid, sid)
            pid += 1
    return ov


class TestConcentration:
    def test_uniform_loads_concentrate(self):
        ov = build_overlay([10, 10, 10, 10])
        report = measure_lnn_concentration(ov, k_l=10.0)
        assert report.mean_lnn == 10.0
        assert report.cv_lnn == pytest.approx(0.0)
        assert report.gini_lnn == pytest.approx(0.0)
        assert report.misjudgment_rate == 0.0

    def test_skewed_loads_flagged(self):
        """Globally overloaded (mean 20 > k_l 10) but one empty super
        reads the opposite sign: a misjudging peer."""
        ov = build_overlay([40, 40, 0, 0])
        report = measure_lnn_concentration(ov, k_l=10.0)
        assert report.mean_lnn == 20.0
        assert report.gini_lnn > 0.4
        assert report.misjudgment_rate == pytest.approx(0.5)

    def test_balanced_network_confident_errors_only(self):
        ov = build_overlay([10, 10, 9, 11])
        report = measure_lnn_concentration(ov, k_l=10.0)
        assert report.misjudgment_rate == 0.0

    def test_validation(self):
        ov = Overlay()
        add_peer(ov, 0, Role.LEAF)
        with pytest.raises(ValueError):
            measure_lnn_concentration(ov, k_l=10.0)
        with pytest.raises(ValueError):
            measure_lnn_concentration(build_overlay([1]), k_l=0.0)

    def test_concentration_improves_with_size(self):
        """The paper's §6 mechanism: CV of l_nn shrinks as n grows
        (binomial thinning), here on synthetic random assignment."""
        rng = np.random.default_rng(3)

        def cv_for(n_super, n_leaf, m=2):
            counts = np.bincount(
                rng.integers(n_super, size=n_leaf * m), minlength=n_super
            )
            ov = build_overlay(list(counts))
            return measure_lnn_concentration(
                ov, k_l=m * n_leaf / n_super
            ).cv_lnn

        small = cv_for(10, 200)
        large = cv_for(40, 3200)  # same k_l, 4x the supers
        assert large <= small
