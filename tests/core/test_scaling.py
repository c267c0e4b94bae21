"""Unit tests for the X(µ)/Z(µ) adaptation (Phase 3/4 parameters).

These encode the directional prose of §4 -- and the DESIGN.md resolution
of the paper's self-contradictory leaf-threshold sentence.
"""

from __future__ import annotations

import pytest

from repro.core.config import DLMConfig
from repro.core.scaling import ParameterScaler


@pytest.fixture
def scaler():
    return ParameterScaler(
        DLMConfig(alpha=1.0, beta=1.0, z_promote_base=0.3, z_demote_base=0.7)
    )


class TestScaleFactor:
    def test_unity_at_equilibrium(self, scaler):
        assert scaler.scale_factor(0.0) == pytest.approx(1.0)

    def test_decreases_when_more_supers_needed(self, scaler):
        """§4: 'if it finds that the system needs more super-peers, it
        will decrease ... the two scale parameters'."""
        assert scaler.scale_factor(1.0) < 1.0

    def test_increases_when_too_many_supers(self, scaler):
        assert scaler.scale_factor(-1.0) > 1.0

    def test_monotone_decreasing_in_mu(self, scaler):
        xs = [scaler.scale_factor(mu) for mu in (-2, -1, 0, 1, 2)]
        assert xs == sorted(xs, reverse=True)

    def test_clamped_at_extremes(self, scaler):
        cfg = scaler.config
        assert scaler.scale_factor(100.0) == cfg.x_min
        assert scaler.scale_factor(-100.0) == cfg.x_max

    def test_alpha_zero_disables_scaling(self):
        scaler = ParameterScaler(DLMConfig(alpha=0.0))
        assert scaler.scale_factor(5.0) == 1.0
        assert scaler.scale_factor(-5.0) == 1.0


class TestThresholds:
    def test_bases_at_equilibrium(self, scaler):
        assert scaler.promote_threshold(0.0) == pytest.approx(0.3)
        assert scaler.demote_threshold(0.0) == pytest.approx(0.7)

    def test_demote_threshold_rises_when_supers_needed(self, scaler):
        """§4: 'super-peers will increase the values of the threshold
        variables to reduce the demotion tendencies'."""
        assert scaler.demote_threshold(1.0) > 0.7

    def test_promote_threshold_rises_when_supers_needed(self, scaler):
        """DESIGN.md interpretation: promotion fires on Y < Z, so more
        promotions require a *larger* Z (the paper's prose contradicts
        its own Phase-4 rule here; we follow the rule)."""
        assert scaler.promote_threshold(1.0) > 0.3

    def test_thresholds_fall_when_too_many_supers(self, scaler):
        assert scaler.promote_threshold(-1.0) < 0.3
        assert scaler.demote_threshold(-1.0) < 0.7

    def test_clamped_to_unit_interval(self, scaler):
        cfg = scaler.config
        assert scaler.promote_threshold(100.0) == cfg.z_max
        assert scaler.promote_threshold(-100.0) == cfg.z_min
        assert scaler.demote_threshold(100.0) == cfg.z_max
        assert scaler.demote_threshold(-100.0) == cfg.z_min

    def test_beta_zero_freezes_thresholds(self):
        scaler = ParameterScaler(DLMConfig(beta=0.0))
        assert scaler.promote_threshold(3.0) == scaler.config.z_promote_base
        assert scaler.demote_threshold(-3.0) == scaler.config.z_demote_base


class TestAdapt:
    def test_bundles_all_parameters(self, scaler):
        params = scaler.adapt(0.5)
        assert params.mu == 0.5
        assert params.x_capa == params.x_age == scaler.scale_factor(0.5)
        assert params.z_promote == scaler.promote_threshold(0.5)
        assert params.z_demote == scaler.demote_threshold(0.5)

    def test_hysteresis_gap_preserved_near_equilibrium(self, scaler):
        params = scaler.adapt(0.1)
        assert params.z_promote < params.z_demote

    def test_memo_returns_the_same_values_and_stays_bounded(self, scaler):
        fresh = ParameterScaler(scaler.config)
        first = scaler.adapt(0.25)
        assert scaler.adapt(0.25) is first
        assert first == fresh.adapt(0.25)
        for i in range(3 * ParameterScaler._MEMO_LIMIT):
            mu = i / 1000.0
            assert scaler.adapt(mu) == ParameterScaler(scaler.config).adapt(mu)
            assert len(scaler._memo) <= ParameterScaler._MEMO_LIMIT
