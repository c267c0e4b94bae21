"""Property tests for the Phase-3 scaled comparison and Phase-2 µ."""

from __future__ import annotations

import math

from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import DLMConfig
from repro.core.equations import mu_inappropriateness
from repro.core.scaling import ParameterScaler
from tests.core.reference_related_set import scaled_fractions

positive = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False)
metric_lists = st.lists(positive, min_size=1, max_size=120)
scales = st.floats(min_value=0.05, max_value=20.0)


@given(positive, positive, metric_lists, scales, scales, st.data())
def test_y_values_are_fractions(own_cap, own_age, caps, x_capa, x_age, data):
    ages = data.draw(
        st.lists(positive, min_size=len(caps), max_size=len(caps))
    )
    result = scaled_fractions(own_cap, own_age, caps, ages, x_capa, x_age)
    assert 0.0 <= result.y_capa <= 1.0
    assert 0.0 <= result.y_age <= 1.0
    assert result.g_size == len(caps)
    # Y is a multiple of 1/|G| by construction (the paper's counting).
    # Tolerance because hits/n * n need not round-trip in floats
    # (13/23 * 23 != 13 exactly).
    hits = result.y_capa * len(caps)
    assert math.isclose(hits, round(hits), rel_tol=0.0, abs_tol=1e-6)


@given(positive, metric_lists, scales)
def test_y_monotone_decreasing_in_own_value(own_age, caps, x):
    """A stronger peer never sees a larger Y."""
    ages = [1.0] * len(caps)
    weak = scaled_fractions(min(caps) / 2, own_age, caps, ages, x, 1.0)
    strong = scaled_fractions(max(caps) * 2 * x, own_age, caps, ages, x, 1.0)
    assert strong.y_capa <= weak.y_capa


@given(positive, metric_lists)
def test_y_monotone_increasing_in_scale(own_cap, caps):
    """Raising X can only raise Y (more rivals appear to win)."""
    ages = [1.0] * len(caps)
    low = scaled_fractions(own_cap, 1.0, caps, ages, 0.1, 1.0)
    high = scaled_fractions(own_cap, 1.0, caps, ages, 10.0, 1.0)
    assert low.y_capa <= high.y_capa


@given(st.integers(0, 10_000), st.floats(min_value=1.0, max_value=1e3))
def test_mu_is_finite_and_sign_correct(l_nn, k_l):
    """l_nn is an integer neighbor count; k_l = m·η >= 1 in any real config."""
    mu = mu_inappropriateness(l_nn, k_l)
    assert math.isfinite(mu)
    if l_nn > k_l:
        assert mu > 0
    elif l_nn < k_l:
        assert mu < 0


@given(st.floats(min_value=-10.0, max_value=10.0))
def test_adapted_parameters_always_in_clamps(mu):
    cfg = DLMConfig()
    params = ParameterScaler(cfg).adapt(mu)
    assert cfg.x_min <= params.x_capa <= cfg.x_max
    assert cfg.z_min <= params.z_promote <= cfg.z_max
    assert cfg.z_min <= params.z_demote <= cfg.z_max


@given(
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=-5.0, max_value=5.0),
)
def test_adaptation_monotonicity(mu1, mu2):
    """X decreases with µ; both Z thresholds increase with µ."""
    scaler = ParameterScaler(DLMConfig())
    lo, hi = sorted((mu1, mu2))
    assert scaler.scale_factor(hi) <= scaler.scale_factor(lo)
    assert scaler.promote_threshold(hi) >= scaler.promote_threshold(lo)
    assert scaler.demote_threshold(hi) >= scaler.demote_threshold(lo)
