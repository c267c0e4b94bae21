"""Unit tests for experiment configurations (Table 2 conformance)."""

from __future__ import annotations

import math

import pytest

from repro.core.config import DLMConfig
from repro.experiments.configs import (
    ExperimentConfig,
    SearchConfig,
    bench_config,
    table2_config,
)


class TestTable2Conformance:
    """The paper's Table 2, verbatim."""

    def test_population(self):
        assert table2_config().n == 50_000

    def test_eta_40(self):
        assert table2_config().eta == 40.0

    def test_m_2(self):
        assert table2_config().m == 2

    def test_kl_80(self):
        assert table2_config().k_l == 80.0

    def test_ks_3(self):
        assert table2_config().k_s == 3

    def test_expected_supers_1220(self):
        assert table2_config().expected_supers == pytest.approx(1219.5, abs=1.0)

    def test_horizon_2000(self):
        assert table2_config().horizon == 2000.0


class TestDerivedAndCopies:
    def test_scaled_changes_n_only(self):
        cfg = table2_config().scaled(2_000)
        assert cfg.n == 2_000
        assert cfg.eta == 40.0 and cfg.horizon == 2000.0

    def test_scaled_with_horizon(self):
        cfg = table2_config().scaled(1_000, horizon=500.0)
        assert cfg.horizon == 500.0

    def test_with_overrides(self):
        cfg = table2_config().with_(seed=7, eta=10.0)
        assert cfg.seed == 7 and cfg.eta == 10.0

    def test_dlm_config_inherits_structure(self):
        cfg = table2_config().with_(eta=10.0, m=3)
        dlm = cfg.dlm_config()
        assert dlm.eta == 10.0 and dlm.m == 3

    def test_explicit_dlm_config_wins(self):
        custom = DLMConfig(eta=5.0)
        cfg = table2_config().with_(dlm=custom)
        assert cfg.dlm_config() is custom

    def test_bench_config_preserves_shape_parameters(self):
        bench = bench_config()
        full = table2_config()
        assert bench.n < full.n
        assert bench.eta == full.eta
        assert bench.m == full.m and bench.k_s == full.k_s
        assert bench.horizon == full.horizon


class TestValidation:
    def test_invalid_n(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n=1)

    def test_horizon_must_exceed_warmup(self):
        with pytest.raises(ValueError):
            ExperimentConfig(horizon=50.0, warmup=100.0)

    @pytest.mark.parametrize(
        "kwargs",
        [{"horizon": math.nan}, {"horizon": math.inf}, {"warmup": math.nan}],
    )
    def test_horizon_and_warmup_must_be_finite(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            ExperimentConfig(**kwargs)

    def test_invalid_intervals(self):
        with pytest.raises(ValueError):
            ExperimentConfig(sample_interval=0.0)

    def test_search_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(query_rate=0.0)
        with pytest.raises(ValueError):
            SearchConfig(ttl=0)
        with pytest.raises(ValueError):
            SearchConfig(n_objects=0)
        with pytest.raises(ValueError):
            SearchConfig(files_per_peer=-1)
