"""Shared benchmark configuration.

The ablation, extension, calibration and scaling benches run at laptop
scale (``bench_config``: the Table-2 shape at n = 2000) and print their
tables; absolute timings are what pytest-benchmark reports.  The paper's
figure and table claims are not here: each is banded on its registry
row and judged by ``repro report``.

Scale can be overridden with ``REPRO_BENCH_N`` / ``REPRO_BENCH_HORIZON``
environment variables (e.g. for a full-scale overnight run).
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.configs import ExperimentConfig, bench_config


def _env_scaled(cfg: ExperimentConfig) -> ExperimentConfig:
    n = os.environ.get("REPRO_BENCH_N")
    horizon = os.environ.get("REPRO_BENCH_HORIZON")
    if n:
        cfg = cfg.with_(n=int(n))
    if horizon:
        cfg = cfg.with_(horizon=float(horizon))
    return cfg


@pytest.fixture(scope="session")
def bench_cfg() -> ExperimentConfig:
    """The benchmark-scale Table-2 configuration."""
    return _env_scaled(bench_config())


def emit(title: str, body: str) -> None:
    """Print a labelled block (shown with pytest -s / captured otherwise)."""
    bar = "=" * 74
    print(f"\n{bar}\n{title}\n{bar}\n{body}\n")
