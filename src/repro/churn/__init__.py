"""Churn substrate: distributions, arrivals, scenarios, and the driver."""

from .arrivals import warmup_join_times
from .distributions import (
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
from .lifecycle import ChurnDriver
from .scenarios import (
    Scenario,
    Shift,
    figure45_scenario,
    periodic_capacity_scenario,
    periodic_lifetime_scenario,
    stable_scenario,
)

__all__ = [
    "warmup_join_times",
    "BandwidthMixture",
    "ConstantDistribution",
    "ExponentialDistribution",
    "LogNormalDistribution",
    "ParetoDistribution",
    "ScalableDistribution",
    "UniformDistribution",
    "WeibullDistribution",
    "default_capacity_distribution",
    "default_lifetime_distribution",
    "ChurnDriver",
    "Scenario",
    "Shift",
    "figure45_scenario",
    "periodic_capacity_scenario",
    "periodic_lifetime_scenario",
    "stable_scenario",
]
