"""Offline analysis: graph statistics, equation validation, convergence."""

from .concentration import ConcentrationReport, gini, measure_lnn_concentration
from .convergence import ConvergenceReport, analyze_ratio_convergence
from .search_coverage import CoverageReport, measure_coverage
from .validation import (
    EquationCheck,
    validate_equation_a,
    validate_equation_b,
)

__all__ = [
    "ConcentrationReport",
    "gini",
    "measure_lnn_concentration",
    "ConvergenceReport",
    "analyze_ratio_convergence",
    "OverlayStats",
    "analyze_overlay",
    "backbone_connectivity",
    "CoverageReport",
    "measure_coverage",
    "EquationCheck",
    "validate_equation_a",
    "validate_equation_b",
]


def __getattr__(name: str):
    # Served lazily: graphstats imports networkx (~0.1 s), and every run
    # imports this package through ``repro.experiments``.
    if name in ("OverlayStats", "analyze_overlay", "backbone_connectivity"):
        from . import graphstats

        return getattr(graphstats, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
