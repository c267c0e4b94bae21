"""Offline analysis: graph statistics, concentration, convergence, coverage."""

from .concentration import ConcentrationReport, gini, measure_lnn_concentration
from .convergence import ConvergenceReport, analyze_ratio_convergence
from .graphstats import OverlayStats, analyze_overlay, backbone_connectivity
from .search_coverage import CoverageReport, measure_coverage

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
]

