"""Offline analysis: graph statistics and ratio convergence."""

from .convergence import ConvergenceReport, analyze_ratio_convergence
from .graphstats import OverlayStats, analyze_overlay, backbone_connectivity

__all__ = [
    "ConvergenceReport",
    "analyze_ratio_convergence",
    "OverlayStats",
    "analyze_overlay",
    "backbone_connectivity",
]

