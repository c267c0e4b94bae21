"""Topology analysis over overlay snapshots.

Degree distributions, backbone connectivity, and reachability -- the
structural health indicators behind the paper's §3 argument that too few
super-peers centralizes the network and too many degrades it toward pure
flooding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..overlay.topology import Overlay

__all__ = [
    "OverlayStats",
    "analyze_overlay",
    "backbone_component_sizes",
    "backbone_connectivity",
]


@dataclass(frozen=True, slots=True)
class OverlayStats:
    """Structural descriptors of one overlay snapshot."""

    n: int
    n_super: int
    n_leaf: int
    ratio: float
    mean_super_degree: float
    mean_leaf_degree: float
    mean_backbone_degree: float
    backbone_components: int
    largest_backbone_fraction: float
    isolated_leaves: int

    def as_dict(self) -> Dict[str, float]:
        """All descriptors as a plain dict (for tabulation)."""
        return {
            "n": self.n,
            "n_super": self.n_super,
            "n_leaf": self.n_leaf,
            "ratio": self.ratio,
            "mean_super_degree": self.mean_super_degree,
            "mean_leaf_degree": self.mean_leaf_degree,
            "mean_backbone_degree": self.mean_backbone_degree,
            "backbone_components": self.backbone_components,
            "largest_backbone_fraction": self.largest_backbone_fraction,
            "isolated_leaves": self.isolated_leaves,
        }


def analyze_overlay(overlay: Overlay) -> OverlayStats:
    """Compute :class:`OverlayStats` for the current overlay state."""
    sup_deg = []
    leaf_deg = []
    bb_deg = []
    isolated = 0
    for peer in overlay.peers():
        if peer.is_super:
            sup_deg.append(peer.degree)
            bb_deg.append(len(peer.super_neighbors))
        else:
            leaf_deg.append(peer.degree)
            if peer.degree == 0:
                isolated += 1
    sizes = backbone_component_sizes(overlay)
    return OverlayStats(
        n=overlay.n,
        n_super=overlay.n_super,
        n_leaf=overlay.n_leaf,
        ratio=overlay.layer_size_ratio(),
        mean_super_degree=float(np.mean(sup_deg)) if sup_deg else 0.0,
        mean_leaf_degree=float(np.mean(leaf_deg)) if leaf_deg else 0.0,
        mean_backbone_degree=float(np.mean(bb_deg)) if bb_deg else 0.0,
        backbone_components=len(sizes),
        largest_backbone_fraction=max(sizes) / overlay.n_super if sizes else 0.0,
        isolated_leaves=isolated,
    )


def backbone_component_sizes(overlay: Overlay) -> List[int]:
    """Super-peer counts of the backbone's connected components.

    A breadth-first search over the store's ``sn`` column, whose entries
    on a super-peer row are its super--super links; components come in
    ``super_ids`` order of their first member.
    """
    sn, get = overlay.store.sn, overlay.get
    seen = set()
    sizes = []
    for root in overlay.super_ids:
        if root in seen:
            continue
        seen.add(root)
        frontier = [root]
        for pid in frontier:  # the list grows while it is walked: a BFS
            for other in sn[get(pid)._slot]:
                if other not in seen:
                    seen.add(other)
                    frontier.append(other)
        sizes.append(len(frontier))
    return sizes


def backbone_connectivity(overlay: Overlay) -> float:
    """Fraction of super-peers in the largest backbone component.

    1.0 means every query can, in principle, reach every index; values
    below ~0.95 indicate a partitioned search plane.
    """
    sizes = backbone_component_sizes(overlay)
    return max(sizes) / overlay.n_super if sizes else 0.0
