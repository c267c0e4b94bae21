"""Unit tests for overlay graph statistics."""

from __future__ import annotations

import pytest

from repro.analysis.graphstats import analyze_overlay, backbone_connectivity
from repro.overlay.roles import Role
from repro.overlay.topology import Overlay
from tests.conftest import add_peer, build_small_overlay


class TestAnalyzeOverlay:
    def test_counts_and_ratio(self):
        ov = build_small_overlay(n_supers=3, leaves_per_super=4)
        stats = analyze_overlay(ov)
        assert stats.n == 15 and stats.n_super == 3 and stats.n_leaf == 12
        assert stats.ratio == pytest.approx(4.0)

    def test_degrees(self):
        ov = build_small_overlay(n_supers=3, leaves_per_super=4)
        stats = analyze_overlay(ov)
        assert stats.mean_super_degree == pytest.approx(6.0)  # 2 ring + 4 leaves
        assert stats.mean_leaf_degree == pytest.approx(1.0)
        assert stats.mean_backbone_degree == pytest.approx(2.0)

    def test_connected_backbone(self):
        ov = build_small_overlay(n_supers=4, leaves_per_super=1)
        stats = analyze_overlay(ov)
        assert stats.backbone_components == 1
        assert stats.largest_backbone_fraction == 1.0

    def test_partitioned_backbone_detected(self):
        ov = Overlay()
        for sid in range(4):
            add_peer(ov, sid, Role.SUPER)
        ov.connect(0, 1)
        ov.connect(2, 3)
        stats = analyze_overlay(ov)
        assert stats.backbone_components == 2
        assert stats.largest_backbone_fraction == 0.5

    def test_isolated_leaves_counted(self):
        ov = build_small_overlay(n_supers=2, leaves_per_super=1)
        add_peer(ov, 99, Role.LEAF)
        stats = analyze_overlay(ov)
        assert stats.isolated_leaves == 1

    def test_as_dict_round_trip(self):
        stats = analyze_overlay(build_small_overlay())
        d = stats.as_dict()
        assert d["n"] == stats.n and d["ratio"] == stats.ratio


class TestBackboneConnectivity:
    def test_fully_connected(self):
        assert backbone_connectivity(build_small_overlay(n_supers=5)) == 1.0

    def test_empty_backbone(self):
        assert backbone_connectivity(Overlay()) == 0.0
