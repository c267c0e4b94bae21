"""Unit tests for overlay graph statistics."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.analysis.graphstats import (
    analyze_overlay,
    backbone_component_sizes,
    backbone_connectivity,
)
from repro.overlay.roles import Role
from repro.overlay.topology import Overlay
from tests.conftest import add_peer, build_small_overlay, examples


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


@given(
    n_supers=st.integers(0, 25),
    n_leaves=st.integers(0, 10),
    links=st.lists(st.tuples(st.integers(0, 24), st.integers(0, 24)), max_size=40),
    removed=st.lists(st.integers(0, 24), max_size=5),
)
@settings(max_examples=examples(1), deadline=None)
def test_bfs_components_match_networkx(n_supers, n_leaves, links, removed):
    """The BFS over the ``sn`` column finds networkx's backbone components;
    leaves, removed supers and their links count in none of them."""
    nx = pytest.importorskip("networkx")
    ov = Overlay()
    for sid in range(n_supers):
        add_peer(ov, sid, Role.SUPER)
    for i in range(n_leaves):
        add_peer(ov, 100 + i, Role.LEAF)
        if n_supers:
            ov.connect(100 + i, i % n_supers)
    for a, b in links:
        if a < n_supers and b < n_supers and a != b:
            ov.connect(a, b)
    for sid in set(removed):
        if sid < n_supers:
            ov.remove_peer(sid)
    g = nx.Graph()
    g.add_nodes_from(ov.super_ids)
    g.add_edges_from((s, o) for s in ov.super_ids for o in ov.peer(s).super_neighbors)
    want = sorted(len(c) for c in nx.connected_components(g))
    assert sorted(backbone_component_sizes(ov)) == want
    assert analyze_overlay(ov).backbone_components == len(want)


def test_run_path_does_not_import_networkx():
    """networkx is a test reference only: neither a run nor the analysis
    package imports it."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    code = (
        "import sys, repro.experiments.runner, repro.experiments.sharded, "
        "repro.cli, repro.analysis, repro.experiments.tournament; "
        "assert 'networkx' not in sys.modules"
    )
    subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        check=True,
        timeout=120,
    )
