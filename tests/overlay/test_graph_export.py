"""Unit tests for networkx export."""

from __future__ import annotations

from repro.overlay.graph_export import backbone_graph, to_networkx
from tests.conftest import build_small_overlay


class TestToNetworkx:
    def test_node_and_edge_counts(self):
        ov = build_small_overlay(n_supers=3, leaves_per_super=4)
        g = to_networkx(ov)
        assert g.number_of_nodes() == 15
        # ring of 3 supers (3 edges) + 12 leaf links
        assert g.number_of_edges() == 3 + 12

    def test_node_attributes(self):
        ov = build_small_overlay(n_supers=2, leaves_per_super=1)
        g = to_networkx(ov, now=10.0)
        assert g.nodes[0]["role"] == "super"
        assert g.nodes[2]["role"] == "leaf"
        assert g.nodes[0]["age"] == 10.0
        assert g.nodes[0]["capacity"] == 200.0

    def test_edge_layers(self):
        ov = build_small_overlay(n_supers=3, leaves_per_super=1)
        g = to_networkx(ov)
        assert g.edges[0, 1]["layer"] == "backbone"
        assert g.edges[3, 0]["layer"] == "access"

    def test_export_is_a_copy(self):
        ov = build_small_overlay()
        g = to_networkx(ov)
        g.remove_node(0)
        assert 0 in ov  # live overlay untouched


class TestBackboneGraph:
    def test_contains_supers_only(self):
        ov = build_small_overlay(n_supers=4, leaves_per_super=2)
        bb = backbone_graph(ov)
        assert set(bb.nodes) == set(ov.super_ids)
        assert bb.number_of_edges() == 4  # the ring

    def test_single_super_backbone(self):
        ov = build_small_overlay(n_supers=1, leaves_per_super=3)
        bb = backbone_graph(ov)
        assert bb.number_of_nodes() == 1
        assert bb.number_of_edges() == 0


def test_run_path_does_not_import_networkx():
    """Every bench child, ``REPRO_WORKERS`` worker and shard worker pays
    the run path's imports; the ~0.1 s networkx import belongs to the
    callers of an export or of ``repro.analysis.graphstats``."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    code = (
        "import sys, repro.experiments.runner, repro.experiments.sharded, "
        "repro.cli; "
        "assert 'networkx' not in sys.modules; "
        "from repro.analysis import backbone_connectivity; "
        "from repro.overlay import to_networkx; "
        "assert 'networkx' in sys.modules"
    )
    subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        check=True,
        timeout=120,
    )
