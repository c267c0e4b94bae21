"""Unit tests for flood-coverage analysis."""

from __future__ import annotations

import pytest

from repro.analysis.search_coverage import measure_coverage
from repro.overlay.roles import Role
from repro.overlay.topology import Overlay
from tests.conftest import add_peer, build_small_overlay


def chain_overlay(n_supers: int, leaves_per_super: int = 0) -> Overlay:
    ov = Overlay()
    for sid in range(n_supers):
        add_peer(ov, sid, Role.SUPER)
        if sid:
            ov.connect(sid - 1, sid)
    pid = 1000
    for sid in range(n_supers):
        for _ in range(leaves_per_super):
            add_peer(ov, pid, Role.LEAF)
            ov.connect(pid, sid)
            pid += 1
    return ov


class TestMeasureCoverage:
    def test_full_coverage_on_small_ring(self, rng):
        ov = build_small_overlay(n_supers=4, leaves_per_super=2)
        report = measure_coverage(ov, rng, ttl=4, samples=4)
        assert report.backbone_coverage == 1.0
        assert report.content_coverage == 1.0

    def test_ttl_limits_chain_coverage(self, rng):
        ov = chain_overlay(n_supers=10)
        report = measure_coverage(ov, rng, ttl=2, samples=10)
        # From any chain position, at most 5 of 10 supers are within 2 hops.
        assert report.backbone_coverage <= 0.5
        assert report.mean_supers_reached <= 5.0

    def test_leaves_counted_once(self, rng):
        """A leaf with links to two visited supers must not double count."""
        ov = Overlay()
        add_peer(ov, 0, Role.SUPER)
        add_peer(ov, 1, Role.SUPER)
        ov.connect(0, 1)
        add_peer(ov, 10, Role.LEAF)
        ov.connect(10, 0)
        ov.connect(10, 1)
        report = measure_coverage(ov, rng, ttl=2, samples=2)
        assert report.content_coverage == pytest.approx(1.0)

    def test_empty_super_layer(self, rng):
        ov = Overlay()
        add_peer(ov, 0, Role.LEAF)
        report = measure_coverage(ov, rng)
        assert report.backbone_coverage == 0.0 and report.samples == 0

    def test_partitioned_backbone_partial_coverage(self, rng):
        ov = Overlay()
        for sid in range(4):
            add_peer(ov, sid, Role.SUPER)
        ov.connect(0, 1)
        ov.connect(2, 3)
        report = measure_coverage(ov, rng, ttl=5, samples=4)
        assert report.backbone_coverage == pytest.approx(0.5)

    def test_validation(self, rng):
        ov = build_small_overlay()
        with pytest.raises(ValueError):
            measure_coverage(ov, rng, ttl=0)
        with pytest.raises(ValueError):
            measure_coverage(ov, rng, samples=0)

    def test_samples_capped_by_super_count(self, rng):
        ov = build_small_overlay(n_supers=3)
        report = measure_coverage(ov, rng, samples=50)
        assert report.samples == 3
