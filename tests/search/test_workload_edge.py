"""Edge cases of the query workload's source selection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.overlay.roles import Role
from repro.overlay.topology import Overlay
from repro.search.content import ContentCatalog
from repro.search.flooding import FloodRouter
from repro.search.index import ContentDirectory
from repro.search.workload import QueryWorkload
from repro.sim.scheduler import Simulator
from tests.conftest import add_peer


def build(peers):
    sim = Simulator(seed=1)
    ov = Overlay()
    catalog = ContentCatalog(n_objects=50)
    directory = ContentDirectory(
        ov, catalog, np.random.default_rng(2), files_per_peer=3
    )
    for pid, role in peers:
        add_peer(ov, pid, role)
    router = FloodRouter(ov, directory, ttl=3)
    wl = QueryWorkload(sim, ov, catalog, router, rate=1.0)
    return sim, ov, wl


class TestSourceSelection:
    def test_empty_overlay_issues_nothing(self):
        sim, ov, wl = build([])
        sim.run(until=50.0)
        assert wl.stats.snapshot.issued == 0

    def test_issue_one_on_empty_overlay_raises(self):
        sim, ov, wl = build([])
        with pytest.raises(RuntimeError, match="no peers"):
            wl.issue_one()

    def test_supers_only_network(self):
        sim, ov, wl = build([(0, Role.SUPER), (1, Role.SUPER)])
        ov.connect(0, 1)
        out = wl.issue_one()
        assert out.source in (0, 1)

    def test_leaves_only_network(self):
        """Pathological but must not crash: all peers are leaves."""
        sim, ov, wl = build([(0, Role.LEAF), (1, Role.LEAF)])
        out = wl.issue_one()
        assert out.source in (0, 1)
        assert not out.found or out.first_hit_hops == 0

    def test_sources_cover_both_layers(self):
        sim, ov, wl = build(
            [(0, Role.SUPER), (1, Role.SUPER)] + [(i, Role.LEAF) for i in range(2, 12)]
        )
        for lid in range(2, 12):
            ov.connect(lid, lid % 2)
        sources = {wl.issue_one().source for _ in range(200)}
        assert any(s in (0, 1) for s in sources)  # supers get queries
        assert any(s >= 2 for s in sources)  # leaves do too
