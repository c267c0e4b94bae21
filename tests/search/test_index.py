"""Unit tests for the content directory and super-peer indexes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.overlay.roles import Role
from repro.overlay.topology import Overlay
from repro.search.content import ContentCatalog
from repro.search.index import ContentDirectory
from tests.conftest import add_peer


@pytest.fixture
def system():
    ov = Overlay()
    catalog = ContentCatalog(n_objects=50, s=0.5)
    directory = ContentDirectory(
        ov, catalog, np.random.default_rng(7), files_per_peer=5
    )
    add_peer(ov, 0, Role.SUPER)
    add_peer(ov, 1, Role.SUPER)
    ov.connect(0, 1)
    return ov, directory


class TestFileAssignment:
    def test_files_assigned_at_join(self, system):
        ov, directory = system
        add_peer(ov, 10, Role.LEAF)
        assert len(directory.files(10)) >= 1

    def test_files_cleared_on_leave(self, system):
        ov, directory = system
        add_peer(ov, 10, Role.LEAF)
        ov.remove_peer(10)
        assert directory.files(10) == ()

    def test_unknown_peer_has_no_files(self, system):
        _, directory = system
        assert directory.files(999) == ()

    def test_zero_files_per_peer(self):
        ov = Overlay()
        directory = ContentDirectory(
            ov, ContentCatalog(10), np.random.default_rng(0), files_per_peer=0
        )
        add_peer(ov, 0, Role.SUPER)
        assert directory.files(0) == ()


class TestIndexMaintenance:
    def test_link_creation_indexes_leaf_files(self, system):
        ov, directory = system
        add_peer(ov, 10, Role.LEAF)
        ov.connect(10, 0)
        for obj in directory.files(10):
            assert directory.super_hit(0, obj)

    def test_link_drop_unindexes(self, system):
        ov, directory = system
        add_peer(ov, 10, Role.LEAF)
        ov.connect(10, 0)
        ov.disconnect(10, 0)
        for obj in directory.files(10):
            if obj not in directory.files(0):
                assert not directory.super_hit(0, obj)

    def test_multiplicity_across_leaves(self, system):
        ov, directory = system
        add_peer(ov, 10, Role.LEAF)
        add_peer(ov, 11, Role.LEAF)
        ov.connect(10, 0)
        ov.connect(11, 0)
        obj_common = directory.files(10)[0]
        holders = directory.holders_via_super(0, obj_common)
        assert holders >= 1

    def test_leaf_death_unindexes(self, system):
        ov, directory = system
        add_peer(ov, 10, Role.LEAF)
        ov.connect(10, 0)
        files = directory.files(10)
        ov.remove_peer(10)
        assert directory.rebuild_index(0) == {}
        directory.check_consistency()

    def test_super_death_drops_its_index(self, system):
        ov, directory = system
        add_peer(ov, 10, Role.LEAF)
        ov.connect(10, 0)
        ov.remove_peer(0)
        assert directory.index_size(0) == 0

    def test_backbone_links_not_indexed(self, system):
        ov, directory = system
        assert directory.index_size(0) == 0
        assert directory.index_size(1) == 0


class TestRoleTransitions:
    def test_promotion_refiles_index_entries(self, system):
        ov, directory = system
        add_peer(ov, 10, Role.LEAF)
        ov.connect(10, 0)
        ov.promote(10)
        directory.check_consistency()
        assert directory.index_size(0) == 0  # its files left super 0's index
        assert directory.index_size(10) == 0  # new super starts empty

    def test_demotion_refiles_index_entries(self, system, rng):
        ov, directory = system
        add_peer(ov, 10, Role.LEAF)
        ov.connect(10, 0)
        add_peer(ov, 20, Role.SUPER)
        ov.connect(20, 0)
        ov.connect(20, 1)
        ov.demote(20, 2, rng)
        directory.check_consistency()
        # demoted peer's files are now indexed by its keeper supers
        keepers = ov.peer(20).super_neighbors
        for sid in keepers:
            for obj in directory.files(20):
                assert directory.super_hit(sid, obj)

    def test_super_hit_includes_own_files(self, system):
        ov, directory = system
        own = directory.files(0)
        assert own and all(directory.super_hit(0, obj) for obj in own)


class TestConsistencyCheck:
    def test_detects_drift(self, system):
        ov, directory = system
        add_peer(ov, 10, Role.LEAF)
        ov.connect(10, 0)
        directory._index[0].clear()  # sabotage
        with pytest.raises(AssertionError, match="drift"):
            directory.check_consistency()
