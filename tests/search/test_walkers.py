"""Unit tests for k-walker random-walk search (extension E1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.overlay.roles import Role
from repro.overlay.topology import Overlay
from repro.search.content import ContentCatalog
from repro.search.index import ContentDirectory
from repro.search.walkers import RandomWalkRouter
from tests.conftest import add_peer


def build_ring(n_supers=8):
    ov = Overlay()
    catalog = ContentCatalog(n_objects=100, s=0.0)
    directory = ContentDirectory(
        ov, catalog, np.random.default_rng(3), files_per_peer=0
    )
    for sid in range(n_supers):
        add_peer(ov, sid, Role.SUPER)
    for sid in range(n_supers):
        ov.connect(sid, (sid + 1) % n_supers)
    # object 42 indexed at super n/2 via a leaf
    add_peer(ov, 100, Role.LEAF)
    directory._files[100] = (42,)
    ov.connect(100, n_supers // 2)
    return ov, directory


class TestWalkers:
    def test_finds_reachable_object(self, rng):
        ov, directory = build_ring()
        router = RandomWalkRouter(ov, directory, rng, walkers=8, max_steps=32)
        out = router.query(0, 42)
        assert out.found

    def test_local_copy_short_circuits(self, rng):
        ov, directory = build_ring()
        router = RandomWalkRouter(ov, directory, rng)
        out = router.query(100, 42)
        assert out.found and out.total_messages == 0

    def test_miss_when_object_absent(self, rng):
        ov, directory = build_ring()
        router = RandomWalkRouter(ov, directory, rng, walkers=4, max_steps=8)
        out = router.query(0, 77)
        assert not out.found and out.hits == 0

    def test_message_budget_bounded_by_walkers_and_steps(self, rng):
        ov, directory = build_ring()
        walkers, steps = 4, 6
        router = RandomWalkRouter(
            ov, directory, rng, walkers=walkers, max_steps=steps, stop_on_hit=False
        )
        out = router.query(0, 77)
        assert out.query_messages <= walkers * steps

    def test_stop_on_hit_reduces_traffic(self, rng):
        ov, directory = build_ring()
        eager = RandomWalkRouter(
            ov, directory, np.random.default_rng(5), walkers=8, max_steps=64,
            stop_on_hit=True,
        )
        thorough = RandomWalkRouter(
            ov, directory, np.random.default_rng(5), walkers=8, max_steps=64,
            stop_on_hit=False,
        )
        assert (
            eager.query(0, 42).query_messages
            <= thorough.query(0, 42).query_messages
        )

    def test_leaf_source_fans_out_over_supers(self, rng):
        ov, directory = build_ring()
        add_peer(ov, 101, Role.LEAF)
        ov.connect(101, 0)
        router = RandomWalkRouter(ov, directory, rng, walkers=4, max_steps=16)
        out = router.query(101, 42)
        assert out.query_messages >= 4  # entry messages charged

    def test_isolated_leaf_fails_gracefully(self, rng):
        ov, directory = build_ring()
        add_peer(ov, 102, Role.LEAF)
        router = RandomWalkRouter(ov, directory, rng)
        out = router.query(102, 42)
        assert not out.found and out.total_messages == 0

    def test_validation(self, rng):
        ov, directory = build_ring()
        with pytest.raises(ValueError):
            RandomWalkRouter(ov, directory, rng, walkers=0)
        with pytest.raises(ValueError):
            RandomWalkRouter(ov, directory, rng, max_steps=0)
