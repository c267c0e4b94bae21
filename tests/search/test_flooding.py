"""Unit tests for TTL flooding over the backbone."""

from __future__ import annotations

import numpy as np
import pytest

from repro.overlay.roles import Role
from repro.overlay.topology import Overlay
from repro.protocol.accounting import MessageLedger
from repro.protocol.latency import ConstantLatency
from repro.search.content import ContentCatalog
from repro.search.flooding import FloodRouter
from repro.search.index import ContentDirectory
from tests.conftest import add_peer


def build_chain(n_supers=5, files=()):
    """A backbone path s0 - s1 - ... with one leaf on the last super."""
    ov = Overlay()
    catalog = ContentCatalog(n_objects=100, s=0.0)
    directory = ContentDirectory(
        ov, catalog, np.random.default_rng(3), files_per_peer=0
    )
    for sid in range(n_supers):
        add_peer(ov, sid, Role.SUPER)
        if sid:
            ov.connect(sid - 1, sid)
    add_peer(ov, 100, Role.LEAF)
    # hand the far leaf a known object before its link is indexed
    directory._files[100] = (42,)
    ov.connect(100, n_supers - 1)
    ledger = MessageLedger()
    return ov, directory, ledger


class TestFloodReach:
    def test_finds_object_within_ttl(self):
        ov, directory, ledger = build_chain(n_supers=4)
        router = FloodRouter(ov, directory, ttl=4, ledger=ledger)
        out = router.query(0, 42)
        assert out.found and out.hits == 1
        assert out.first_hit_hops == 3

    def test_ttl_bounds_reach(self):
        ov, directory, ledger = build_chain(n_supers=6)
        router = FloodRouter(ov, directory, ttl=2)
        out = router.query(0, 42)
        assert not out.found
        assert out.supers_visited == 3  # depths 0,1,2

    def test_leaf_source_enters_via_its_supers(self):
        for timed in (False, True):
            ov, directory, ledger = build_chain(n_supers=3)
            rng = np.random.default_rng(5)
            before = rng.bit_generator.state
            latency = ConstantLatency(2.0) if timed else None
            router = FloodRouter(
                ov, directory, ttl=5, ledger=ledger, latency=latency, rng=rng
            )
            out = router.query(100, 42)  # the leaf itself holds 42
            assert out.found and out.hits == 1 and out.first_hit_hops == 0
            assert out.supers_visited == 0
            # local storage, no traffic
            assert out.query_messages == out.hit_messages == out.total_messages == 0
            assert ledger.search_messages == 0
            assert out.first_hit_latency == (0.0 if timed else None)
            assert rng.bit_generator.state == before  # no hop drawn

    def test_leaf_source_without_local_copy(self):
        ov, directory, ledger = build_chain(n_supers=3)
        add_peer(ov, 101, Role.LEAF)
        ov.connect(101, 0)
        router = FloodRouter(ov, directory, ttl=5)
        out = router.query(101, 42)
        assert out.found
        assert out.first_hit_hops == 3  # 1 to super 0, 2 along the chain


class TestRestoredDirectory:
    def test_router_answers_from_the_restored_tables(self):
        """``ContentDirectory.restore`` replaces its file and holder
        dicts, so a router built before it must not keep the old ones."""
        ov, directory, _ = build_chain(n_supers=3)
        router = FloodRouter(ov, directory, ttl=5)
        assert router.query(0, 42).found
        state = directory.snapshot()
        state["files"] = [(0, (44,)), (100, (43,))]
        directory.restore(state)
        assert not router.query(0, 42).found
        far = router.query(0, 43)  # now on the far leaf, two hops out
        assert far.found and far.first_hit_hops == 2
        own = router.query(0, 44)  # now the source's own file
        assert own.found and own.first_hit_hops == 0 and own.total_messages == 0


class TestMessageAccounting:
    def test_every_transmission_counted(self):
        ov, directory, ledger = build_chain(n_supers=3)
        router = FloodRouter(ov, directory, ttl=5, ledger=ledger)
        out = router.query(0, 42)
        # chain: s0->s1, s1->s0 dup, s1->s2, s2->s1 dup = 4 query msgs
        assert out.query_messages == 4
        assert out.hit_messages == 2  # hit at depth 2 routes back 2 hops
        assert ledger.search_messages == 6

    def test_miss_sends_no_hit_messages(self):
        ov, directory, ledger = build_chain(n_supers=3)
        router = FloodRouter(ov, directory, ttl=5, ledger=ledger)
        out = router.query(0, 99)
        assert not out.found and out.hit_messages == 0

    def test_ledger_optional(self):
        ov, directory, _ = build_chain(n_supers=3)
        router = FloodRouter(ov, directory, ttl=5)
        assert router.query(0, 42).found  # no crash without ledger

    def test_total_messages(self):
        ov, directory, _ = build_chain(n_supers=3)
        out = FloodRouter(ov, directory, ttl=5).query(0, 42)
        assert out.total_messages == out.query_messages + out.hit_messages


class TestMultipleHits:
    def test_counts_all_holders(self):
        ov, directory, _ = build_chain(n_supers=4)
        # give another super's leaf the same object
        add_peer(ov, 101, Role.LEAF)
        directory._files[101] = (42,)
        ov.connect(101, 1)
        out = FloodRouter(ov, directory, ttl=5).query(0, 42)
        assert out.hits == 2


class TestValidation:
    def test_invalid_ttl(self):
        ov, directory, _ = build_chain()
        with pytest.raises(ValueError):
            FloodRouter(ov, directory, ttl=0)
