"""Property tests for the search routers over random overlays."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay.roles import Role
from repro.overlay.topology import Overlay
from repro.protocol.latency import ConstantLatency
from repro.search.content import ContentCatalog
from repro.search.flooding import FloodRouter, QueryOutcome
from repro.search.index import ContentDirectory
from repro.search.walkers import RandomWalkRouter
from tests.search.reference_flood import reference_query


@st.composite
def random_overlay(draw):
    """A random connected-ish two-layer overlay with content."""
    n_supers = draw(st.integers(2, 12))
    n_leaves = draw(st.integers(1, 24))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    ov = Overlay()
    directory = ContentDirectory(
        ov, ContentCatalog(n_objects=30, s=0.7), rng, files_per_peer=3
    )
    for sid in range(n_supers):
        ov.add_peer(sid, Role.SUPER, capacity=1, join_time=0, lifetime=1)
        if sid:
            # chain ensures connectivity; extra random edges add cycles
            ov.connect(sid - 1, sid)
    extra = draw(st.integers(0, n_supers))
    for _ in range(extra):
        a, b = rng.integers(n_supers, size=2)
        if a != b:
            ov.connect(int(a), int(b))
    for i in range(n_leaves):
        pid = 1000 + i
        ov.add_peer(pid, Role.LEAF, capacity=1, join_time=0, lifetime=1)
        ov.connect(pid, int(rng.integers(n_supers)))
    return ov, directory, rng


@given(random_overlay(), st.integers(1, 6), st.integers(0, 29), st.data())
@settings(max_examples=60, deadline=None)
def test_flood_outcome_invariants(system, ttl, obj, data):
    ov, directory, rng = system
    router = FloodRouter(ov, directory, ttl=ttl)
    all_pids = sorted(p.pid for p in ov.peers())
    source = data.draw(st.sampled_from(all_pids))
    out = router.query(source, obj)
    # structural invariants of any outcome
    assert out.found == (out.hits > 0)
    assert out.supers_visited <= ov.n_super
    assert out.query_messages >= 0 and out.hit_messages >= 0
    if out.first_hit_hops is not None:
        assert out.found
        assert out.first_hit_hops <= ttl + 1
    # a hit at depth d sends d messages back; total bounded accordingly
    assert out.hit_messages <= out.hits * (ttl + 1)


def _assert_matches_reference(routers, ov, directory, rng, source, obj):
    """Every field of an untimed and a timed query equals the oracle's."""
    router, timed = routers
    got = router.query(source, obj)
    want = reference_query(ov, directory, source, obj, ttl=router.ttl)
    for field in QueryOutcome.__dataclass_fields__:
        assert getattr(got, field) == getattr(want, field), field
    # With a constant (dyadic, so sums are exact) hop delay, 2*d fresh
    # draws equal the per-node delay array.
    assert timed.query(source, obj) == reference_query(
        ov, directory, source, obj, ttl=timed.ttl, latency=timed.latency, rng=rng
    )


def _toggle(ov, a, b):
    if not ov.disconnect(a, b):
        ov.connect(a, b)


#: What may happen between two queries to one live router.  Leaf joins,
#: leaf departures and leaf--super links keep the backbone snapshot and
#: its reach rows; the other changes invalidate them, a restore only
#: through ``resync()``.
_OPS = (
    "query",
    "sibling",
    "leaf_link",
    "backbone_link",
    "promote",
    "demote",
    "join_super",
    "leave",
    "restore",
)


@given(
    random_overlay(),
    st.sampled_from([1, 2, 3, 4, 5, 6, None]),
    st.lists(st.sampled_from(_OPS), min_size=1, max_size=20),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_flood_equals_the_per_copy_reference(system, ttl, ops, data):
    """One live router == the per-copy BFS, field by field, over queries
    interleaved with every kind of overlay change.

    Queries repeat sources within a snapshot and come from leaves that
    share an entry set; ``ttl=None`` is ``n_super + 1`` (no TTL cut).
    """
    ov, directory, rng = system
    ttl = ttl or ov.n_super + 1
    routers = (
        FloodRouter(ov, directory, ttl=ttl),
        FloodRouter(ov, directory, ttl=ttl, latency=ConstantLatency(0.5), rng=rng),
    )
    fresh = iter(range(2000, 3000))

    def pick(ids):
        return data.draw(st.sampled_from(sorted(ids)))

    def query(source):
        obj = data.draw(st.integers(0, 29))
        for _ in range(2):  # the second one reads the first one's row
            _assert_matches_reference(routers, ov, directory, rng, source, obj)

    for op in ops:
        leaves, supers = list(ov.leaf_ids), list(ov.super_ids)
        if op == "query" and ov.n:
            query(pick(p.pid for p in ov.peers()))
        elif op == "sibling" and leaves:
            # A joining leaf on the same supers shares the entry set.
            twin = ov.peer(pick(leaves))
            pid = next(fresh)
            ov.add_peer(pid, Role.LEAF, capacity=1, join_time=0, lifetime=1)
            for sid in twin.super_neighbors:
                ov.connect(pid, sid)
            query(twin.pid)
            query(pid)
        elif op == "leaf_link" and leaves and supers:
            _toggle(ov, pick(leaves), pick(supers))
        elif op == "backbone_link" and len(supers) > 1:
            a = pick(supers)
            _toggle(ov, a, pick(s for s in supers if s != a))
        elif op == "promote" and leaves:
            ov.promote(pick(leaves))
        elif op == "demote" and len(supers) > 1:
            ov.demote(pick(supers), 2, rng)
        elif op == "join_super":
            pid = next(fresh)
            ov.add_peer(pid, Role.SUPER, capacity=1, join_time=0, lifetime=1)
            if supers:
                ov.connect(pid, pick(supers))
        elif op == "leave" and ov.n > 1:
            ov.remove_peer(pick(p.pid for p in ov.peers()))
        elif op == "restore" and len(supers) > 1:
            # A restore loads topology without link events: change the
            # backbone behind the routers' backs, then resync them.
            a = pick(supers)
            b = pick(s for s in supers if s != a)
            slot_a, slot_b = ov.peer(a)._slot, ov.peer(b)._slot
            if b in ov.peer(a).super_neighbors:
                ov.store.sn_discard(slot_a, b)
                ov.store.sn_discard(slot_b, a)
            else:
                ov.store.sn_add(slot_a, b)
                ov.store.sn_add(slot_b, a)
            directory.restore(directory.snapshot())
            for router in routers:
                router.resync()
        directory.check_consistency()
    if ov.n:
        query(pick(p.pid for p in ov.peers()))
    # An absent source raises KeyError, as it always did.
    absent = next(fresh)
    for router in routers:
        with pytest.raises(KeyError):
            router.query(absent, 0)


@pytest.mark.parametrize("ttl", [254, 255, 300])
def test_flood_distances_past_a_byte(ttl):
    """On a 300-super chain distances reach past 255: TTLs on both sides
    of the one-byte row still equal the oracle."""
    rng = np.random.default_rng(5)
    ov = Overlay()
    directory = ContentDirectory(
        ov, ContentCatalog(n_objects=30, s=0.7), rng, files_per_peer=3
    )
    for sid in range(300):
        ov.add_peer(sid, Role.SUPER, capacity=1, join_time=0, lifetime=1)
        if sid:
            ov.connect(sid - 1, sid)
    ov.add_peer(1000, Role.LEAF, capacity=1, join_time=0, lifetime=1)
    ov.connect(1000, 0)
    routers = (
        FloodRouter(ov, directory, ttl=ttl),
        FloodRouter(ov, directory, ttl=ttl, latency=ConstantLatency(0.5), rng=rng),
    )
    for source in (1000, 0, 150, 299):
        for obj in range(30):
            _assert_matches_reference(routers, ov, directory, rng, source, obj)


@given(random_overlay(), st.integers(0, 29), st.data())
@settings(max_examples=40, deadline=None)
def test_flood_monotone_in_ttl(system, obj, data):
    """More TTL can only visit more supers and find at least as much."""
    ov, directory, rng = system
    all_pids = sorted(p.pid for p in ov.peers())
    source = data.draw(st.sampled_from(all_pids))
    small = FloodRouter(ov, directory, ttl=1).query(source, obj)
    large = FloodRouter(ov, directory, ttl=8).query(source, obj)
    assert large.supers_visited >= small.supers_visited
    assert large.hits >= small.hits


@given(random_overlay(), st.integers(0, 29), st.data())
@settings(max_examples=40, deadline=None)
def test_flood_finds_iff_reachable_holder_exists(system, obj, data):
    """With TTL >= diameter, found == some reachable super resolves obj."""
    ov, directory, rng = system
    all_pids = sorted(p.pid for p in ov.peers())
    source = data.draw(st.sampled_from(all_pids))
    out = FloodRouter(ov, directory, ttl=ov.n_super + 1).query(source, obj)
    if obj in directory.files(source):
        assert out.found
        return
    peer = ov.peer(source)
    entry = {source} if peer.is_super else set(peer.super_neighbors)
    # BFS the whole backbone from the entry points.
    seen = set(entry)
    frontier = list(entry)
    while frontier:
        nxt = []
        for sid in frontier:
            for other in ov.peer(sid).super_neighbors:
                if other not in seen:
                    seen.add(other)
                    nxt.append(other)
        frontier = nxt
    expected = any(directory.super_hit(s, obj) for s in seen)
    assert out.found == expected


@given(random_overlay(), st.integers(0, 29), st.data())
@settings(max_examples=40, deadline=None)
def test_walker_outcome_invariants(system, obj, data):
    ov, directory, rng = system
    all_pids = sorted(p.pid for p in ov.peers())
    source = data.draw(st.sampled_from(all_pids))
    router = RandomWalkRouter(ov, directory, rng, walkers=4, max_steps=8)
    out = router.query(source, obj)
    assert out.found == (out.hits > 0)
    assert out.supers_visited <= ov.n_super
    assert out.query_messages <= 4 * (8 + 1)
