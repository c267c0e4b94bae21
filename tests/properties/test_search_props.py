"""Property tests for the search routers over random overlays."""

from __future__ import annotations

import numpy as np
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


@given(random_overlay(), st.integers(1, 6), st.integers(0, 29), st.data())
@settings(max_examples=100, deadline=None)
def test_flood_equals_the_per_copy_reference(system, ttl, obj, data):
    """Level-synchronous set algebra == the per-copy BFS, field by field.

    Also after the overlay moved under a live router (its snapshot and
    the directory's holder view are maintained, not rebuilt per query).
    """
    ov, directory, rng = system
    router = FloodRouter(ov, directory, ttl=ttl)

    def check():
        directory.check_consistency()
        source = data.draw(st.sampled_from(sorted(p.pid for p in ov.peers())))
        got = router.query(source, obj)
        want = reference_query(ov, directory, source, obj, ttl=ttl)
        for field in QueryOutcome.__dataclass_fields__:
            assert getattr(got, field) == getattr(want, field), field
        # Timed floods: with a constant (dyadic, so sums are exact) hop
        # delay, 2*d fresh draws equal the per-node delay array.
        hop = ConstantLatency(0.5)
        timed = FloodRouter(ov, directory, ttl=ttl, latency=hop, rng=rng)
        assert timed.query(source, obj) == reference_query(
            ov, directory, source, obj, ttl=ttl, latency=hop, rng=rng
        )

    check()
    victim = data.draw(st.sampled_from(sorted(p.pid for p in ov.peers())))
    if ov.peer(victim).is_leaf:
        ov.promote(victim)
    elif ov.n_super > 1 and data.draw(st.booleans()):
        ov.demote(victim, 2, rng)
    else:
        ov.remove_peer(victim)
    check()


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
