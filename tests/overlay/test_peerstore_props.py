"""Property tests for the columnar peer core (DESIGN.md §8).

The invariant the struct-of-arrays refactor must hold under arbitrary
operation sequences is **column/view coherence**: after any interleaving
of adds, removes, connects, disconnects, promotions, and demotions, every
scalar column of the overlay's :class:`PeerStore` equals a fresh scan
through the ``Peer`` view API, the degree columns equal the adjacency
container sizes, and the pid registry round-trips every live slot
(including slots recycled through the free list).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay.roles import Role

# One op: (opcode, operands drawn small so ops collide on the same pids,
# exercising slot recycling and duplicate/missing edges).
_PID = st.integers(min_value=0, max_value=15)
ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("add_leaf"), _PID, st.floats(1.0, 500.0)),
        st.tuples(st.just("add_super"), _PID, st.floats(1.0, 500.0)),
        st.tuples(st.just("remove"), _PID, st.none()),
        st.tuples(st.just("connect"), _PID, _PID),
        st.tuples(st.just("disconnect"), _PID, _PID),
        st.tuples(st.just("promote"), _PID, st.none()),
        st.tuples(st.just("demote"), _PID, st.none()),
    ),
    max_size=60,
)


def _apply_ops(ov, ops) -> None:
    rng = np.random.default_rng(0)
    t = 0.0
    for op, a, b in ops:
        t += 1.0
        try:
            if op == "add_leaf":
                ov.add_peer(a, Role.LEAF, capacity=b, join_time=t, lifetime=1e6)
            elif op == "add_super":
                ov.add_peer(a, Role.SUPER, capacity=b, join_time=t, lifetime=1e6)
            elif op == "remove":
                ov.remove_peer(a)
            elif op == "connect":
                ov.connect(a, b)
            elif op == "disconnect":
                ov.disconnect(a, b)
            elif op == "promote":
                ov.promote(a)
            elif op == "demote":
                ov.demote(a, 2, rng)
        except Exception:
            # Invalid ops (duplicate pid, unknown pid, self-connect,
            # wrong-role transition...) are part of the sequence space;
            # the property is about the state after the valid ones.
            continue


@given(ops=ops_strategy)
@settings(max_examples=60, deadline=None)
def test_columns_match_fresh_view_scan(ops):
    from repro.overlay.topology import Overlay

    ov = Overlay()
    _apply_ops(ov, ops)
    store = ov.store
    seen_slots = set()
    for pid in list(ov.super_ids) + list(ov.leaf_ids):
        peer = ov.get(pid)
        assert peer is not None
        slot = peer._slot
        seen_slots.add(slot)
        # pid registry round-trips the slot.
        assert store.slot(pid) == slot
        assert int(store.slots_of(np.asarray([pid], dtype=np.int64))[0]) == slot
        # Scalar columns equal the view properties (builtins both ways).
        assert peer.pid == int(store.pid[slot]) == pid
        assert peer.capacity == float(store.capacity[slot])
        assert peer.join_time == float(store.join_time[slot])
        assert peer.lifetime == float(store.lifetime[slot])
        assert peer.role_change_time == float(store.role_change_time[slot])
        assert peer.eligible == bool(store.eligible[slot])
        assert bool(store.alive[slot])
        assert peer.is_super == bool(store.role[slot])
        assert (peer.role is Role.SUPER) == (pid in ov.super_ids)
        # Degree columns equal the adjacency container sizes.
        assert int(store.n_super_links[slot]) == len(peer.super_neighbors)
        assert int(store.n_leaf_links[slot]) == len(peer.leaf_neighbors)
        assert store.sn[slot] is peer.super_neighbors
        assert store.ct[slot] is peer.contacted_supers
    # Every live slot belongs to exactly one registered peer, and the
    # store's own live scan agrees.
    assert seen_slots == set(store.live_slots())
    ov.check_invariants()


def _scribble(store, slot) -> None:
    """Every column ``alloc`` leaves alone, written the way its owner
    does (topology, evaluator, death ledger, Chord family, Phase 1)."""
    store.sn_add(slot, 900)
    store.ln_add(slot, 901)
    store.ct_add(slot, 900)
    store.last_eval[slot] = 3.0
    store.dv[slot], store.dseq[slot] = 8.0, 7
    store.ring_succ[slot], store.fg[slot] = 900, (902,)
    store.knowledge_of(slot)


@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["alloc", "scribble", "free"]), st.integers(0, 7)),
        max_size=80,
    )
)
@settings(max_examples=60, deadline=None)
def test_allocated_slot_reads_documented_defaults(ops):
    """``alloc`` writes only what differs per peer: whatever was done to
    a slot's previous tenant, ``free`` must have handed it back reading
    the documented default in every other column."""
    from repro.overlay.peerstore import PeerStore

    store = PeerStore()
    live = []
    for pid, (op, i) in enumerate(ops):
        if op == "alloc" or not live:
            slot = store.alloc(pid, 0, 1.0, 0.0, 1.0, 0.0, True)
            live.append(slot)
            assert (store.n_super_links[slot], store.n_leaf_links[slot]) == (0, 0)
            assert store.last_eval[slot] == -np.inf and store.dv[slot] == np.inf
            assert (store.ring_succ[slot], store.dseq[slot]) == (-1, -1)
            assert (store.sn[slot], store.ct[slot], store.fg[slot]) == ((), (), ())
            assert store.ln[slot] is store.kn[slot] is store.views[slot] is None
            assert store.view(slot, pid).pid == pid == store.pid[slot]
        elif op == "scribble":
            _scribble(store, live[i % len(live)])
        else:
            store.free(live.pop(i % len(live)))
    assert len(store) == len(live)


#: Dense-range pids, pids around the dense map's first length (1024),
#: spill pids (at or beyond ``_DENSE_PID_LIMIT``) and negatives.
_ANY_PID = st.one_of(
    st.integers(0, 40),
    st.integers(1020, 1030),
    st.integers(1 << 24, (1 << 24) + 3),
    st.integers(-5, -1),
)


@given(
    registered=st.lists(_ANY_PID, unique=True, max_size=24),
    freed=st.lists(st.integers(0, 23), max_size=6),
    queries=st.lists(_ANY_PID, max_size=40),
)
@settings(max_examples=100, deadline=None)
def test_slots_of_matches_scalar_slot(registered, freed, queries):
    """The gather -- dense fast path or general -- answers what ``slot``
    answers for each pid: dense, spilled, negative, out of range, freed,
    and for no pids at all."""
    from repro.overlay.peerstore import PeerStore

    store = PeerStore()
    slots = [store.alloc(pid, 0, 1.0, 0.0, 1.0, 0.0, True) for pid in registered]
    for i in freed:
        if slots:
            store.free(slots.pop(i % len(slots)))
    pids = np.asarray(queries + registered, dtype=np.int64)
    got = store.slots_of(pids)
    assert got.dtype == np.int64 and got.shape == pids.shape
    assert got.tolist() == [store.slot(int(pid)) for pid in pids]
