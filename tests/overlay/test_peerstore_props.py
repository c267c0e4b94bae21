"""Property tests for the columnar peer core (DESIGN.md §8).

The invariant the struct-of-arrays refactor must hold under arbitrary
operation sequences is **column/view coherence**: after any interleaving
of adds, removes, connects, disconnects, promotions, and demotions, every
scalar column of the overlay's :class:`PeerStore` equals a fresh scan
through the ``Peer`` view API, the degree columns equal the adjacency
container sizes, and the overlay's registry maps every live pid to its
own slot (including slots recycled through the free list).
"""

from __future__ import annotations

from array import array
from math import inf, nextafter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay.roles import Role
from tests.conftest import examples

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
@settings(max_examples=examples(0.6), deadline=None)
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
        # The registry's view names the row that holds the pid.
        assert store.pid[slot] == pid
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
    does (topology, evaluator, death ledger, Phase 1)."""
    store.sn_add(slot, 900)
    store.ln_add(slot, 901, slot)
    store.ct_add(slot, 900)
    store.last_eval[slot] = 3.0
    store.dv[slot], store.dseq[slot] = 8.0, 7
    store.kn[slot] = {}


@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["alloc", "scribble", "free"]), st.integers(0, 7)),
        max_size=80,
    )
)
@settings(max_examples=examples(0.6), deadline=None)
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
            assert store.dseq[slot] == -1
            assert (store.sn[slot], store.ct[slot]) == ((), ())
            assert store.ln[slot] is store.kn[slot] is None
            assert store.pid[slot] == pid
        elif op == "scribble":
            _scribble(store, live[i % len(live)])
        else:
            store.free(live.pop(i % len(live)))
    assert len(store) == len(live)


# -- the storage contract: array columns, NumPy views -------------------------

#: Reader ops: each vector reader of the store, run against scalar reads.
_READERS = ("live", "columns", "harvest", "snapshot", "sweep")
#: One step: an alloc (a super one time in four), then one more op.
_STORAGE_OP = st.tuples(
    st.sampled_from([Role.LEAF, Role.LEAF, Role.LEAF, Role.SUPER]),
    st.floats(1, 500),
    st.one_of(
        st.tuples(st.just("remove"), st.integers(0, 200), st.none()),
        st.tuples(st.just("death"), st.integers(0, 200), st.floats(1000, 2000)),
        st.tuples(st.just("read"), st.sampled_from(_READERS), st.floats(1000, 2000)),
    ),
)


def _check_scalar_reads(ov) -> None:
    """Every live row read through the arrays is builtins, and so are
    the ``Peer`` properties built on them."""
    store = ov.store
    for peer in map(ov.get, [*ov.super_ids, *ov.leaf_ids]):
        s = peer._slot
        assert type(store.capacity[s]) is float and type(store.dv[s]) is float
        assert type(store.role[s]) is int and type(store.n_leaf_links[s]) is int
        assert type(store.pid[s]) is int and type(store.last_eval[s]) is float
        assert type(peer.is_super) is bool and type(peer.eligible) is bool
        assert type(peer.capacity) is float and type(peer.degree) is int


def _read(ctx, ledger, reader: str, t_end: float) -> None:
    """Run one vector reader and hold it to the scalar reads."""
    from repro.overlay.peerstore import _SCALAR_COLUMNS

    ov = ctx.overlay
    store = ov.store
    if reader == "live":
        live = sorted(p._slot for p in map(ov.get, [*ov.super_ids, *ov.leaf_ids]))
        assert store.live_slots().tolist() == live
    elif reader == "columns":
        for name, _code, _fill in _SCALAR_COLUMNS:
            col = getattr(store, name)
            view = store.column(name)
            assert view.itemsize == col.itemsize and len(view) == store._size
            assert view.tolist() == [col[s] for s in range(store._size)], name
    elif reader == "harvest":
        want = sorted(
            (store.dv[s], store.dseq[s], store.pid[s])
            for s in range(store._size)
            if store.dv[s] < t_end
        )
        rows = ledger.harvest(t_end)
        assert sorted(rows) == want
        assert all(type(t) is float and type(q) is int for t, q, _p in rows)
        assert all(store.dv[s] >= t_end for s in range(store._size))
    elif reader == "snapshot":
        snap = ov.snapshot()
        for name, raw in snap["columns"].items():
            col = getattr(store, name)
            rows = [col[ov.get(pid)._slot] for pid in ov._peers]
            assert raw == array(col.typecode, rows).tobytes(), name
    else:
        ctx.maintenance.sweep()
        ov.check_invariants()


@given(steps=st.lists(_STORAGE_OP, min_size=70, max_size=140))
@settings(max_examples=examples(0.25), deadline=None)
def test_array_columns_and_their_views_agree_across_growth(steps):
    """Slots allocated past the first ``_grow`` (64 slots), each alloc
    followed by a free, a death or one vector reader: no view outlives
    a growth (``BufferError``), each view reads what the scalar reads
    read, and the scalar reads are builtins."""
    from repro.churn.deaths import DeathLedger
    from repro.context import build_context

    ctx = build_context(seed=0)
    ov = ctx.overlay
    ledger = DeathLedger(ctx.sim, ov.store)
    for pid, (role, capacity, (op, a, b)) in enumerate(steps):
        ov.add_peer(pid, role, capacity=capacity, join_time=0.0, lifetime=1e6)
        if op == "read":
            _read(ctx, ledger, a, b)
            continue
        peer = ov.get(a)  # pids are the step numbers
        if peer is None:
            continue
        if op == "remove":
            # A peer leaves only at its own death, which the engine
            # harvests (with every earlier one) before delivering it.
            dv = ov.store.dv[peer._slot]
            if dv != inf:
                ledger.harvest(nextafter(dv, inf))
            ledger.cancel(peer._slot)
            ov.remove_peer(a)
        elif ov.store.dseq[peer._slot] < 0:
            ledger.schedule(peer._slot, a, b)
    # A remove-heavy example can recycle slots below the first growth:
    # grow the store anyway, so the readers below run past it.
    for pid in range(len(steps), len(steps) + 65):
        if ov.store.capacity_slots > 64:
            break
        ov.add_peer(pid, Role.LEAF, capacity=1.0, join_time=0.0, lifetime=1e6)
    assert ov.store.capacity_slots > 64
    _check_scalar_reads(ov)
    for reader in _READERS:
        _read(ctx, ledger, reader, 2000.0)
