"""The carried slot, from both ends: each leaf link of a super carries the
leaf's own store slot (``PeerStore.ln_add``), whatever the op sequence.

``Overlay.check_invariants`` checks it from the super's side: the slot
names the leaf's live leaf row, and it is the very ``int`` the leaf's
view holds.  This property drives link churn, promotions, demotions that
re-file links, deaths whose slots are recycled, and snapshot -> restore
round trips, checking the invariants after every op.  A restored overlay
numbers its rows afresh, so its leaf links carry other slots, and its
leaf sets must still compare equal to the original's.
"""

from __future__ import annotations

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay.roles import Role
from repro.overlay.topology import Overlay
from tests.conftest import add_peer, examples

_OPS = (
    ["join_leaf"] * 3
    + ["connect"] * 4
    + ["join_super", "disconnect", "promote", "demote", "remove", "roundtrip"]
)
ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(_OPS),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
    ),
    max_size=40,
)


def _pick(pool, i):
    pool = sorted(pool)
    return pool[i % len(pool)] if pool else None


def _roundtrip(ov: Overlay) -> Overlay:
    twin = Overlay()
    twin.restore(pickle.loads(pickle.dumps(ov.snapshot())))
    for sid in ov.super_ids:
        mine, theirs = ov.peer(sid).leaf_neighbors, twin.peer(sid).leaf_neighbors
        assert mine == theirs and list(mine) == list(theirs)
    twin.check_invariants(aggregates=True)
    return twin


def _prelude() -> Overlay:
    """Two linked supers and three leaves on super 0; leaf 5 took the slot
    leaf 2 freed, so it registers last but sits at slot 2."""
    ov = Overlay()
    for pid in range(5):
        add_peer(ov, pid, Role.SUPER if pid < 2 else Role.LEAF)
    ov.remove_peer(2)
    add_peer(ov, 5)
    for leaf in (3, 4, 5):
        ov.connect(leaf, 0)
    ov.connect(0, 1)
    return ov


def _apply(ov: Overlay, op: str, i: int, j: int, pid: int, rng) -> Overlay:
    peers = [p.pid for p in ov.peers()]
    if op in ("join_leaf", "join_super"):
        add_peer(ov, pid, Role.SUPER if op == "join_super" else Role.LEAF)
    elif op == "connect" and ov.n_super:
        a, b = _pick(peers, i), _pick(ov.super_ids, j)
        if a != b:
            ov.connect(a, b)
    elif op == "disconnect" and peers:
        peer = ov.peer(_pick(peers, i))
        other = _pick({*peer.super_neighbors, *peer.leaf_neighbors}, j)
        if other is not None:
            ov.disconnect(peer.pid, other)
    elif op == "promote" and ov.n_leaf:
        ov.promote(_pick(ov.leaf_ids, i))
    elif op == "demote" and ov.n_super:
        # Keeps up to m super links, re-filed as leaf links on the far end.
        ov.demote(_pick(ov.super_ids, i), 1 + j % 2, rng)
    elif op == "remove" and peers:
        ov.remove_peer(_pick(peers, i))
    elif op == "roundtrip":
        ov = _roundtrip(ov)
    return ov


@given(ops=ops_strategy)
@settings(max_examples=examples(3), deadline=None)
def test_leaf_links_carry_the_leafs_own_slot(ops):
    ov = _prelude()
    ov.check_invariants(aggregates=True)
    twin = _roundtrip(ov)
    # Equal leaf sets, different rows: the restore renumbered leaf 5.
    assert dict(twin.peer(0).leaf_neighbors) != dict(ov.peer(0).leaf_neighbors)
    rng = np.random.default_rng(5)
    for pid, (op, i, j) in enumerate(ops, start=6):
        ov = _apply(ov, op, i, j, pid, rng)
        ov.check_invariants(aggregates=True)
