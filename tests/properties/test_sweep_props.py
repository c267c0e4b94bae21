"""Differential property: the by-exception maintenance sweep against the
full scan it replaced (``tests/overlay/reference_sweep.py``).

Two identically seeded systems receive the same operation sequence --
joins, deaths of leaves and supers (repaired or left for the sweep),
promotions, demotions -- and at every ``sweep`` op one runs
``Maintenance.sweep`` and the other the reference scan.  They must
create the same links in the same order, report the same repairs, and
leave the bootstrap stream in the same state: the candidate scan may
skip only visits that draw nothing.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay.bootstrap import JoinProcedure
from repro.overlay.family import make_family
from repro.overlay.maintenance import Maintenance
from repro.overlay.roles import Role
from repro.overlay.topology import Overlay
from tests.overlay.reference_sweep import reference_sweep

_PICK = st.integers(min_value=0, max_value=10**6)
ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("join"), st.floats(1.0, 500.0), st.none()),
        st.tuples(st.just("join_super"), st.floats(1.0, 500.0), st.none()),
        # (pick, repair): an unrepaired death leaves its orphans short,
        # which is the work the sweep exists for.
        st.tuples(st.just("kill_leaf"), _PICK, st.none()),
        st.tuples(st.just("kill_super"), _PICK, st.booleans()),
        st.tuples(st.just("promote"), _PICK, st.booleans()),
        st.tuples(st.just("demote"), _PICK, st.booleans()),
        st.tuples(st.just("sweep"), st.none(), st.none()),
    ),
    max_size=50,
)


class _System:
    def __init__(self, family: str, m: int) -> None:
        self.overlay = ov = Overlay()
        self.join = JoinProcedure(
            ov, m, np.random.default_rng(5), k_s=3, family=make_family(family)
        )
        self.maint = Maintenance(ov, self.join, m=m, k_s=3)
        self.links = []
        ov.add_connection_listener(lambda a, b: self.links.append((a, b)))
        self.t = 0.0

    def apply(self, op, x, y) -> None:
        ov, join, maint = self.overlay, self.join, self.maint
        self.t += 1.0
        if op == "join":
            join.join(self.t, x, 1e6)
        elif op == "join_super":
            join.join(self.t, x, 1e6, role=Role.SUPER)
        elif op == "kill_leaf" and ov.n_leaf:
            ov.remove_peer(sorted(ov.leaf_ids)[x % ov.n_leaf])
        elif op == "kill_super" and ov.n_super:
            orphans, former = ov.remove_peer(sorted(ov.super_ids)[x % ov.n_super])
            if y:
                maint.after_super_death(orphans, former)
        elif op == "promote" and ov.n_leaf:
            pid = sorted(ov.leaf_ids)[x % ov.n_leaf]
            ov.promote(pid)
            if y:
                maint.after_promotion(pid)
        elif op == "demote" and ov.n_super:
            pid = sorted(ov.super_ids)[x % ov.n_super]
            orphans = ov.demote(pid, maint.m, join.rng)
            if y:
                maint.after_demotion(pid, orphans)


@given(
    ops=ops_strategy,
    m=st.sampled_from([1, 2, 3]),
    family=st.sampled_from(["superpeer", "chord"]),
)
@settings(max_examples=300, deadline=None)
def test_sweep_matches_reference_scan(ops, m, family):
    new, ref = _System(family, m), _System(family, m)
    for op, x, y in ops + [("sweep", None, None)]:
        if op != "sweep":
            new.apply(op, x, y)
            ref.apply(op, x, y)
            continue
        del new.links[:], ref.links[:]
        assert new.maint.sweep() == reference_sweep(ref.maint)
        assert new.links == ref.links
        assert new.join.rng.bit_generator.state == ref.join.rng.bit_generator.state
        new.overlay.check_invariants(aggregates=True)
    assert new.overlay.snapshot() == ref.overlay.snapshot()
