"""Property tests: the aggregate fold is exact and never goes stale.

* :func:`~repro.overlay.aggregates.fold_columns` equals ``Fraction``
  sums over arbitrary columns: zeros, subnormals, powers of two over the
  whole exponent range, both signs, and more rows than one fold chunk.
* A stateful machine drives random joins (with adversarial float
  capacities and join times), deaths, link churn, promotions, and
  demotions, and after every step asserts that ``overlay.aggregates`` is
  **exactly** equal to a brute-force scan -- counts, exact fixed-point
  sums, and the leaf-link count -- so the memo never outlives a
  mutation.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.overlay.aggregates import _CHUNK, fold_columns
from repro.overlay.roles import ROLE_LEAF, Role
from repro.overlay.topology import Overlay
from tests.conftest import examples

_fold_values = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 0.1]),
    st.integers(min_value=-1074, max_value=1023).map(lambda k: 2.0**k),
    st.floats(allow_nan=False, allow_infinity=False),
)


@given(
    values=st.lists(_fold_values, min_size=1, max_size=40),
    rows=st.one_of(st.integers(0, 64), st.integers(_CHUNK - 2, 2 * _CHUNK + 2)),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=examples(0.5), deadline=None)
def test_fold_equals_fraction_sums(values, rows, seed):
    rng = np.random.default_rng(seed)
    capacity = np.resize(np.array(values), rows)
    join_time = rng.permutation(capacity)
    alive, role = rng.integers(0, 2, (2, rows), dtype=np.int8)
    n_super_links = rng.integers(0, 6, rows, dtype=np.int32)
    caps, times, links = fold_columns(alive, role, capacity, join_time, n_super_links)
    for code in (0, 1):
        rows_of = (alive == 1) & (role == code)
        for column, got in ((capacity, caps[code]), (join_time, times[code])):
            distinct, counts = np.unique(column[rows_of], return_counts=True)
            exact = sum(Fraction(float(x)) * int(c) for x, c in zip(distinct, counts))
            assert Fraction(got, 2**1074) == exact
    assert links == n_super_links[(alive == 1) & (role == ROLE_LEAF)].sum()


#: Adversarial float values: non-dyadic decimals, subnormal-ish tiny
#: values, and large magnitudes that would swamp small addends in a
#: naive float accumulator.
_capacities = st.sampled_from([0.1, 1e-300, 1e12]) | st.floats(
    min_value=0.001, max_value=1e6, allow_nan=False
)
_join_times = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)


class AggregatesMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.overlay = Overlay()
        self.rng = np.random.default_rng(23)
        self.next_pid = 0

    @rule(role=st.sampled_from(Role), capacity=_capacities, join_time=_join_times)
    def join(self, role, capacity, join_time):
        self.overlay.add_peer(self.next_pid, role, capacity, join_time, lifetime=1.0)
        self.next_pid += 1

    @precondition(lambda self: self.overlay.n >= 2)
    @rule(data=st.data())
    def connect_random(self, data):
        pids = sorted(p.pid for p in self.overlay.peers())
        a = data.draw(st.sampled_from(pids))
        b = data.draw(st.sampled_from(pids))
        ov = self.overlay
        if a != b and not (ov.peer(a).is_leaf and ov.peer(b).is_leaf):
            ov.connect(a, b)

    @precondition(lambda self: self.overlay.n >= 1)
    @rule(data=st.data())
    def disconnect_random(self, data):
        pids = sorted(p.pid for p in self.overlay.peers())
        a = data.draw(st.sampled_from(pids))
        peer = self.overlay.peer(a)
        nbrs = sorted({*peer.super_neighbors, *peer.leaf_neighbors})
        if nbrs:
            b = data.draw(st.sampled_from(nbrs))
            self.overlay.disconnect(a, b)

    @precondition(lambda self: self.overlay.n_leaf >= 1)
    @rule(data=st.data())
    def promote_random_leaf(self, data):
        pid = data.draw(st.sampled_from(sorted(self.overlay.leaf_ids)))
        self.overlay.promote(pid)

    @precondition(lambda self: self.overlay.n_super >= 1)
    @rule(data=st.data())
    def demote_random_super(self, data):
        pid = data.draw(st.sampled_from(sorted(self.overlay.super_ids)))
        self.overlay.demote(pid, 2, self.rng)

    @precondition(lambda self: self.overlay.n >= 1)
    @rule(data=st.data())
    def remove_random_peer(self, data):
        pid = data.draw(st.sampled_from(sorted(p.pid for p in self.overlay.peers())))
        self.overlay.remove_peer(pid)

    @invariant()
    def aggregates_exactly_equal_fresh_scan(self):
        # Exact big-int equality, not tolerance-based comparison.
        assert self.overlay.aggregates.mismatches() == []


TestAggregatesMachine = AggregatesMachine.TestCase
TestAggregatesMachine.settings = settings(
    max_examples=examples(0.3), stateful_step_count=40
)
