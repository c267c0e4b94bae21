"""Property tests: IndexedSet behaves exactly like a built-in set."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.util.indexed_set import IndexedSet
from tests.conftest import examples


@given(st.lists(st.integers(0, 50)))
def test_construction_matches_set(items):
    s = IndexedSet(items)
    assert sorted(s) == sorted(set(items))


@given(
    st.lists(
        st.tuples(st.sampled_from(["add", "discard"]), st.integers(0, 20)),
        max_size=200,
    )
)
def test_operation_sequences_match_set(ops):
    indexed = IndexedSet()
    reference: set = set()
    for op, x in ops:
        if op == "add":
            indexed.add(x)
            reference.add(x)
        else:
            indexed.discard(x)
            reference.discard(x)
        assert len(indexed) == len(reference)
    assert sorted(indexed) == sorted(reference)


@given(st.sets(st.integers(0, 1000), min_size=1, max_size=64), st.integers(0, 80))
@settings(max_examples=examples(0.5))
def test_sample_is_subset_without_duplicates(members, k):
    s = IndexedSet(sorted(members))
    rng = np.random.default_rng(0)
    out = s.sample(rng, k)
    assert len(out) == len(set(out))
    assert set(out) <= members
    assert len(out) == min(k if k > 0 else 0, len(members))


class IndexedSetMachine(RuleBasedStateMachine):
    """Stateful equivalence with the reference set, including sampling."""

    def __init__(self):
        super().__init__()
        self.indexed = IndexedSet()
        self.reference: set = set()
        self.rng = np.random.default_rng(7)

    @rule(x=st.integers(0, 30))
    def add(self, x):
        self.indexed.add(x)
        self.reference.add(x)

    @rule(x=st.integers(0, 30))
    def discard(self, x):
        self.indexed.discard(x)
        self.reference.discard(x)

    @rule()
    def choice_is_member(self):
        if self.reference:
            assert self.indexed.choice(self.rng) in self.reference

    @invariant()
    def sizes_match(self):
        assert len(self.indexed) == len(self.reference)

    @invariant()
    def membership_matches(self):
        for x in range(31):
            assert (x in self.indexed) == (x in self.reference)


TestIndexedSetMachine = IndexedSetMachine.TestCase
