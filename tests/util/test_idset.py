"""Unit tests for IdSet: the insertion-ordered peer-id set."""

from __future__ import annotations

import pytest

from repro.util.idset import IdSet


class TestBasics:
    def test_starts_empty(self):
        s = IdSet()
        assert len(s) == 0 and list(s) == []

    def test_init_from_iterable_keeps_order(self):
        s = IdSet([3, 1, 2, 1])
        assert list(s) == [3, 1, 2]

    def test_add_and_contains(self):
        s = IdSet()
        s.add(5)
        s.add(5)
        assert 5 in s and len(s) == 1

    def test_discard_and_remove(self):
        s = IdSet([1, 2])
        s.discard(1)
        s.discard(99)  # silent, like set.discard
        assert list(s) == [2]
        s.remove(2)
        assert len(s) == 0
        with pytest.raises(KeyError):
            s.remove(2)

    def test_update(self):
        s = IdSet([1])
        s.update([2, 3])
        assert list(s) == [1, 2, 3]

    def test_copy_is_independent(self):
        s = IdSet([1, 2])
        c = s.copy()
        c.add(3)
        assert list(s) == [1, 2] and list(c) == [1, 2, 3]


class TestIterationOrderIsReconstructible:
    """The property the checkpoint plane depends on: unlike builtin
    ``set``, iteration order is a pure function of the insert/discard
    history -- so re-inserting a snapshotted list reproduces it."""

    def test_order_survives_round_trip(self):
        s = IdSet()
        for x in [10**9 + 7, 3, 777, 42, 5]:
            s.add(x)
        s.discard(777)
        s.add(777)  # re-insert moves it to the end
        rebuilt = IdSet(list(s))
        assert list(rebuilt) == list(s)

    def test_differs_from_builtin_set_semantics(self):
        # Large ints where builtin set would hash-scatter: IdSet keeps
        # pure insertion order regardless of values.
        values = [2**61 - 1, 1, 2**31, 7]
        assert list(IdSet(values)) == values


class TestSetInterop:
    def test_equality_with_set(self):
        assert IdSet([1, 2, 3]) == {3, 2, 1}
        assert IdSet([1, 2]) != {1, 2, 3}
        assert {3, 2, 1} == IdSet([1, 2, 3])

    def test_subset_superset(self):
        s = IdSet([1, 2])
        assert s <= {1, 2, 3}
        assert s <= {1, 2}
        assert not s < {1, 2}
        assert s < {1, 2, 3}
        assert IdSet([1, 2, 3]) >= {1, 2}
        assert s.issubset({1, 2, 5})
        assert IdSet([1, 2, 3]).issuperset([1, 3])

    def test_reflected_comparison_with_set_on_left(self):
        assert {1, 2, 3} >= IdSet([1, 2])
        assert {1} <= IdSet([1, 2])

    def test_union_returns_plain_set(self):
        u = IdSet([1, 2]) | {3}
        assert isinstance(u, set) and u == {1, 2, 3}
        v = {0} | IdSet([1])
        assert isinstance(v, set) and v == {0, 1}

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(IdSet())

    def test_repr(self):
        assert repr(IdSet([2, 1])) == "IdSet([2, 1])"


class TestValues:
    """A leaf adjacency stores each member's slot as its value."""

    def test_equality_compares_members_only(self):
        a, b = IdSet({4: 10, 5: 11}), IdSet({5: 2, 4: 3})
        assert a == b and not a != b
        assert IdSet({4: 10}) != IdSet({4: 10, 5: 11})

    def test_copy_and_mapping_construction_keep_values(self):
        s = IdSet({4: 10, 5: 11})
        assert dict(s.copy()) == {4: 10, 5: 11} and list(s.copy()) == [4, 5]
        assert dict(IdSet([4, 5])) == {4: None, 5: None}
