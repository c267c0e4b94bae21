"""Unit tests for the O(1)-sampling set."""

from __future__ import annotations

import numpy as np
import pytest

from repro.util.indexed_set import IndexedSet


class TestBasics:
    def test_starts_empty(self):
        s = IndexedSet()
        assert len(s) == 0 and 1 not in s

    def test_init_from_sequence(self):
        s = IndexedSet([3, 1, 2, 1])
        assert len(s) == 3 and all(x in s for x in (1, 2, 3))

    def test_add_and_contains(self):
        s = IndexedSet()
        s.add(5)
        assert 5 in s and len(s) == 1

    def test_add_duplicate_is_noop(self):
        s = IndexedSet()
        s.add(5)
        s.add(5)
        assert len(s) == 1

    def test_discard(self):
        s = IndexedSet([1, 2, 3])
        s.discard(2)
        assert 2 not in s and len(s) == 2

    def test_discard_missing_is_noop(self):
        s = IndexedSet([1])
        s.discard(9)
        assert len(s) == 1

    def test_discard_last_element(self):
        s = IndexedSet([1, 2, 3])
        s.discard(3)  # last in internal list -> pop path
        assert sorted(s) == [1, 2]

    def test_iteration_matches_membership(self):
        s = IndexedSet(range(10))
        for x in (0, 5, 9):
            s.discard(x)
        assert sorted(s) == sorted(set(range(10)) - {0, 5, 9})


class TestSampling:
    def test_choice_from_empty_raises(self, rng):
        with pytest.raises(IndexError):
            IndexedSet().choice(rng)

    def test_choice_returns_member(self, rng):
        s = IndexedSet([10, 20, 30])
        for _ in range(50):
            assert s.choice(rng) in s

    def test_choice_is_roughly_uniform(self, rng):
        s = IndexedSet(range(4))
        counts = np.zeros(4)
        for _ in range(4000):
            counts[s.choice(rng)] += 1
        assert counts.min() > 800  # each ~1000 expected

    def test_sample_distinct(self, rng):
        s = IndexedSet(range(100))
        out = s.sample(rng, 10)
        assert len(out) == len(set(out)) == 10

    def test_sample_more_than_size_returns_all(self, rng):
        s = IndexedSet([1, 2, 3])
        assert sorted(s.sample(rng, 10)) == [1, 2, 3]

    def test_sample_zero_or_negative(self, rng):
        s = IndexedSet([1, 2, 3])
        assert s.sample(rng, 0) == []
        assert s.sample(rng, -1) == []

    def test_sample_small_k_rejection_path(self, rng):
        s = IndexedSet(range(1000))
        out = s.sample(rng, 3)  # k*8 < n triggers rejection sampling
        assert len(set(out)) == 3

    def test_sample_large_k_permutation_path(self, rng):
        s = IndexedSet(range(16))
        out = s.sample(rng, 10)  # k*8 >= n triggers choice path
        assert len(set(out)) == 10

    def test_sample_after_heavy_churn(self, rng):
        s = IndexedSet()
        for i in range(200):
            s.add(i)
        for i in range(0, 200, 2):
            s.discard(i)
        out = s.sample(rng, 20)
        assert all(x % 2 == 1 for x in out)


class TestNumpyPartitionInvariance:
    """The NumPy behaviour the bootstrap stream's read-ahead rests on
    (``repro.sim.rng.DrawAhead.integers``): a bounded-integer request may
    be split anywhere without moving a value or the generator.  The
    transport's drop and latency draws (``random``, ``lognormal``
    through ``DrawAhead.next``) rest on the same property."""

    @pytest.mark.parametrize(
        "draw",
        [
            lambda gen, n: gen.random(n),
            lambda gen, n: gen.lognormal(-1.6, 0.5, size=n),
        ],
        ids=["random", "lognormal"],
    )
    @pytest.mark.parametrize("parts", [(1, 1), (3, 4), (1, 255), (256, 7), (2, 0, 3)])
    def test_random_and_lognormal_split_anywhere(self, draw, parts):
        whole, split = np.random.default_rng(77), np.random.default_rng(77)
        together = draw(whole, sum(parts)).tolist()
        pieces = [x for n in parts for x in draw(split, n).tolist()]
        assert pieces == together
        assert split.bit_generator.state == whole.bit_generator.state

    @pytest.mark.parametrize("bound", [1, 2, 49, 500, 2**32 + 5])
    @pytest.mark.parametrize(
        "parts", [(1, 1), (5, 5), (3, 4), (1, 6), (7, 1, 5), (5,) * 9, (2, 0, 3)]
    )
    def test_integers_of_a_plus_b_is_integers_a_then_integers_b(self, bound, parts):
        whole, split = np.random.default_rng(77), np.random.default_rng(77)
        for gen in (whole, split):
            gen.integers(bound, size=3)  # leaves a buffered 32-bit half
        together = whole.integers(bound, size=sum(parts)).tolist()
        pieces = [x for n in parts for x in split.integers(bound, size=n).tolist()]
        assert pieces == together
        # PCG64's state dict carries has_uint32 / uinteger, the half word.
        assert split.bit_generator.state == whole.bit_generator.state
        assert whole.integers(bound, size=4).tolist() == split.integers(bound, size=4).tolist()

    def test_a_sample_is_the_shared_block_rejection(self, rng):
        # `sample` and `Overlay.random_supers` share `_fresh`: blocks of
        # need + 4, first-seen order, the block's tail discarded.
        s = IndexedSet(range(100, 1100))
        twin = np.random.default_rng(1234)
        block = twin.integers(1000, size=3 + 4).tolist()
        assert len(set(block[:3])) == 3  # this seed: no repeat in the first three
        assert s.sample(rng, 3) == [100 + i for i in block[:3]]
        assert rng.bit_generator.state == twin.bit_generator.state
