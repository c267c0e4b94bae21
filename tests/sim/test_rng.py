"""Unit tests for the named RNG streams."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.rng import RngStreams


class TestStreamIdentity:
    def test_same_name_returns_same_generator(self):
        streams = RngStreams(7)
        assert streams.get("a") is streams.get("a")

    def test_different_names_different_generators(self):
        streams = RngStreams(7)
        assert streams.get("a") is not streams.get("b")

    def test_seed_property(self):
        assert RngStreams(99).seed == 99


class TestReproducibility:
    def test_same_seed_same_name_same_samples(self):
        a = RngStreams(123).get("lifetime").random(100)
        b = RngStreams(123).get("lifetime").random(100)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngStreams(1).get("lifetime").random(100)
        b = RngStreams(2).get("lifetime").random(100)
        assert not np.array_equal(a, b)

    def test_streams_are_isolated(self):
        """Draws on one stream must not perturb another."""
        s1 = RngStreams(5)
        s1.get("a").random(1000)  # burn stream a
        after_burn = s1.get("b").random(10)
        fresh = RngStreams(5).get("b").random(10)
        np.testing.assert_array_equal(after_burn, fresh)

    def test_different_names_produce_different_sequences(self):
        streams = RngStreams(5)
        a = streams.get("x").random(50)
        b = streams.get("y").random(50)
        assert not np.array_equal(a, b)


class TestValidation:
    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            RngStreams(0).get("")

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RngStreams("abc")  # type: ignore[arg-type]

    def test_numpy_integer_seed_accepted(self):
        assert RngStreams(np.int64(4)).seed == 4


class TestIntrospection:
    def test_contains_after_get(self):
        streams = RngStreams(0)
        assert "a" not in streams
        streams.get("a")
        assert "a" in streams

    def test_iter_lists_created_streams(self):
        streams = RngStreams(0)
        streams.get("b")
        streams.get("a")
        assert sorted(streams) == ["a", "b"]


def _uniform(gen, n):
    return gen.random(n)


class TestDrawAhead:
    """A prefetched stream hands out the scalar stream, and every
    snapshot sees the generator where scalar draws would have left it."""

    @pytest.mark.parametrize("taken", [0, 1, 255, 256, 257, 600])
    def test_values_and_snapshot_equal_scalar_draws(self, taken):
        ahead_streams, scalar_streams = RngStreams(5), RngStreams(5)
        ahead = ahead_streams.prefetch("s", _uniform)
        scalar = scalar_streams.get("s")
        assert [ahead.next() for _ in range(taken)] == [
            scalar.random() for _ in range(taken)
        ]
        assert ahead_streams.snapshot() == scalar_streams.snapshot()
        # Drawing on after a snapshot continues the same stream.
        assert [ahead.next() for _ in range(300)] == list(scalar.random(300))

    def test_restore_voids_the_block_drawn_ahead(self):
        streams = RngStreams(5)
        ahead = streams.prefetch("s", _uniform)
        start = streams.snapshot()
        first = [ahead.next() for _ in range(3)]
        streams.restore(start)
        assert [ahead.next() for _ in range(3)] == first

    def test_one_buffer_per_stream(self):
        streams = RngStreams(5)
        streams.prefetch("s", _uniform)
        with pytest.raises(ValueError, match="already prefetched"):
            streams.prefetch("s", _uniform)
