"""Unit tests for the Zipf content catalog."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.search.content import ContentCatalog
from tests.conftest import examples


class TestCatalogConstruction:
    def test_probabilities_normalized(self):
        cat = ContentCatalog(n_objects=100, s=0.8)
        assert cat.probabilities.sum() == pytest.approx(1.0)

    def test_popularity_decreasing_in_rank(self):
        cat = ContentCatalog(n_objects=50, s=1.0)
        probs = cat.probabilities
        assert all(probs[i] >= probs[i + 1] for i in range(49))

    def test_zipf_exponent_zero_is_uniform(self):
        cat = ContentCatalog(n_objects=10, s=0.0)
        np.testing.assert_allclose(cat.probabilities, 0.1)

    def test_probabilities_read_only(self):
        cat = ContentCatalog(n_objects=10)
        with pytest.raises(ValueError):
            cat.probabilities[0] = 1.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ContentCatalog(n_objects=0)
        with pytest.raises(ValueError):
            ContentCatalog(n_objects=10, s=-1.0)


class TestSampling:
    def test_sample_range(self, rng):
        cat = ContentCatalog(n_objects=100, s=0.8)
        samples = cat.sample_objects(rng, 5000)
        assert samples.min() >= 0 and samples.max() < 100

    def test_sample_follows_popularity(self, rng):
        cat = ContentCatalog(n_objects=10, s=1.2)
        samples = cat.sample_objects(rng, 50_000)
        counts = np.bincount(samples, minlength=10)
        # head object should be sampled far more often than the tail
        assert counts[0] > 3 * counts[9]
        # and empirically close to its theoretical probability
        assert counts[0] / 50_000 == pytest.approx(cat.probabilities[0], rel=0.1)

    def test_negative_count_rejected(self, rng):
        with pytest.raises(ValueError):
            ContentCatalog(10).sample_objects(rng, -1)

    def test_query_target_in_range(self, rng):
        cat = ContentCatalog(n_objects=7)
        assert 0 <= cat.query_target(rng) < 7


class TestSharedSets:
    def test_shared_set_deduplicated(self, rng):
        cat = ContentCatalog(n_objects=5, s=2.0)  # heavy head -> collisions
        files = cat.sample_shared_set(rng, 20)
        assert len(files) == len(set(files))
        assert all(0 <= f < 5 for f in files)

    @pytest.mark.parametrize("k", [0, 1, 10, 50])
    def test_shared_set_is_the_deduplicated_draw_in_order(self, k):
        """The set and its tuple order: the checkpoint's ``directory``
        component writes the tuple, and the leaf index appends holders in
        its order, so neither may move."""
        cat = ContentCatalog(n_objects=10_000, s=0.8)
        rng, twin = np.random.default_rng(17), np.random.default_rng(17)
        for _ in range(20):
            expected = tuple(set(int(x) for x in cat.sample_objects(twin, k)))
            files = cat.sample_shared_set(rng, k)
            assert files == expected
            assert all(type(f) is int for f in files)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_zero_files(self, rng):
        assert ContentCatalog(10).sample_shared_set(rng, 0) == ()

    def test_expected_replication_sums_to_total_copies(self):
        cat = ContentCatalog(n_objects=100, s=0.8)
        repl = cat.expected_replication(n_peers=1000, files_per_peer=10)
        assert repl.sum() == pytest.approx(10_000)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_objects=st.integers(min_value=1, max_value=300),
    s=st.floats(min_value=0.0, max_value=2.0),
)
@settings(max_examples=examples(0.4), deadline=None)
def test_query_target_is_the_vector_stream(seed, n_objects, s):
    """``query_target`` returns what ``sample_objects(rng, 1)[0]`` would
    and leaves the generator where that call would (the scalar draw on
    the query-issue path must not move a single query)."""
    cat = ContentCatalog(n_objects=n_objects, s=s)
    scalar_rng, vector_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(50):
        one = cat.query_target(scalar_rng)
        assert type(one) is int
        assert one == int(cat.sample_objects(vector_rng, 1)[0])
    assert scalar_rng.bit_generator.state == vector_rng.bit_generator.state
