"""Unit tests for per-hop latency models."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocol.latency import (
    ConstantLatency,
    LatencyModel,
    LogNormalLatency,
    MixtureLatency,
    ShiftedLatency,
    UniformLatency,
    default_latency_model,
    default_shard_link_model,
)


class TestConstantLatency:
    def test_samples_constant(self, rng):
        np.testing.assert_array_equal(ConstantLatency(2.5).sample(rng, 4), 2.5)

    def test_mean(self):
        assert ConstantLatency(3.0).mean == 3.0

    def test_zero_allowed(self, rng):
        np.testing.assert_array_equal(ConstantLatency(0.0).sample(rng, 3), 0.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ConstantLatency(-1.0)


class TestUniformLatency:
    def test_bounds(self, rng):
        s = UniformLatency(1.0, 3.0).sample(rng, 1000)
        assert s.min() >= 1.0 and s.max() <= 3.0

    def test_mean(self):
        assert UniformLatency(1.0, 3.0).mean == 2.0

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            UniformLatency(3.0, 1.0)
        with pytest.raises(ValueError):
            UniformLatency(-1.0, 1.0)


class TestLogNormalLatency:
    def test_median(self, rng):
        s = LogNormalLatency(median=5.0, sigma=0.5).sample(rng, 50_000)
        assert np.median(s) == pytest.approx(5.0, rel=0.05)

    def test_mean_formula(self, rng):
        model = LogNormalLatency(median=1.0, sigma=0.5)
        s = model.sample(rng, 100_000)
        assert s.mean() == pytest.approx(model.mean, rel=0.05)

    def test_invalid(self):
        with pytest.raises(ValueError):
            LogNormalLatency(0.0, 1.0)
        with pytest.raises(ValueError):
            LogNormalLatency(1.0, 0.0)


class TestDefault:
    def test_default_is_lognormal_unit_median(self):
        model = default_latency_model()
        assert isinstance(model, LogNormalLatency)
        assert model.mean > 1.0  # lognormal mean exceeds median


class TestShiftedLatency:
    def test_samples_raised_by_shift(self, rng):
        s = ShiftedLatency(UniformLatency(0.0, 1.0), 2.0).sample(rng, 1000)
        assert s.min() >= 2.0 and s.max() <= 3.0

    def test_mean(self):
        assert ShiftedLatency(ConstantLatency(1.0), 0.5).mean == 1.5

    def test_negative_shift_rejected(self):
        with pytest.raises(ValueError):
            ShiftedLatency(ConstantLatency(1.0), -0.1)


class TestMixtureLatency:
    def test_samples_come_from_components(self, rng):
        model = MixtureLatency(
            [ConstantLatency(1.0), ConstantLatency(5.0)], [0.5, 0.5]
        )
        s = model.sample(rng, 2000)
        assert set(np.unique(s)) == {1.0, 5.0}

    def test_mean_is_weighted(self):
        model = MixtureLatency(
            [ConstantLatency(1.0), ConstantLatency(5.0)], [3.0, 1.0]
        )
        assert model.mean == pytest.approx(0.75 * 1.0 + 0.25 * 5.0)

    def test_weights_normalized(self):
        model = MixtureLatency([ConstantLatency(1.0)], [7.0])
        assert model.weights == (1.0,)

    def test_invalid(self):
        with pytest.raises(ValueError):
            MixtureLatency([], [])
        with pytest.raises(ValueError):
            MixtureLatency([ConstantLatency(1.0)], [1.0, 2.0])
        with pytest.raises(ValueError):
            MixtureLatency([ConstantLatency(1.0)], [-1.0])
        with pytest.raises(ValueError):
            MixtureLatency(
                [ConstantLatency(1.0), ConstantLatency(2.0)], [0.0, 0.0]
            )


class TestMinDelay:
    """The exact-lower-bound contract every model must honor."""

    def test_constant(self):
        assert ConstantLatency(2.5).min_delay() == 2.5
        assert ConstantLatency(0.0).min_delay() == 0.0

    def test_uniform(self):
        assert UniformLatency(1.0, 3.0).min_delay() == 1.0
        assert UniformLatency(0.0, 3.0).min_delay() == 0.0

    def test_lognormal_is_honestly_zero(self):
        assert LogNormalLatency(median=5.0, sigma=0.5).min_delay() == 0.0

    def test_shifted(self):
        assert ShiftedLatency(ConstantLatency(1.0), 0.5).min_delay() == 1.5
        assert (
            ShiftedLatency(LogNormalLatency(1.0, 0.5), 0.25).min_delay() == 0.25
        )

    def test_mixture_takes_component_minimum(self):
        model = MixtureLatency(
            [UniformLatency(1.0, 2.0), ConstantLatency(0.5)], [0.5, 0.5]
        )
        assert model.min_delay() == 0.5

    def test_mixture_ignores_zero_weight_components(self):
        model = MixtureLatency(
            [UniformLatency(1.0, 2.0), ConstantLatency(0.0)], [1.0, 0.0]
        )
        assert model.min_delay() == 1.0

    def test_nested_mixture_of_shifted_models(self):
        model = MixtureLatency(
            [
                ShiftedLatency(LogNormalLatency(1.0, 0.5), 0.75),
                MixtureLatency(
                    [ConstantLatency(2.0), UniformLatency(0.5, 1.0)],
                    [0.5, 0.5],
                ),
            ],
            [0.25, 0.75],
        )
        assert model.min_delay() == 0.5

    @pytest.mark.parametrize(
        "model",
        [
            ConstantLatency(1.5),
            UniformLatency(0.5, 1.5),
            LogNormalLatency(1.0, 0.5),
            ShiftedLatency(LogNormalLatency(1.0, 0.5), 0.5),
            MixtureLatency(
                [ShiftedLatency(UniformLatency(0.0, 1.0), 0.25),
                 ConstantLatency(2.0)],
                [0.8, 0.2],
            ),
            default_shard_link_model(),
        ],
        ids=["constant", "uniform", "lognormal", "shifted", "mixture", "shard"],
    )
    def test_bound_never_violated_by_samples(self, model, rng):
        s = model.sample(rng, 20_000)
        assert float(s.min()) >= model.min_delay()

    def test_default_shard_link_has_positive_lookahead(self):
        assert default_shard_link_model().min_delay() > 0.0


# One instance (at least) of every model class in the package.
SCALAR_CASES = [
    ConstantLatency(1.5),
    UniformLatency(0.5, 1.5),
    LogNormalLatency(2.0, 0.5),
    ShiftedLatency(LogNormalLatency(1.0, 0.5), 0.25),
    default_shard_link_model(),
    MixtureLatency(
        [ShiftedLatency(UniformLatency(0.0, 1.0), 0.25), ConstantLatency(2.0)],
        [0.8, 0.2],
    ),
]


def test_scalar_cases_cover_every_latency_model_class():
    shipped = {
        cls
        for cls in LatencyModel.__subclasses__()
        if cls.__module__.startswith("repro.")
    }
    assert shipped <= {type(m) for m in SCALAR_CASES}


@pytest.mark.parametrize(
    "model",
    [m for m in SCALAR_CASES if not isinstance(m, MixtureLatency)],
    ids=repr,
)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    parts=st.lists(st.integers(min_value=0, max_value=300), max_size=6),
)
@settings(max_examples=20, deadline=None)
def test_sample_one_is_the_vector_stream(model, seed, parts):
    """Values taken one at a time, or in any split, are the vector
    stream: ``sample(a + b)`` is ``sample(a)`` then ``sample(b)``,
    values and generator state.  The transport's draw-ahead buffer
    (``RngStreams.prefetch``) rests on it: a block of 256 hands out what
    per-leg draws would, and settling redraws exactly the used prefix."""
    parts = [1, 1, *parts, 1]
    split_rng, whole_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    pieces = [x for n in parts for x in model.sample(split_rng, n).tolist()]
    whole = model.sample(whole_rng, sum(parts)).tolist()
    assert [x.hex() for x in pieces] == [x.hex() for x in whole]
    assert split_rng.bit_generator.state == whole_rng.bit_generator.state


def test_a_mixture_is_not_block_splittable():
    # It draws every component pick before any delay, so it may not be
    # read through a draw-ahead buffer (see ``LatencyModel.sample``).
    model = SCALAR_CASES[-1]
    assert isinstance(model, MixtureLatency)
    split_rng, whole_rng = np.random.default_rng(3), np.random.default_rng(3)
    pieces = [float(model.sample(split_rng, 1)[0]) for _ in range(8)]
    assert pieces != model.sample(whole_rng, 8).tolist()


class TestStableReprs:
    """Model reprs feed the checkpoint config hash; no memory addresses."""

    @pytest.mark.parametrize(
        "model",
        [
            ConstantLatency(1.5),
            UniformLatency(0.5, 1.5),
            LogNormalLatency(2.0, 0.5),
            ShiftedLatency(UniformLatency(0.0, 1.0), 0.5),
            MixtureLatency(
                [ConstantLatency(1.0), ConstantLatency(2.0)], [1.0, 3.0]
            ),
        ],
        ids=["constant", "uniform", "lognormal", "shifted", "mixture"],
    )
    def test_repr_roundtrips_by_eval(self, model):
        rebuilt = eval(repr(model))  # noqa: S307 - controlled test input
        assert repr(rebuilt) == repr(model)
        assert "0x" not in repr(model)


class TestShardedConfigValidation:
    """Sharded runs refuse zero-lookahead link models, loudly."""

    def test_zero_lookahead_model_refused(self):
        from repro.experiments.configs import table2_config

        with pytest.raises(ValueError, match="positive lookahead"):
            table2_config().with_(
                n=400,
                shards=2,
                shard_link_latency=LogNormalLatency(1.0, 0.5),
            )

    def test_refusal_message_is_actionable(self):
        from repro.experiments.configs import table2_config

        with pytest.raises(ValueError, match="ShiftedLatency"):
            table2_config().with_(
                n=400,
                shards=2,
                shard_link_latency=UniformLatency(0.0, 1.0),
            )

    def test_zero_lookahead_mixture_refused(self):
        from repro.experiments.configs import table2_config

        mixture = MixtureLatency(
            [ConstantLatency(2.0), LogNormalLatency(1.0, 0.5)], [0.9, 0.1]
        )
        assert mixture.min_delay() == 0.0
        with pytest.raises(ValueError, match="min_delay"):
            table2_config().with_(n=400, shards=2, shard_link_latency=mixture)

    def test_positive_lookahead_model_accepted(self):
        from repro.experiments.configs import table2_config

        cfg = table2_config().with_(
            n=400,
            shards=2,
            horizon=2000.0,
            shard_link_latency=ShiftedLatency(LogNormalLatency(1.0, 0.5), 0.5),
        )
        assert cfg.shard_link_model().min_delay() == 0.5

    def test_unsharded_config_accepts_any_model(self):
        from repro.experiments.configs import table2_config

        cfg = table2_config().with_(
            shard_link_latency=LogNormalLatency(1.0, 0.5)
        )
        assert cfg.shards == 1


class TestTimedFlooding:
    def test_flood_reports_latency(self, rng):
        from repro.overlay.roles import Role
        from repro.overlay.topology import Overlay
        from repro.search.content import ContentCatalog
        from repro.search.flooding import FloodRouter
        from repro.search.index import ContentDirectory
        from tests.conftest import add_peer

        ov = Overlay()
        directory = ContentDirectory(
            ov, ContentCatalog(50), np.random.default_rng(1), files_per_peer=0
        )
        for sid in range(4):
            add_peer(ov, sid, Role.SUPER)
            if sid:
                ov.connect(sid - 1, sid)
        add_peer(ov, 100, Role.LEAF)
        directory._files[100] = (7,)
        ov.connect(100, 3)

        router = FloodRouter(
            ov, directory, ttl=5, latency=ConstantLatency(2.0), rng=rng
        )
        out = router.query(0, 7)
        assert out.found and out.first_hit_hops == 3
        # 3 hops out + 3 hops back at 2.0 each
        assert out.first_hit_latency == pytest.approx(12.0)

    def test_first_hit_latency_is_2d_fresh_hop_draws(self):
        """The timed flood's whole RNG consumption: one ``sample(rng,
        2*d)`` for the first hit (d hops out, d back), nothing on a miss."""
        from repro.overlay.roles import Role
        from repro.overlay.topology import Overlay
        from repro.search.content import ContentCatalog
        from repro.search.flooding import FloodRouter
        from repro.search.index import ContentDirectory
        from tests.conftest import add_peer

        ov = Overlay()
        directory = ContentDirectory(
            ov, ContentCatalog(50), np.random.default_rng(1), files_per_peer=0
        )
        for sid in range(4):
            add_peer(ov, sid, Role.SUPER)
            if sid:
                ov.connect(sid - 1, sid)
        add_peer(ov, 100, Role.LEAF)
        directory._files[100] = (7,)
        ov.connect(100, 3)

        model = LogNormalLatency(1.0, 0.5)
        flood_rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        router = FloodRouter(ov, directory, ttl=5, latency=model, rng=flood_rng)
        out = router.query(0, 7)
        assert out.first_hit_hops == 3
        assert out.first_hit_latency == float(model.sample(twin, 6).sum())
        assert router.query(0, 8).first_hit_latency is None  # a miss
        assert flood_rng.bit_generator.state == twin.bit_generator.state

    def test_local_hit_has_zero_latency(self, rng):
        from repro.overlay.roles import Role
        from repro.overlay.topology import Overlay
        from repro.search.content import ContentCatalog
        from repro.search.flooding import FloodRouter
        from repro.search.index import ContentDirectory
        from tests.conftest import add_peer

        ov = Overlay()
        directory = ContentDirectory(
            ov, ContentCatalog(50), np.random.default_rng(1), files_per_peer=0
        )
        add_peer(ov, 0, Role.SUPER)
        directory._files[0] = (7,)
        router = FloodRouter(
            ov, directory, ttl=5, latency=ConstantLatency(2.0), rng=rng
        )
        out = router.query(0, 7)
        assert out.first_hit_latency == 0.0

    def test_untimed_flood_reports_none(self, rng):
        from repro.overlay.roles import Role
        from repro.overlay.topology import Overlay
        from repro.search.content import ContentCatalog
        from repro.search.flooding import FloodRouter
        from repro.search.index import ContentDirectory
        from tests.conftest import add_peer

        ov = Overlay()
        directory = ContentDirectory(
            ov, ContentCatalog(50), np.random.default_rng(1), files_per_peer=0
        )
        add_peer(ov, 0, Role.SUPER)
        directory._files[0] = (7,)
        out = FloodRouter(ov, directory).query(0, 7)
        assert out.first_hit_latency is None

    def test_latency_without_rng_rejected(self):
        from repro.overlay.topology import Overlay
        from repro.search.content import ContentCatalog
        from repro.search.index import ContentDirectory

        ov = Overlay()
        directory = ContentDirectory(
            ov, ContentCatalog(10), np.random.default_rng(0)
        )
        from repro.search.flooding import FloodRouter

        with pytest.raises(ValueError, match="rng"):
            FloodRouter(ov, directory, latency=ConstantLatency(1.0))

    def test_stats_accumulate_latency(self, rng):
        from repro.search.flooding import QueryOutcome
        from repro.search.stats import QueryStats

        stats = QueryStats()
        stats.record(
            QueryOutcome(1, 2, True, 1, 3, 5, 2, 2, first_hit_latency=4.0)
        )
        stats.record(
            QueryOutcome(1, 2, True, 1, 3, 5, 2, 2, first_hit_latency=8.0)
        )
        stats.record(QueryOutcome(1, 2, False, 0, 3, 5, 0, None))
        snap = stats.snapshot
        assert snap.latency_samples == 2
        assert snap.mean_time_to_first_hit == pytest.approx(6.0)
