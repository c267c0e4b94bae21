"""Unit tests for the per-layer statistics sampler."""

from __future__ import annotations

import pytest

from repro.metrics.layerstats import SERIES_NAMES, LayerStatsSampler
from repro.overlay.roles import Role
from repro.overlay.topology import Overlay
from repro.sim.scheduler import Simulator
from tests.conftest import add_peer


def reference_layer_stats(overlay, now):
    """Every series by one plain-float pass over the peers (O(n)).

    Independent of the aggregate plane and of its fixed-point sums: the
    reference ``test_matches_reference_scan`` holds the sampler to.
    """
    sup_age = sup_cap = sup_lnn = 0.0
    leaf_age = leaf_cap = 0.0
    n_sup = 0
    n_leaf = 0
    for peer in overlay.peers():
        age = now - peer.join_time
        if peer.is_super:
            n_sup += 1
            sup_age += age
            sup_cap += peer.capacity
            sup_lnn += len(peer.leaf_neighbors)
        else:
            n_leaf += 1
            leaf_age += age
            leaf_cap += peer.capacity
    return {
        "n": n_sup + n_leaf,
        "n_super": n_sup,
        "n_leaf": n_leaf,
        "ratio": n_leaf / n_sup if n_sup else float("inf"),
        "super_mean_age": sup_age / n_sup if n_sup else 0.0,
        "leaf_mean_age": leaf_age / n_leaf if n_leaf else 0.0,
        "super_mean_capacity": sup_cap / n_sup if n_sup else 0.0,
        "leaf_mean_capacity": leaf_cap / n_leaf if n_leaf else 0.0,
        "super_mean_lnn": sup_lnn / n_sup if n_sup else 0.0,
    }


@pytest.fixture
def system():
    sim = Simulator(seed=0)
    ov = Overlay()
    add_peer(ov, 0, Role.SUPER, capacity=200.0, join_time=0.0)
    add_peer(ov, 1, Role.LEAF, capacity=40.0, join_time=0.0)
    add_peer(ov, 2, Role.LEAF, capacity=60.0, join_time=0.0)
    ov.connect(1, 0)
    ov.connect(2, 0)
    return sim, ov


class TestSampling:
    def test_all_series_recorded(self, system):
        sim, ov = system
        sampler = LayerStatsSampler(sim, ov, interval=5.0)
        sim.run(until=20.0)
        for name in SERIES_NAMES:
            assert name in sampler.bundle
            assert len(sampler.bundle[name]) == 4

    def test_sample_values(self, system):
        sim, ov = system
        sampler = LayerStatsSampler(sim, ov, interval=10.0)
        sim.run(until=10.0)
        b = sampler.bundle
        assert b["n"].last()[1] == 3
        assert b["n_super"].last()[1] == 1
        assert b["n_leaf"].last()[1] == 2
        assert b["ratio"].last()[1] == 2.0
        assert b["super_mean_age"].last()[1] == 10.0
        assert b["leaf_mean_age"].last()[1] == 10.0
        assert b["super_mean_capacity"].last()[1] == 200.0
        assert b["leaf_mean_capacity"].last()[1] == 50.0
        assert b["super_mean_lnn"].last()[1] == 2.0

    def test_empty_layer_degenerates_to_zero(self):
        sim = Simulator(seed=0)
        ov = Overlay()
        add_peer(ov, 0, Role.SUPER)
        sampler = LayerStatsSampler(sim, ov, interval=1.0)
        sim.run(until=1.0)
        b = sampler.bundle
        assert b["leaf_mean_age"].last()[1] == 0.0
        assert b["ratio"].last()[1] == 0.0

    def test_no_supers_ratio_inf(self):
        sim = Simulator(seed=0)
        ov = Overlay()
        add_peer(ov, 0, Role.LEAF)
        sampler = LayerStatsSampler(sim, ov, interval=1.0)
        sim.run(until=1.0)
        assert sampler.bundle["ratio"].last()[1] == float("inf")

    def test_stop(self, system):
        sim, ov = system
        sampler = LayerStatsSampler(sim, ov, interval=5.0)
        sim.run(until=10.0)
        sampler.stop()
        sim.run(until=50.0)
        assert len(sampler.bundle["n"]) == 2

    def test_custom_start(self, system):
        sim, ov = system
        sampler = LayerStatsSampler(sim, ov, interval=10.0, start=3.0)
        sim.run(until=14.0)
        assert list(sampler.bundle["n"].times) == [3.0, 13.0]

    def test_shared_bundle(self, system):
        sim, ov = system
        from repro.metrics.timeseries import SeriesBundle

        bundle = SeriesBundle()
        sampler = LayerStatsSampler(sim, ov, interval=5.0, bundle=bundle)
        sim.run(until=5.0)
        assert "ratio" in bundle


class TestConstantTimeSampling:
    def test_sample_never_iterates_peers(self, system, monkeypatch):
        """A sample folds the columns; it never walks the population.

        A Python-level per-peer path would have to go through
        ``Overlay.peers`` (or the layer registries' iterators);
        poisoning them proves the sampler touches neither.
        """
        sim, ov = system

        def boom(*a, **kw):
            raise AssertionError("sample() iterated the peer population")

        monkeypatch.setattr(type(ov), "peers", boom)
        monkeypatch.setattr(type(ov.super_ids), "__iter__", boom)
        sampler = LayerStatsSampler(sim, ov, interval=5.0)
        sim.run(until=20.0)
        assert len(sampler.bundle["n"]) == 4
        assert sampler.bundle["super_mean_lnn"].last()[1] == 2.0

    def test_matches_reference_scan(self, system):
        sim, ov = system
        sampler = LayerStatsSampler(sim, ov, interval=5.0)
        sim.run(until=15.0)
        reference = reference_layer_stats(ov, now=sim.now)
        for name, value in reference.items():
            assert sampler.bundle[name].last()[1] == pytest.approx(
                value, rel=1e-12
            ), name
