"""Shared fixtures and builders for the test suite.

Hypothesis runs under one of two profiles, picked by the
``HYPOTHESIS_PROFILE`` environment variable: ``tier1`` (the default)
keeps Hypothesis' own 100 examples per test, ``deep`` takes ten times
that.  Every suite states its ``max_examples`` through
:func:`examples`, as a multiple of the profile's count, so a deep run
offline is one command::

    HYPOTHESIS_PROFILE=deep PYTHONPATH=src python -m pytest tests/properties
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np
import pytest
from hypothesis import settings

from repro.context import SystemContext, build_context
from repro.overlay.knowledge import Observation
from repro.overlay.peer import Peer
from repro.overlay.roles import Role
from repro.overlay.topology import Overlay
from repro.sim.scheduler import Simulator

settings.register_profile("tier1", max_examples=100)
settings.register_profile("deep", max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


def examples(multiple: float) -> int:
    """``max_examples`` of a suite that runs ``multiple`` times the
    active profile's example count."""
    return round(multiple * settings.default.max_examples)


def add_peer(
    ov: Overlay,
    pid: int,
    role: Role = Role.LEAF,
    *,
    capacity: float = 100.0,
    join_time: float = 0.0,
    lifetime: float = 1000.0,
) -> Peer:
    """Add an unconnected peer with sensible defaults to ``ov``."""
    return ov.add_peer(pid, role, capacity, join_time, lifetime)


def observation(peer: Peer, pid: int) -> Optional[Observation]:
    """``peer``'s observation of ``pid`` (None: never observed, or no
    response has reached ``peer`` yet)."""
    cache = peer._store.kn[peer._slot]
    return None if cache is None else cache.get(pid)


def _observation_entry(peer: Peer, pid: int) -> Observation:
    kn = peer._store.kn
    cache = kn[peer._slot]
    if cache is None:
        cache = kn[peer._slot] = {}
    obs = cache.get(pid)
    if obs is None:
        obs = cache[pid] = Observation()
    return obs


def observe_values(
    peer: Peer, pid: int, capacity: float, age: float, at: float
) -> None:
    """Write a ``value_response`` from ``pid`` sampled at ``at`` into
    ``peer``'s cache, as the transport's response arrival does."""
    obs = _observation_entry(peer, pid)
    obs.capacity = capacity
    obs.age_at_obs = age
    obs.values_time = at


def observe_lnn(peer: Peer, pid: int, l_nn: int, at: float) -> None:
    """Write a ``neigh_num_response`` from ``pid`` sampled at ``at``."""
    obs = _observation_entry(peer, pid)
    obs.l_nn = l_nn
    obs.lnn_time = at


def super_with_lnn(l_nn: int) -> Peer:
    """A lone super-peer whose degree column claims ``l_nn`` leaf links --
    the one input ``RatioEstimator.mu_for_super`` reads."""
    ov = Overlay()
    sup = add_peer(ov, 0, Role.SUPER)
    ov.store.n_leaf_links[sup._slot] = l_nn
    return sup


def build_small_overlay(n_supers: int = 3, leaves_per_super: int = 4) -> Overlay:
    """A deterministic overlay: a super-peer ring, each with private leaves.

    Super pids are 0..n_supers-1; leaf pids follow.  Supers are connected
    in a cycle (for n_supers >= 2... a 2-ring degenerates to one link).
    """
    ov = Overlay()
    for sid in range(n_supers):
        add_peer(ov, sid, Role.SUPER, capacity=200.0 + sid)
    for sid in range(n_supers):
        ov.connect(sid, (sid + 1) % n_supers) if n_supers > 1 else None
    pid = n_supers
    for sid in range(n_supers):
        for _ in range(leaves_per_super):
            add_peer(ov, pid, Role.LEAF, capacity=50.0 + pid)
            ov.connect(pid, sid)
            pid += 1
    return ov


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def sim() -> Simulator:
    return Simulator(seed=42)


@pytest.fixture
def ctx() -> SystemContext:
    return build_context(seed=42)


@pytest.fixture
def small_overlay() -> Overlay:
    return build_small_overlay()
