"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.context import SystemContext, build_context
from repro.overlay.peer import Peer
from repro.overlay.roles import Role
from repro.overlay.topology import Overlay
from repro.sim.scheduler import Simulator


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
