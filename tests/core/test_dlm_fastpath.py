"""Equivalence test: the fused super-evaluation fast path.

The fast path in ``DLMPolicy._evaluate_super`` computes the Y counters in
one pass over the adjacency; it must produce bit-identical decisions to
the reference path (``super_related_set`` + ``compare_against``).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.context import build_context
from repro.core.config import DLMConfig
from repro.core.dlm import DLMPolicy
from repro.overlay.roles import Role
from tests.core.reference_related_set import (
    compare_against,
    decide,
    super_related_set,
)


def reference_super_decision(policy, peer, now):
    """The un-fused computation, straight from the paper's pseudo-code."""
    mu = policy.estimator.mu_for_super(peer)
    params = policy.scaler.adapt(mu)
    view = super_related_set(policy.ctx.knowledge, peer, now)
    if len(view) < policy.config.min_related_set:
        return None
    y = compare_against(view, peer.capacity, peer.age(now), params.x_capa, params.x_age)
    return decide(Role.SUPER, y, params)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_fast_path_matches_reference(seed):
    rng = np.random.default_rng(seed)
    ctx = build_context(seed=seed)
    policy = DLMPolicy(
        DLMConfig(
            eta=5.0,
            action_prob=1.0,
            transition_cooldown=0.0,
            evaluation_interval=None,
            event_driven=False,
            force_demote_mu=-math.inf,
        )
    )
    policy.bind(ctx)
    # A random population of supers with varied leaves.
    supers = [
        ctx.join.join(0.0, float(rng.uniform(1, 300)), 500.0, role=Role.SUPER)
        for _ in range(6)
    ]
    for _ in range(40):
        ctx.join.join(
            float(rng.uniform(0, 5)), float(rng.uniform(1, 300)), 500.0
        )
    ctx.sim.run(until=float(rng.uniform(50, 150)))
    now = ctx.now

    for sup in supers:
        if sup.pid not in ctx.overlay:
            continue
        expected = reference_super_decision(policy, sup, now)
        got = policy._evaluate_super(sup, now)
        if expected is None:
            assert got is None
            continue
        assert got is not None
        assert got.action == expected.action
        assert got.y.y_capa == pytest.approx(expected.y.y_capa)
        assert got.y.y_age == pytest.approx(expected.y.y_age)
        assert got.y.g_size == expected.y.g_size
        assert got.params == expected.params


def test_fast_path_taken_for_populated_supers():
    """With leaves >= min_related_set, the fused branch runs (the view
    builder would prune; equivalence above already guards semantics)."""
    ctx = build_context(seed=0)
    policy = DLMPolicy(
        DLMConfig(
            eta=2.0,
            action_prob=1.0,
            transition_cooldown=0.0,
            evaluation_interval=None,
            event_driven=False,
        )
    )
    policy.bind(ctx)
    ctx.join.join(0.0, 10.0, 500.0, role=Role.SUPER)
    ctx.join.join(0.0, 10.0, 500.0, role=Role.SUPER)
    for _ in range(4):
        ctx.join.join(0.0, 10.0, 500.0)
    sup = ctx.overlay.peer(0)
    decision = policy._evaluate_super(sup, 10.0)
    assert decision is not None
    assert decision.y.g_size == len(sup.leaf_neighbors)
