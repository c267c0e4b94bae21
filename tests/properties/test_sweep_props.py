"""Differential properties: the maintenance repair passes against the
per-leaf loops they replaced (``tests/overlay/reference_sweep.py``).

Two identically seeded systems receive the same operation sequence --
joins, deaths of leaves and supers (repaired or left for the sweep),
promotions, demotions.  One repairs through ``Maintenance`` -- the
by-exception ``sweep`` -- and reads the bootstrap stream a block ahead
(``repro.sim.rng.DrawAhead``); the other goes through the references, a
full scan calling ``ensure_leaf_links`` on every leaf and one sampler
call per orphan, links every joining or repaired leaf by the per-call
chain of ``tests/overlay/reference_join.py`` (one ``random_supers``
call, one ``connect`` per pick), and reads the generator call by call.
They must create the same links in the same order, report the same
repairs, and leave the bootstrap stream in the same state: a pass may
skip only visits that draw nothing, the read-ahead may move no draw,
and the fused leaf link may move no draw or listener call.
"""

from __future__ import annotations

from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay.bootstrap import JoinProcedure
from repro.overlay.maintenance import Maintenance
from repro.overlay.roles import Role
from repro.overlay.topology import Overlay
from repro.sim import rng as rng_module
from repro.sim.rng import DrawAhead
from tests.conftest import examples
from tests.overlay import reference_join
from tests.overlay.reference_sweep import reference_reconnect_orphans, reference_sweep

_PICK = st.integers(min_value=0, max_value=10**6)
ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("join"), st.floats(1.0, 500.0), st.none()),
        st.tuples(st.just("join_super"), st.floats(1.0, 500.0), st.none()),
        # (pick, repair): an unrepaired death leaves its orphans short,
        # which is the work the sweep exists for.
        st.tuples(st.just("kill_leaf"), _PICK, st.none()),
        st.tuples(st.just("kill_super"), _PICK, st.booleans()),
        st.tuples(st.just("promote"), _PICK, st.booleans()),
        st.tuples(st.just("demote"), _PICK, st.booleans()),
        st.tuples(st.just("sweep"), st.none(), st.none()),
    ),
    max_size=50,
)


class _SkewedRng:
    """A real ``Generator`` whose bounded integers collapse onto index 0
    unless divisible by ``skew`` -- elementwise, so stream position and
    partition invariance are the real generator's.  On a 4-super overlay
    that makes rejection runs long enough to reach a second block and
    the ``choice`` fallback thousands of times instead of never
    (``skew = 1`` is the plain generator).  Counts ``integers`` calls.
    """

    def __init__(self, skew: int) -> None:
        self._rng = np.random.default_rng(5)
        self.skew = skew
        self.draws = 0

    def integers(self, n, size=None):
        self.draws += 1
        v = self._rng.integers(n, size=size)
        return np.where(v % self.skew == 0, v, 0)

    def __getattr__(self, name):  # choice, bit_generator, ...
        return getattr(self._rng, name)


class _System:
    def __init__(self, m: int, *, reference=False, skew=1) -> None:
        self.overlay = ov = Overlay()
        self.draws = _SkewedRng(skew)
        rng = self.draws if reference else DrawAhead(self.draws)
        self.join = JoinProcedure(ov, m, rng, k_s=3)
        self.maint = maint = Maintenance(ov, self.join, m=m, k_s=3)
        if reference:
            # after_super_death / after_demotion / sweep, the slow way,
            # and every join and leaf repair by the per-call chain.
            maint.reconnect_orphans = partial(reference_reconnect_orphans, maint)
            maint.sweep = partial(reference_sweep, maint)
            self.join.join = partial(reference_join.join, self.join)
            self.join.connect_leaf = partial(reference_join.connect_leaf, self.join)
        self.links = []
        ov.add_connection_listener(lambda a, b: self.links.append((a, b)))
        self.t = 0.0

    def apply(self, op, x, y):
        """Run one op; returns its ``RepairReport`` if it repaired."""
        ov, join, maint = self.overlay, self.join, self.maint
        self.t += 1.0
        if op == "join":
            join.join(self.t, x, 1e6)
        elif op == "join_super":
            join.join(self.t, x, 1e6, role=Role.SUPER)
        elif op == "kill_leaf" and ov.n_leaf:
            ov.remove_peer(sorted(ov.leaf_ids)[x % ov.n_leaf])
        elif op == "kill_super" and ov.n_super:
            orphans, former = ov.remove_peer(sorted(ov.super_ids)[x % ov.n_super])
            if y:
                return maint.after_super_death(orphans, former)
        elif op == "promote" and ov.n_leaf:
            pid = sorted(ov.leaf_ids)[x % ov.n_leaf]
            ov.promote(pid)
            if y:
                return maint.after_promotion(pid)
        elif op == "demote" and ov.n_super:
            pid = sorted(ov.super_ids)[x % ov.n_super]
            orphans = ov.demote(pid, maint.m, join.rng)
            if y:
                return maint.after_demotion(pid, orphans)
        elif op == "reconnect":
            # Any pids at all: departed, supers, satisfied leaves, repeats.
            known = sorted(ov.leaf_ids) + sorted(ov.super_ids) + [10**9]
            return maint.reconnect_orphans(
                [known[i % len(known)] for i in x], links_each=y
            )
        elif op == "sweep":
            return maint.sweep()
        return None

    def same_as(self, ref: "_System", *, stream: bool = True) -> None:
        """Same links; with ``stream``, also the same generator state --
        a read that settles the block drawn ahead."""
        assert self.links == ref.links
        if stream:
            assert self.join.rng.bit_generator.state == ref.join.rng.bit_generator.state
        self.overlay.check_invariants(aggregates=True)


@given(ops=ops_strategy, m=st.sampled_from([1, 2, 3]))
@settings(max_examples=examples(3), deadline=None)
def test_sweep_matches_reference_scan(ops, m):
    new, ref = _System(m), _System(m, reference=True)
    for op, x, y in ops + [("sweep", None, None)]:
        if op != "sweep":
            new.apply(op, x, y)
            ref.apply(op, x, y)
            continue
        del new.links[:], ref.links[:]
        assert new.apply(op, x, y) == ref.apply(op, x, y)
        new.same_as(ref)
    assert new.overlay.snapshot() == ref.overlay.snapshot()


# -- orphan passes: read ahead against one draw per orphan -----------------

#: Few supers and many repairs: with at most four supers a pick is often
#: forced, and a skewed stream fills the rest of the rare paths.
tiny_ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("join"), st.floats(1.0, 500.0), st.none()),
        st.tuples(st.just("join"), st.floats(1.0, 500.0), st.none()),
        st.tuples(st.just("join_super"), st.floats(1.0, 500.0), st.none()),
        st.tuples(st.just("join_super"), st.floats(1.0, 500.0), st.none()),
        st.tuples(st.just("kill_leaf"), _PICK, st.none()),
        st.tuples(st.just("kill_super"), _PICK, st.booleans()),
        st.tuples(st.just("kill_super"), _PICK, st.just(True)),
        st.tuples(st.just("promote"), _PICK, st.booleans()),
        st.tuples(st.just("demote"), _PICK, st.just(True)),
        st.tuples(
            st.just("reconnect"),
            st.lists(st.integers(0, 40), max_size=12),
            st.sampled_from([1, 2, 3]),
        ),
        st.tuples(st.just("sweep"), st.none(), st.none()),
    ),
    max_size=40,
)


def _watch_read_ahead(monkeypatch, seen: Counter) -> None:
    """Count the read-ahead's and the sampler's rare paths as taken."""
    integers, other = DrawAhead.integers, DrawAhead.__getattr__
    sampler = Overlay.random_supers

    def counted_integers(self, bound, size=None):
        partial = 0 < self.pos < len(self.block)
        seen["bound_change_mid_block"] += partial and bound != self.bound
        seen["past_the_block"] += partial and self.pos + (size or 1) > len(self.block)
        return integers(self, bound, size)

    def counted_other(self, name):
        partial = 0 < self.pos < len(self.block)
        seen["fallback_after_partial_block"] += partial and name == "choice"
        return other(self, name)

    def counted_sampler(self, rng, k, exclude=()):
        avail = sum(1 for s in self.super_ids if s not in set(exclude))
        seen["forced"] += 0 < avail <= k
        seen["nothing_left"] += k > 0 and avail <= 0
        return sampler(self, rng, k, exclude)

    monkeypatch.setattr(DrawAhead, "integers", counted_integers)
    monkeypatch.setattr(DrawAhead, "__getattr__", counted_other)
    monkeypatch.setattr(Overlay, "random_supers", counted_sampler)


def test_orphan_passes_match_the_per_orphan_loop():
    seen = Counter()

    @given(
        n_supers=st.sampled_from([1, 2, 3, 4, 4, 4]),
        n_leaves=st.integers(12, 30),
        ops=tiny_ops_strategy,
        m=st.sampled_from([1, 2, 3]),
        skew=st.sampled_from([1, 8, 8]),
        block=st.sampled_from([1, 7, 13, 256, 256]),
    )
    @settings(max_examples=examples(3), deadline=None)
    def differential(n_supers, n_leaves, ops, m, skew, block):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rng_module, "PREFETCH_BLOCK", block)
            _watch_read_ahead(mp, seen)
            new = _System(m, skew=skew)
            ref = _System(m, skew=skew, reference=True)
            setup = [("join_super", 9.0, None)] * n_supers + [("join", 1.0, None)] * n_leaves
            for op, x, y in setup + ops + [("sweep", None, None)]:
                # The super layer is held at its drawn size: a dead super
                # is replaced before the next op, an extra one not admitted.
                n_super = new.overlay.n_super
                if op == "join_super" and n_super >= n_supers:
                    continue
                steps = [("join_super", 9.0, None)] * (n_supers - n_super) + [(op, x, y)]
                for step in steps:
                    del new.links[:], ref.links[:]
                    assert new.apply(*step) == ref.apply(*step)
                    # Blocks live on across steps, as in a run.
                    new.same_as(ref, stream=False)
            new.same_as(ref)
            assert new.overlay.snapshot() == ref.overlay.snapshot()

    differential()
    for path in (
        "forced",
        "nothing_left",
        "bound_change_mid_block",
        "past_the_block",
        "fallback_after_partial_block",
    ):
        assert seen[path], (path, seen)


@given(
    # (bound, size): size None is a scalar draw; bound None is a
    # `choice` (the exact-filtered fallback), 0 a state read.
    requests=st.lists(
        st.tuples(
            st.sampled_from([None, 0, 1, 2, 49, 500]),
            st.one_of(st.none(), st.integers(1, 300)),
        ),
        max_size=12,
    ),
)
@settings(max_examples=examples(3), deadline=None)
def test_draw_ahead_is_the_per_call_stream(requests):
    real, ahead = np.random.default_rng(9), DrawAhead(np.random.default_rng(9))
    for bound, size in requests:
        if bound is None:
            got = ahead.choice(7, size=3, replace=False).tolist()
            want = real.choice(7, size=3, replace=False).tolist()
        elif bound == 0:
            got, want = ahead.bit_generator.state, real.bit_generator.state
        else:
            got, want = ahead.integers(bound, size), real.integers(bound, size=size)
            want = want.tolist() if size else int(want)
        assert got == want
    ahead.settle()
    assert ahead.gen.bit_generator.state == real.bit_generator.state
