"""Differential properties: the maintenance repair passes against the
per-leaf loops they replaced (``tests/overlay/reference_sweep.py``).

Two identically seeded systems receive the same operation sequence --
joins, deaths of leaves and supers (repaired or left for the sweep),
promotions, demotions.  One repairs through ``Maintenance`` -- the
by-exception ``sweep``, orphan passes planned from one draw per chunk --
the other through the references: a full scan calling
``ensure_leaf_links`` on every leaf, and one sampler call per orphan.
They must create the same links in the same order, report the same
repairs, and leave the bootstrap stream in the same state: a pass may
skip only visits that draw nothing, and may batch only draws the stream
cannot tell apart.
"""

from __future__ import annotations

from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay import maintenance as maintenance_module
from repro.overlay.bootstrap import JoinProcedure
from repro.overlay.family import make_family
from repro.overlay.maintenance import Maintenance
from repro.overlay.roles import Role
from repro.overlay.topology import Overlay, _Replay
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
    def __init__(self, family: str, m: int, *, reference=False, skew=1) -> None:
        self.overlay = ov = Overlay()
        self.join = JoinProcedure(
            ov, m, _SkewedRng(skew), k_s=3, family=make_family(family)
        )
        self.maint = maint = Maintenance(ov, self.join, m=m, k_s=3)
        if reference:
            # after_super_death / after_demotion / sweep, the slow way.
            maint.reconnect_orphans = partial(reference_reconnect_orphans, maint)
            maint.sweep = partial(reference_sweep, maint)
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

    def same_as(self, ref: "_System") -> None:
        assert self.links == ref.links
        assert self.join.rng.bit_generator.state == ref.join.rng.bit_generator.state
        self.overlay.check_invariants(aggregates=True)


@given(
    ops=ops_strategy,
    m=st.sampled_from([1, 2, 3]),
    family=st.sampled_from(["superpeer", "chord"]),
)
@settings(max_examples=300, deadline=None)
def test_sweep_matches_reference_scan(ops, m, family):
    new, ref = _System(family, m), _System(family, m, reference=True)
    for op, x, y in ops + [("sweep", None, None)]:
        if op != "sweep":
            new.apply(op, x, y)
            ref.apply(op, x, y)
            continue
        del new.links[:], ref.links[:]
        assert new.apply(op, x, y) == ref.apply(op, x, y)
        new.same_as(ref)
    assert new.overlay.snapshot() == ref.overlay.snapshot()


# -- orphan passes: one draw per chunk against one draw per orphan ----------

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


def _watch_replay(monkeypatch, seen: Counter) -> None:
    """Count the batch sampler's rare paths as they are taken."""
    integers, choice, planned = _Replay.integers, _Replay.choice, Overlay.connect_leaves

    def counted_integers(self, n, size):
        seen["past_the_block"] += self.pos + size > len(self.buf)
        return integers(self, n, size)

    def counted_choice(self, *args, **kwargs):
        seen["fallback"] += 1
        seen["fallback_with_rewind"] += self.pos < len(self.buf)
        return choice(self, *args, **kwargs)

    def counted_pass(self, rng, requests):
        seen["passes"] += bool(requests)
        seen["requests"] += len(requests)
        for pid, k in requests:
            avail = self.n_super - len(self.peer(pid).super_neighbors)
            seen["forced"] += 0 < avail <= k
            seen["nothing_left"] += avail <= 0
        return planned(self, rng, requests)

    monkeypatch.setattr(_Replay, "integers", counted_integers)
    monkeypatch.setattr(_Replay, "choice", counted_choice)
    monkeypatch.setattr(Overlay, "connect_leaves", counted_pass)


@pytest.mark.parametrize("family", ["superpeer", "chord"])
def test_orphan_passes_match_the_per_orphan_loop(family):
    seen = Counter()

    @given(
        n_supers=st.sampled_from([1, 2, 3, 4, 4, 4]),
        n_leaves=st.integers(12, 30),
        ops=tiny_ops_strategy,
        m=st.sampled_from([1, 2, 3]),
        skew=st.sampled_from([1, 8, 8]),
        chunk=st.sampled_from([1, 3, 256, 256, 256]),
    )
    @settings(max_examples=300, deadline=None)
    def differential(n_supers, n_leaves, ops, m, skew, chunk):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(maintenance_module, "_CHUNK", chunk)
            _watch_replay(mp, seen)
            new = _System(family, m, skew=skew)
            ref = _System(family, m, skew=skew, reference=True)
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
                    new.same_as(ref)
            assert new.overlay.snapshot() == ref.overlay.snapshot()
            seen["draws_batched"] += new.join.rng.draws
            seen["draws_per_orphan"] += ref.join.rng.draws

    differential()
    for path in ("forced", "nothing_left", "past_the_block", "fallback_with_rewind"):
        assert seen[path], (path, seen)
    # What the batch is for: fewer generator calls for the same stream.
    assert seen["passes"] < seen["requests"]
    assert seen["draws_batched"] < seen["draws_per_orphan"], seen


@given(
    bound=st.sampled_from([1, 2, 49, 500]),
    # None is a `choice` (the exact-filtered fallback) at that point.
    sizes=st.lists(st.one_of(st.none(), st.integers(1, 20)), max_size=12),
    ahead=st.integers(0, 150),
)
@settings(max_examples=300, deadline=None)
def test_replay_is_the_sequential_stream(bound, sizes, ahead):
    real, early = np.random.default_rng(9), np.random.default_rng(9)
    replay = _Replay(early, bound, ahead)
    for size in sizes:
        if size is None:
            assert replay.choice(7, size=3, replace=False).tolist() == (
                real.choice(7, size=3, replace=False).tolist()
            )
        else:
            assert replay.integers(bound, size=size) == (
                real.integers(bound, size=size).tolist()
            )
    # Drawn ahead and never handed out is the one way to end elsewhere;
    # `connect_leaves` forecasts what its requests consume at least.
    if None in sizes or ahead <= sum(sizes):
        assert early.bit_generator.state == real.bit_generator.state
