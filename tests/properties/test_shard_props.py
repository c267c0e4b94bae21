"""Property tests for the shard plane's two determinism pillars.

1. **Mailbox merges are interleaving-invariant.**  The merged delivery
   order of an inbox is a pure function of the messages' total-order
   keys ``(arrival, origin, origin_seq)`` -- shuffling the arrival
   interleaving (worker scheduling, pipe order, drain order) never
   changes it, and no two in-flight messages compare equal.

2. **Per-shard aggregate reduction equals the single-shard scan.**
   For an arbitrary peer population, partitioned arbitrarily across K
   shards, summing the shards' exact fixed-point rows reproduces the
   unpartitioned scan bit for bit -- every derived series value is
   ``==``, not approximately equal.  This is what makes the sharded
   engine's global Figure-4..8 series trustworthy.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.shardstats import reduce_sample_logs
from repro.overlay.aggregates import _fixed
from repro.sim.shard import ShardMessage, merge_messages
from tests.conftest import examples

# -- strategies ---------------------------------------------------------------

_arrivals = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def inboxes(draw):
    """A set of in-flight messages with necessarily-unique order keys.

    Seqs are drawn per origin shard as sorted unique ints, mirroring the
    monotone per-origin counter: two messages can share an arrival time
    (or even arrival and origin), never the full key.
    """
    nshards = draw(st.integers(min_value=2, max_value=5))
    dest = draw(st.integers(min_value=0, max_value=nshards - 1))
    messages = []
    for origin in range(nshards):
        if origin == dest:
            continue
        seqs = draw(
            st.lists(
                st.integers(min_value=0, max_value=50),
                unique=True,
                max_size=6,
            )
        )
        for seq in sorted(seqs):
            messages.append(
                ShardMessage(
                    arrival=draw(_arrivals),
                    origin=origin,
                    origin_seq=seq,
                    dest=dest,
                    payload={"seq": seq},
                )
            )
    return messages


#: One peer: (capacity, join_time, is_super, leaf_link_count).  The
#: capacities include non-dyadic and extreme magnitudes so a float
#: accumulator would drift; the fixed-point rows must not.
_peers = st.tuples(
    st.one_of(
        st.just(0.1),
        st.just(1e-12),
        st.just(3e9),
        st.floats(min_value=0.001, max_value=1e6, allow_nan=False),
    ),
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    st.booleans(),
    st.integers(min_value=0, max_value=5),
)


def _rows_for(population, ticks):
    """The ShardSampleLog rows a shard holding ``population`` would log."""
    n_sup = sum(1 for _, _, is_sup, _ in population if is_sup)
    n_leaf = len(population) - n_sup
    sup_cap = sum(_fixed(c) for c, _, is_sup, _ in population if is_sup)
    sup_jt = sum(_fixed(j) for _, j, is_sup, _ in population if is_sup)
    leaf_cap = sum(_fixed(c) for c, _, is_sup, _ in population if not is_sup)
    leaf_jt = sum(_fixed(j) for _, j, is_sup, _ in population if not is_sup)
    links = sum(lnk for _, _, is_sup, lnk in population if is_sup)
    return [
        (t, n_sup, n_leaf, sup_cap, sup_jt, leaf_cap, leaf_jt, links)
        for t in ticks
    ]


# -- properties ---------------------------------------------------------------


@settings(max_examples=examples(2), deadline=None)
@given(inboxes(), st.randoms(use_true_random=False))
def test_merge_invariant_to_interleaving(messages, rnd):
    expected = merge_messages(messages)
    shuffled = list(messages)
    rnd.shuffle(shuffled)
    assert merge_messages(shuffled) == expected


@settings(max_examples=examples(2), deadline=None)
@given(inboxes())
def test_merge_keys_strictly_increase(messages):
    merged = merge_messages(messages)
    keys = [m.order_key for m in merged]
    assert all(a < b for a, b in zip(keys, keys[1:]))


@settings(max_examples=examples(1.5), deadline=None)
@given(
    st.lists(_peers, min_size=1, max_size=40),
    st.integers(min_value=1, max_value=6),
    st.lists(
        st.floats(min_value=1.0, max_value=1e4, allow_nan=False),
        min_size=1,
        max_size=4,
        unique=True,
    ).map(sorted),
    st.randoms(use_true_random=False),
)
def test_reduction_equals_single_shard_scan(population, nshards, ticks, rnd):
    # Partition the population arbitrarily (shards may be empty; the
    # real engine never makes one, but the reduction must not care).
    assignment = [rnd.randrange(nshards) for _ in population]
    parts = [
        [p for p, a in zip(population, assignment) if a == k]
        for k in range(nshards)
    ]

    reduced = reduce_sample_logs([_rows_for(part, ticks) for part in parts])
    scanned = reduce_sample_logs([_rows_for(population, ticks)])

    assert reduced.names() == scanned.names()
    for name in scanned.names():
        assert list(reduced[name]) == list(scanned[name]), name


def test_reduction_rejects_misaligned_logs():
    import pytest

    log_a = _rows_for([(1.0, 0.0, True, 2)], [1.0, 2.0])
    log_b = _rows_for([(2.0, 0.0, False, 0)], [1.0])
    with pytest.raises(ValueError, match="tick-aligned"):
        reduce_sample_logs([log_a, log_b])
    log_c = _rows_for([(2.0, 0.0, False, 0)], [1.0, 3.0])
    with pytest.raises(ValueError, match="tick times"):
        reduce_sample_logs([log_a, log_c])
    with pytest.raises(ValueError, match="no shard"):
        reduce_sample_logs([])
