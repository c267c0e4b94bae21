"""Property test: the columnar record log and its JSONL renderer against
the tuple ring they replaced (``tests/telemetry/reference_export.py``).

Random emit streams mix the registered kinds (``audit``, ``transport``,
``health.*``, each with a width around its schema's) and an unregistered
kind that exports its raw ``values`` list.  Values come from small
per-position pools, so shapes repeat and typed columns grow, over the
values whose JSON or storage is easy to get wrong: signed zeros, NaN,
infinities, subnormals, ``np.float64``, bools, ints beyond int64, and
strings that need escaping or contain ``%``.  A checkpoint round trip
may land anywhere in the stream, into any capacity.  After the stream
every read -- the exported record lines byte for byte, ``len``,
``dropped``, ``total_emitted``, ``records``, ``tail`` and the snapshot
-- must equal the model's; tuples and snapshots are compared as
memo-free pickles (as ``state_digest`` does), so NaN compares equal to
itself and ``-0.0``, ``np.float64`` and ``bool`` keep their identity.
"""

from __future__ import annotations

import io
import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.health.plane  # noqa: F401  (registers the health.* schemas)
from repro.telemetry.export import _record_lines
from repro.telemetry.records import HEALTH_FIELDS, SCHEMAS, RecordLog
from tests.telemetry.reference_export import ReferenceRing

UNREGISTERED = "x.unregistered%é"
KINDS = {
    "audit": len(SCHEMAS["audit"]),
    "transport": len(SCHEMAS["transport"]),
    "health.ratio_drift": len(HEALTH_FIELDS),
    UNREGISTERED: 2,
}
CAPACITIES = (None, 1, 3, 17)
NAN = float("nan")
VALUES = (
    -0.0,
    0.0,
    NAN,
    float("inf"),
    float("-inf"),
    5e-324,
    1e16,
    0.1,
    np.float64(0.25),
    np.float64(-0.0),
    True,
    False,
    0,
    -7,
    2**63 - 1,
    -(2**63),
    2**63,
    -(2**63) - 1,
    2**70,
    "",
    'say "hi"',
    "back\\slash",
    "new\nline",
    "100%",
    "%s",
    "café",
    "\u2028",
    "leaf",
    None,
)
TIMES = (0.0, -0.0, 1.5, NAN, 1e16, 3, None)


def digest(value) -> bytes:
    buf = io.BytesIO()
    pickler = pickle.Pickler(buf, protocol=4)
    pickler.fast = True
    pickler.dump(value)
    return buf.getvalue()


def round_trip(snapshot: dict) -> dict:
    return pickle.loads(pickle.dumps(snapshot))


def assert_same(log: RecordLog, ref: ReferenceRing) -> None:
    assert list(_record_lines(log)) == ref.lines()
    assert len(log) == len(ref)
    assert log.dropped == ref.dropped
    assert log.total_emitted == ref.next_seq
    assert digest(log.records()) == digest(ref.records())
    assert digest(tuple(log)) == digest(ref.records())
    for kind in (None, *KINDS):
        assert digest(log.records(kind)) == digest(ref.records(kind))
        for n in (0, 1, 2, 5, 40):
            assert digest(log.tail(n, kind)) == digest(ref.tail(n, kind))
    assert digest(log.snapshot()) == digest(ref.snapshot())


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_log_and_export_match_the_tuple_ring(data):
    draw = data.draw
    capacity = draw(st.sampled_from(CAPACITIES), label="capacity")
    log, ref = RecordLog(capacity), ReferenceRing(capacity)
    pools = {
        kind: [
            draw(st.lists(st.sampled_from(VALUES), min_size=1, max_size=3))
            for _ in range(draw(st.integers(max(width - 1, 0), width + 1)))
        ]
        for kind, width in KINDS.items()
    }
    n_emits = draw(st.integers(0, 60), label="emits")
    restore_at = draw(st.none() | st.integers(0, n_emits), label="restore_at")
    for i in range(n_emits + 1):
        if i == restore_at:
            capacity = draw(st.sampled_from(CAPACITIES), label="restore_capacity")
            state = round_trip(log.snapshot())
            assert digest(state) == digest(ref.snapshot())
            log, ref = RecordLog(capacity), ReferenceRing(capacity)
            log.restore(state)
            ref.restore(round_trip(state))
        if i == n_emits:
            break
        kind = draw(st.sampled_from(sorted(KINDS)))
        t = draw(st.sampled_from(TIMES))
        values = tuple(draw(st.sampled_from(pool)) for pool in pools[kind])
        log.emit(kind, t, values)
        ref.emit(kind, t, values)
    assert_same(log, ref)
