"""Property test: the columnar record log and its JSONL renderer against
the tuple ring they replaced (``tests/telemetry/reference_export.py``).

Random emit streams mix the registered kinds (``audit``, ``transport``,
and the health evidence's ``sample`` and ``role``, each with a width
around its schema's) and an unregistered kind that exports its raw
``values`` list.  Values come from small
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

from repro.telemetry.export import _record_lines
from repro.telemetry.records import SCHEMAS, AuditLog, RecordLog
from tests.conftest import examples
from tests.telemetry.reference_export import ReferenceRing

UNREGISTERED = "x.unregistered%é"
KINDS = {
    "audit": len(SCHEMAS["audit"]),
    "transport": len(SCHEMAS["transport"]),
    "sample": len(SCHEMAS["sample"]),
    "role": len(SCHEMAS["role"]),
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


@settings(max_examples=examples(1.5), deadline=None)
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


#: ``record_decision``'s fields in call order, each with the values of
#: the policy's exact type (the decision shape; ints beyond int64
#: widen a column) and the values the guard must send to ``emit``: an
#: int ``t`` or int-valued clamp, ``np.float64``, ``bool``.
_F = (0.25, -0.0, NAN, 1e16, 5e-324, 0.5)
_F_ODD = (3, 0, np.float64(0.25), np.float64(-0.0), True, False)
_I = (0, 7, 2**63 - 1, 2**63, -(2**63) - 1)
_I_ODD = (True, False, 2.0)
DECISION_FIELDS = (
    ("t", _F, _F_ODD),
    ("pid", _I, _I_ODD),
    ("role", ("leaf", "super"), ()),
    ("verdict", ("promote", "demote", "none"), ()),
    ("mu", _F, _F_ODD),
    ("g_size", _I, _I_ODD),
    ("y_capa", _F, _F_ODD),
    ("y_age", _F, _F_ODD),
    ("x_capa", _F, _F_ODD),
    ("x_age", _F, _F_ODD),
    ("z_promote", _F, _F_ODD),
    ("z_demote", _F, _F_ODD),
)
_OPS = ["decision"] * 6 + ["emit"] * 3 + ["clear", "restore"]


@settings(max_examples=examples(1.5), deadline=None)
@given(data=st.data())
def test_bound_audit_appends_match_the_emit_only_ring(data):
    """``record_decision`` appends straight into its shape's block; the
    stream must read as if every record had gone through ``emit``, also
    after ``clear()`` and a snapshot/restore of the same log object (a
    block kept across either is a stale one)."""
    draw = data.draw
    capacity = draw(st.sampled_from(CAPACITIES), label="capacity")
    level = draw(st.sampled_from(["full", "actions"]), label="level")
    log, ref = RecordLog(capacity), ReferenceRing(capacity)
    audit = AuditLog(log, level=level)
    tallies: dict = {}
    widths = {kind: draw(st.integers(1, width)) for kind, width in KINDS.items()}
    for op in draw(st.lists(st.sampled_from(_OPS), max_size=60), label="ops"):
        if op == "clear":
            log.clear()
            ref.clear()
        elif op == "restore":
            state = round_trip(log.snapshot())
            log.restore(state)
            ref.restore(round_trip(state))
        elif op == "emit":
            kind = draw(st.sampled_from(sorted(KINDS)))
            t = draw(st.sampled_from(TIMES))
            values = tuple(draw(st.sampled_from(VALUES)) for _ in range(widths[kind]))
            log.emit(kind, t, values)
            ref.emit(kind, t, values)
        else:
            fields = [draw(st.sampled_from(exact)) for _, exact, _ in DECISION_FIELDS]
            odd = [i for i, (_, _, values) in enumerate(DECISION_FIELDS) if values]
            for i in draw(st.lists(st.sampled_from(odd), max_size=2), label="odd"):
                fields[i] = draw(st.sampled_from(DECISION_FIELDS[i][2]))
            t, pid, role, verdict, mu, g_size, *rest = fields
            if draw(st.booleans(), label="by keyword"):
                named = {name: v for (name, _, _), v in zip(DECISION_FIELDS, fields)}
                audit.record_decision(**named)
            else:
                audit.record_decision(*fields)
            tallies[verdict] = tallies.get(verdict, 0) + 1
            if verdict != "none" or level == "full":
                values = (pid, role, verdict, None, mu, g_size, None, *rest)
                ref.emit("audit", t, values)
    assert audit.verdict_counts == tallies
    assert_same(log, ref)
