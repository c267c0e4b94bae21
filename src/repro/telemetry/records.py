"""The deterministic structured-record stream and the DLM audit log.

One :class:`RecordLog` per run holds every structured record the run
emits -- DLM decision audits, transport lifecycle stages, health
evidence -- in **scheduler order** under one global sequence number.
Records are plain data keyed by a per-kind schema and carry only
simulation-derived fields: simulated time, peer ids, metric values.  No
wall-clock, no memory addresses -- two runs of the same config produce
bit-identical record streams, which is what the serial/parallel and
checkpoint-resume golden tests assert.

Records read back as ``(seq, t, kind, values)`` tuples whose ``values``
follow :data:`SCHEMAS`; :func:`record_as_dict` re-inflates one for
export (``None`` fields are dropped, so a defer record does not carry
thirteen nulls).  They are stored as typed columns, one block per shape.

The :class:`AuditLog` is the decision-level consumer: every DLM
promotion/demotion evaluation that reaches the decision rule lands here
with the full evidence -- µ, the related-set size, the per-metric scaled
comparison (Y values, X scale factors, Z thresholds), the verdict, and
the defer reason when Phase-1 knowledge was missing.
"""

from __future__ import annotations

import math
import struct
import sys
from array import array
from itertools import compress, islice, repeat
from types import NoneType
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

__all__ = [
    "RecordLog",
    "AuditLog",
    "SCHEMAS",
    "record_as_dict",
]

#: Field order of each record kind's ``values`` tuple.
SCHEMAS: Dict[str, Tuple[str, ...]] = {
    "audit": (
        "pid",
        "role",
        "verdict",
        "reason",
        "mu",
        "g_size",
        "missing",
        "y_capa",
        "y_age",
        "x_capa",
        "x_age",
        "z_promote",
        "z_demote",
    ),
    "transport": (
        "stage",
        "rid",
        "requester",
        "responder",
        "req",
        "attempt",
        "leg",
    ),
    # The health plane's evidence (:mod:`repro.health.evidence`): one
    # row per layer-stats tick, and one per executed role change.
    "sample": (
        "n",
        "n_super",
        "ratio",
        "max_leaf_deg",
        "mean_leaf_deg",
        "transport_failures",
        "evaluations",
        "deferrals",
        "events",
    ),
    "role": ("pid", "role"),
}

Record = Tuple[int, float, str, tuple]


def record_as_dict(record: Record) -> dict:
    """One record as a flat dict (schema-zipped, ``None`` fields dropped)."""
    seq, t, kind, values = record
    out = {"seq": seq, "t": t, "kind": kind}
    fields = SCHEMAS.get(kind)
    if fields is None:
        out["values"] = list(values)
        return out
    for name, value in zip(fields, values):
        if value is not None:
            out[name] = value
    return out


#: Exact value type -> ``array`` typecode; any other type is a list column.
_TYPECODES = {float: "d", int: "q"}

#: Rows a block stages before it seals them into its columns.
_STAGE = 512


class _Block:
    """The records of one **shape** -- the kind plus the exact type of
    ``t`` and of each value -- one column per position (0 is ``t``,
    ``i + 1`` is ``values[i]``) except the always-``None`` ones.  The
    first ``head`` rows have been evicted by the ring.

    A row arrives as the tuple of its non-``None`` cells and waits in
    ``staged`` until :meth:`seal` moves the stage into the columns one
    column at a time: at :data:`_STAGE` rows, or before anything reads
    :attr:`columns`."""

    __slots__ = ("sid", "kind", "types", "present", "_columns", "staged", "head")

    def __init__(self, sid: int, kind: str, types: tuple) -> None:
        self.sid = sid
        self.kind = kind
        self.types = types
        self.present = tuple(tp is not NoneType for tp in types)
        self._columns = [
            array(_TYPECODES[tp]) if tp in _TYPECODES else []
            for tp in compress(types, self.present)
        ]
        self.staged: List[tuple] = []
        self.head = 0

    @property
    def columns(self) -> list:
        """One column per present position, every staged row sealed in."""
        if self.staged:
            self.seal()
        return self._columns

    def seal(self) -> None:
        """Append the staged rows to the columns.  A typed column packs
        its cells in one ``struct.pack`` (bit-exact, like ``append``); an
        int beyond int64 makes that column a list of Python objects from
        then on."""
        staged, self.staged = self.staged, []
        columns = self._columns
        for j, cells in enumerate(zip(*staged)):
            column = columns[j]
            if type(column) is list:
                column.extend(cells)
                continue
            try:
                packed = struct.pack(f"{len(cells)}{column.typecode}", *cells)
            except struct.error:  # an int beyond int64
                columns[j] = column.tolist() + list(cells)
            else:
                column.frombytes(packed)

    def drop_oldest(self) -> None:
        """Evict the oldest row; compact once evicted rows are the majority."""
        self.head += 1
        columns = self._columns
        if columns and self.head > len(columns[0]):
            self.seal()  # the evicted row is still staged
        if columns and 2 * self.head > len(columns[0]):
            for column in columns:
                del column[: self.head]
            self.head = 0

    def rows(self, start: int) -> Iterator[tuple]:
        """``(t, *values)`` per row from column index ``start`` on."""
        columns = iter(self.columns)
        cells = [
            islice(next(columns), start, None) if p else repeat(None)
            for p in self.present
        ]
        return zip(*cells)


class RecordLog:
    """Ordered structured records under one global sequence number.

    The shape-id column ``_ids`` from ``_head`` on is the ring in seq
    order (the retained seqs are the last ``len(self)`` ones); each row
    lives in its shape's :class:`_Block`.  ``capacity`` bounds retention
    (newest records win); evictions are counted exactly in
    :attr:`dropped` so a bounded log is still honest about its coverage.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        self._capacity = math.inf if capacity is None else capacity
        self._next_seq = 0
        self.dropped = 0
        self.clear()

    def emit(self, kind: str, t: float, values: tuple) -> None:
        """Append one record (fields per ``SCHEMAS[kind]``)."""
        key = (kind, type(t), *map(type, values))
        block = self.block(key)
        self.append(block, tuple(compress((t, *values), block.present)))

    def block(self, key: tuple) -> _Block:
        """The block of shape ``key`` -- ``(kind, type(t), *value types)``
        -- created on first use; :meth:`clear` drops every block."""
        block = self._shapes.get(key)
        if block is None:
            block = self._shapes[key] = _Block(len(self.blocks), key[0], key[1:])
            self.blocks.append(block)
        return block

    def append(self, block: _Block, cells: tuple) -> None:
        """Append one record of ``block``'s shape: ``cells`` are its
        non-``None`` positions (``t`` first).  The caller vouches for the
        exact types; :meth:`emit` derives them."""
        staged = block.staged
        staged.append(cells)
        if len(staged) >= _STAGE:
            block.seal()
        ids = self._ids
        ids.append(block.sid)
        self._next_seq += 1
        if len(ids) - self._head > self._capacity:
            self.blocks[ids[self._head]].drop_oldest()
            self._head += 1
            self.dropped += 1
            if 2 * self._head > len(ids):
                del ids[: self._head]
                self._head = 0

    # -- querying ----------------------------------------------------------
    @property
    def total_emitted(self) -> int:
        """Records ever emitted (retained + dropped)."""
        return self._next_seq

    def __len__(self) -> int:
        return len(self._ids) - self._head

    def __iter__(self) -> Iterator[Record]:
        return self._rows()

    def records(self, kind: Optional[str] = None) -> Tuple[Record, ...]:
        """Retained records, oldest first, optionally filtered by kind."""
        return tuple(self._rows(0, kind))

    def tail(self, n: int, kind: Optional[str] = None) -> Tuple[Record, ...]:
        """The newest ``n`` retained records (of ``kind`` if given),
        oldest first; reads the shape-id column and those rows only."""
        if n <= 0:
            return ()
        start = max(len(self) - n, 0)
        if kind is not None:
            sids = [b.sid for b in self.blocks if b.kind == kind]
            hits = np.flatnonzero(np.isin(self.shape_ids(), sids))
            start = int(hits[-n]) if len(hits) >= n else 0
        return tuple(self._rows(start, kind))

    def _rows(self, start: int = 0, kind: Optional[str] = None) -> Iterator[Record]:
        """Retained records from ring position ``start`` on, oldest first."""
        ids = self._ids[self._head + start :]
        skipped = np.bincount(self.shape_ids()[:start], minlength=len(self.blocks))
        sources = [
            (b.kind, b.rows(b.head + int(k))) if kind in (None, b.kind) else None
            for b, k in zip(self.blocks, skipped)
        ]
        seq = self._next_seq - len(ids)
        for sid in ids:
            source = sources[sid]
            if source is not None:
                row = next(source[1])
                yield seq, row[0], source[0], row[1:]
            seq += 1

    def shape_ids(self) -> np.ndarray:
        """The retained shape-id column (a copy), oldest first."""
        return np.frombuffer(self._ids[self._head :], dtype=np.uintc)

    def dicts(self, kind: Optional[str] = None) -> list:
        """Retained records as export-shaped dicts."""
        return [record_as_dict(r) for r in self.records(kind)]

    def clear(self) -> None:
        """Drop retained records (the sequence number keeps counting)."""
        self._shapes: Dict[tuple, _Block] = {}
        #: Every shape's block, by shape id (what the JSONL exporter renders).
        self.blocks: List[_Block] = []
        self._ids = array("I")
        self._head = 0

    # -- checkpointing -----------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "next_seq": self._next_seq,
            "dropped": self.dropped,
            "records": [[seq, t, kind, list(values)] for seq, t, kind, values in self],
        }

    def restore(self, state: dict) -> None:
        """Adopt a snapshot; rows beyond ``capacity`` are evicted and
        counted in :attr:`dropped`, as if emitted into this ring."""
        records = state["records"]
        self.clear()
        self._next_seq = state["next_seq"] - len(records)
        self.dropped = state["dropped"]
        for _seq, t, kind, values in records:
            strings = (sys.intern(v) if type(v) is str else v for v in values)
            self.emit(sys.intern(kind), t, tuple(strings))


#: The shape of a decision record from the policy: float ``t``, µ, Y, X
#: and Z, int pid and |G|, str role and verdict, no reason or missing.
_DECISION = ("audit", float, int, str, str, NoneType, float, int, NoneType)
_DECISION += (float,) * 6


class AuditLog:
    """DLM decision records in the shared stream, plus exact tallies.

    ``level`` is the :class:`~repro.telemetry.config.TelemetryConfig`
    audit level: ``"full"`` records ``none`` verdicts too, ``"actions"``
    drops them (the verdict *tallies* stay exact at every level).
    """

    #: Verdict vocabulary (`decide` actions plus the non-decision outcomes).
    VERDICTS = ("promote", "demote", "none", "defer", "force_demote")

    def __init__(self, log: RecordLog, *, level: str = "full") -> None:
        self._log = log
        self.level = level
        self.verdict_counts: Dict[str, int] = {}

    def _tally(self, verdict: str) -> None:
        counts = self.verdict_counts
        counts[verdict] = counts.get(verdict, 0) + 1

    def record_decision(
        self,
        t: float,
        pid: int,
        role: str,
        verdict: str,
        mu: float,
        g_size: int,
        y_capa: float,
        y_age: float,
        x_capa: float,
        x_age: float,
        z_promote: float,
        z_demote: float,
    ) -> None:
        """One evaluation that reached the Phase-4 decision rule (the
        policy passes every field by position: no kwargs dict per call).

        A record of :data:`_DECISION`'s exact types is appended straight
        into that shape's block; any other mix (an int ``t``, an int
        clamp, ``np.float64``, ``bool``) goes through :meth:`RecordLog.emit`
        and lands in its own shape.
        """
        counts = self.verdict_counts
        counts[verdict] = counts.get(verdict, 0) + 1
        if verdict == "none" and self.level != "full":
            return
        cells = (t, pid, role, verdict, mu, g_size, y_capa, y_age, x_capa, x_age)
        cells += (z_promote, z_demote)
        if (
            type(t) is type(mu) is type(y_capa) is type(y_age) is float
            and type(x_capa) is type(x_age) is type(z_promote) is float
            and type(z_demote) is float
            and type(pid) is type(g_size) is int
            and type(role) is type(verdict) is str
        ):
            log = self._log
            log.append(log.block(_DECISION), cells)
        else:
            values = (pid, role, verdict, None, mu, g_size, None, *cells[6:])
            self._log.emit("audit", t, values)

    def record_defer(
        self,
        t: float,
        pid: int,
        role: str,
        reason: str,
        *,
        g_size: Optional[int] = None,
        missing: Optional[int] = None,
    ) -> None:
        """An evaluation deferred for missing Phase-1 knowledge."""
        self._tally("defer")
        self._log.emit(
            "audit",
            t,
            (pid, role, "defer", reason, None, g_size, missing) + (None,) * 6,
        )

    def record_forced_demotion(
        self, t: float, pid: int, *, mu: float, executed: bool
    ) -> None:
        """The ratio-only forced-demotion rule fired for a super-peer."""
        self._tally("force_demote")
        self._log.emit(
            "audit",
            t,
            (
                pid,
                "super",
                "force_demote",
                "executed" if executed else "floor_blocked",
                mu,
            )
            + (None,) * 8,
        )

    # -- querying ----------------------------------------------------------
    def records(self) -> Tuple[Record, ...]:
        """Retained audit records, oldest first."""
        return self._log.records("audit")

    def dicts(self) -> list:
        """Retained audit records as export-shaped dicts."""
        return self._log.dicts("audit")

    # -- checkpointing -----------------------------------------------------
    def snapshot(self) -> dict:
        """Tallies only: the records live in the shared log's snapshot."""
        return {"level": self.level, "verdicts": dict(self.verdict_counts)}

    def restore(self, state: dict) -> None:
        self.verdict_counts = dict(state["verdicts"])
