"""The record ring and JSONL renderer the columnar record log replaced.

:class:`ReferenceRing` models :class:`~repro.telemetry.records.RecordLog`
as a ``deque(maxlen)`` of ``(seq, t, kind, values)`` tuples, and
:meth:`ReferenceRing.lines` renders one record per line as
``JSONEncoder(separators=(",", ":"), sort_keys=True).encode(record_as_dict(r))``
-- the export path before records became columns.  Tests hold the log
and the exporter to this model byte for byte.

One behaviour differs from the original on purpose: :meth:`restore`
into a ring smaller than the snapshot counts the overflow in
``dropped`` (the deque evicted it silently).
"""

from __future__ import annotations

import json
from collections import deque

from repro.telemetry.records import record_as_dict

ENCODE = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode


class ReferenceRing:
    """A bounded ring of record tuples under one sequence number."""

    def __init__(self, capacity=None):
        self.ring = deque(maxlen=capacity)
        self.next_seq = 0
        self.dropped = 0

    def emit(self, kind, t, values):
        self._append((self.next_seq, t, kind, tuple(values)))
        self.next_seq += 1

    def _append(self, record):
        if self.ring.maxlen is not None and len(self.ring) == self.ring.maxlen:
            self.dropped += 1
        self.ring.append(record)

    def __len__(self):
        return len(self.ring)

    def records(self, kind=None):
        return tuple(r for r in self.ring if kind is None or r[2] == kind)

    def tail(self, n, kind=None):
        return self.records(kind)[-n:] if n > 0 else ()

    def snapshot(self):
        return {
            "next_seq": self.next_seq,
            "dropped": self.dropped,
            "records": [list(r[:3]) + [list(r[3])] for r in self.ring],
        }

    def clear(self):
        """Drop the retained records; the sequence number keeps counting."""
        self.ring.clear()

    def restore(self, state):
        self.next_seq = state["next_seq"]
        self.dropped = state["dropped"]
        self.ring.clear()
        for seq, t, kind, values in state["records"]:
            self._append((seq, t, kind, tuple(values)))

    def lines(self):
        """The JSONL record section, one encoded line per record."""
        return [ENCODE(record_as_dict(r)) for r in self.ring]
