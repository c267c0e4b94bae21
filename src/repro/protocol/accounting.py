"""Message accounting.

§6 of the paper argues DLM's information-exchange overhead is negligible
relative to search traffic, partly because the messages "may be
piggybacked in other messages available".  The ledger therefore tracks,
per message type: messages sent, messages piggybacked (charged zero
standalone bytes beyond their value fields), and bytes.

Under the message-driven Phase-1 engine the same request may be sent
several times (timeout + retry), so the ledger also keeps two honesty
counters the §6-style overhead reports need: ``retransmissions`` (wire
messages that were repeats -- included in ``counts``/``bytes``, since
they really travel) and ``timeouts`` (attempts given up on -- *not*
wire messages, so counted separately and never charged bytes).

The counters are cumulative; :meth:`window` takes a checkpoint so callers
can compute per-interval rates (used by the overhead benches).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Tuple, Type

from .messages import (
    DLM_MESSAGE_TYPES,
    SEARCH_MESSAGE_TYPES,
    Message,
    VALUE_BYTES,
)

__all__ = ["MessageLedger", "LedgerSnapshot"]


@dataclass(frozen=True, slots=True)
class LedgerSnapshot:
    """Immutable view of the ledger at one instant."""

    counts: Mapping[str, int]
    bytes: Mapping[str, int]
    piggybacked: Mapping[str, int]
    retransmissions: Mapping[str, int] = field(default_factory=dict)
    timeouts: Mapping[str, int] = field(default_factory=dict)

    def total_count(self, names: Iterable[str] | None = None) -> int:
        """Messages recorded, optionally restricted to ``names``."""
        if names is None:
            return sum(self.counts.values())
        return sum(self.counts.get(n, 0) for n in names)

    def total_bytes(self, names: Iterable[str] | None = None) -> int:
        """Bytes recorded, optionally restricted to ``names``."""
        if names is None:
            return sum(self.bytes.values())
        return sum(self.bytes.get(n, 0) for n in names)


class MessageLedger:
    """Per-type message and byte counters with window checkpoints.

    :meth:`record` charges one type; a fixed bundle that recurs per link
    (the omniscient exchange) is costed once by :meth:`plan` and charged
    by one :meth:`charge` call.
    """

    def __init__(self, *, piggyback: bool = False) -> None:
        #: When True, DLM control messages ride inside existing protocol
        #: traffic and are charged only their value bytes.
        self.piggyback = piggyback
        self._counts: Dict[str, int] = defaultdict(int)
        self._bytes: Dict[str, int] = defaultdict(int)
        self._piggybacked: Dict[str, int] = defaultdict(int)
        self._retransmissions: Dict[str, int] = defaultdict(int)
        self._timeouts: Dict[str, int] = defaultdict(int)
        # Per-type cost cache: (wire name, bytes per message, piggybacked).
        # ``record`` fires for every message of a run (hundreds of
        # thousands at bench scale); resolving wire_name/size_bytes()
        # once per type instead of per call is a measurable win.
        self._cost_cache: Dict[Type[Message], tuple] = {}
        self._mark: LedgerSnapshot = self.snapshot()

    # -- recording --------------------------------------------------------
    def record(
        self,
        msg_type: Type[Message],
        count: int = 1,
        *,
        retransmission: bool = False,
    ) -> None:
        """Charge ``count`` messages of ``msg_type``.

        ``retransmission=True`` marks the messages as repeats of an
        earlier attempt: they are still real wire traffic (full count
        and byte charge) but are additionally tallied so overhead
        reports can separate first-time exchange cost from retry cost.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        name, unit, pig = self._cost_cache.get(msg_type) or self._cost(msg_type)
        self._counts[name] += count
        if pig:
            self._piggybacked[name] += count
        if retransmission:
            self._retransmissions[name] += count
        self._bytes[name] += unit * count

    def _cost(self, msg_type: Type[Message]) -> tuple:
        """Resolve and cache ``(wire name, bytes per message, piggybacked)``."""
        pig = self.piggyback and msg_type in DLM_MESSAGE_TYPES
        unit = VALUE_BYTES * msg_type.n_values if pig else msg_type.size_bytes()
        cost = self._cost_cache[msg_type] = (msg_type.wire_name, unit, pig)
        return cost

    def plan(self, charges: Iterable[Tuple[Type[Message], int]]) -> tuple:
        """Cost a fixed bundle of ``(msg_type, count)`` charges once, for
        :meth:`charge`: ``(wire name, count, bytes, piggybacked)`` each."""
        costed = [(self._cost(msg_type), n) for msg_type, n in charges]
        return tuple((name, n, unit * n, pig) for (name, unit, pig), n in costed)

    def charge(self, plan: tuple) -> None:
        """Charge a :meth:`plan`: counter for counter one :meth:`record`
        per entry, in entry order (first use inserts the keys in that
        order -- checkpoints compare the dicts byte for byte)."""
        counts, nbytes, piggybacked = self._counts, self._bytes, self._piggybacked
        for name, count, size, pig in plan:
            counts[name] += count
            if pig:
                piggybacked[name] += count
            nbytes[name] += size

    def record_message(self, msg: Message) -> None:
        """Charge a concrete message instance."""
        self.record(type(msg))

    def record_timeout(self, msg_type: Type[Message], count: int = 1) -> None:
        """Tally ``count`` timed-out attempts of ``msg_type``.

        A timeout is *not* a wire message -- the request was already
        charged when sent -- so this touches neither ``counts`` nor
        ``bytes``, only the dedicated timeout tally.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        self._timeouts[msg_type.wire_name] += count

    # -- reading ------------------------------------------------------------
    def count(self, msg_type: Type[Message]) -> int:
        """Messages of one type recorded so far."""
        return self._counts[msg_type.wire_name]

    def bytes_for(self, msg_type: Type[Message]) -> int:
        """Bytes charged to one message type so far."""
        return self._bytes[msg_type.wire_name]

    def retransmissions_for(self, msg_type: Type[Message]) -> int:
        """Retransmitted messages of one type so far."""
        return self._retransmissions[msg_type.wire_name]

    def timeouts_for(self, msg_type: Type[Message]) -> int:
        """Timed-out attempts of one type so far."""
        return self._timeouts[msg_type.wire_name]

    def snapshot(self) -> LedgerSnapshot:
        """Immutable copy of the cumulative counters."""
        return LedgerSnapshot(
            counts=dict(self._counts),
            bytes=dict(self._bytes),
            piggybacked=dict(self._piggybacked),
            retransmissions=dict(self._retransmissions),
            timeouts=dict(self._timeouts),
        )

    # -- aggregates ---------------------------------------------------------
    @property
    def dlm_messages(self) -> int:
        """Total DLM control messages so far."""
        return sum(self._counts[t.wire_name] for t in DLM_MESSAGE_TYPES)

    @property
    def dlm_bytes(self) -> int:
        """Total DLM control bytes so far."""
        return sum(self._bytes[t.wire_name] for t in DLM_MESSAGE_TYPES)

    @property
    def dlm_retransmissions(self) -> int:
        """Total DLM messages that were retransmissions."""
        return sum(self._retransmissions[t.wire_name] for t in DLM_MESSAGE_TYPES)

    @property
    def dlm_timeouts(self) -> int:
        """Total DLM request attempts that timed out."""
        return sum(self._timeouts[t.wire_name] for t in DLM_MESSAGE_TYPES)

    @property
    def search_messages(self) -> int:
        """Total search-plane messages so far."""
        return sum(self._counts[t.wire_name] for t in SEARCH_MESSAGE_TYPES)

    @property
    def search_bytes(self) -> int:
        """Total search-plane bytes so far."""
        return sum(self._bytes[t.wire_name] for t in SEARCH_MESSAGE_TYPES)

    def dlm_overhead_fraction(self) -> float:
        """DLM bytes as a fraction of all bytes (the §6 claim)."""
        total = sum(self._bytes.values())
        if total == 0:
            return 0.0
        return self.dlm_bytes / total

    # -- checkpointing ---------------------------------------------------------
    # ``snapshot``/``window`` are the public marker API above, so the
    # checkpoint pair uses the alternate spelling: full-state capture
    # including the window mark.  The per-type cost cache is derived and
    # rebuilt lazily.
    def snapshot_state(self) -> dict:
        """Full checkpoint state: counters plus the window mark."""
        mark = self._mark
        return {
            "counts": dict(self._counts),
            "bytes": dict(self._bytes),
            "piggybacked": dict(self._piggybacked),
            "retransmissions": dict(self._retransmissions),
            "timeouts": dict(self._timeouts),
            "mark": {
                "counts": dict(mark.counts),
                "bytes": dict(mark.bytes),
                "piggybacked": dict(mark.piggybacked),
                "retransmissions": dict(mark.retransmissions),
                "timeouts": dict(mark.timeouts),
            },
        }

    def restore_state(self, state: dict) -> None:
        """Replace counters and window mark with a :meth:`snapshot_state`."""
        self._counts = defaultdict(int, state["counts"])
        self._bytes = defaultdict(int, state["bytes"])
        self._piggybacked = defaultdict(int, state["piggybacked"])
        self._retransmissions = defaultdict(int, state["retransmissions"])
        self._timeouts = defaultdict(int, state["timeouts"])
        self._mark = LedgerSnapshot(**state["mark"])

    # -- windows ---------------------------------------------------------------
    def window(self) -> LedgerSnapshot:
        """Counters accumulated since the previous :meth:`window` call."""
        current = self.snapshot()
        prev = self._mark

        def _diff(cur: Mapping[str, int], old: Mapping[str, int]) -> Dict[str, int]:
            return {k: v - old.get(k, 0) for k, v in cur.items() if v - old.get(k, 0)}

        delta = LedgerSnapshot(
            counts=_diff(current.counts, prev.counts),
            bytes=_diff(current.bytes, prev.bytes),
            piggybacked=_diff(current.piggybacked, prev.piggybacked),
            retransmissions=_diff(current.retransmissions, prev.retransmissions),
            timeouts=_diff(current.timeouts, prev.timeouts),
        )
        self._mark = current
        return delta
