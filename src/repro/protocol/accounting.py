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
from typing import Dict, Iterable, List, Mapping, Tuple, Type

from .messages import (
    DLM_MESSAGE_TYPES,
    SEARCH_MESSAGE_TYPES,
    Message,
    VALUE_BYTES,
)

__all__ = ["MessageLedger", "LedgerSnapshot"]

#: The counter tables, in :class:`LedgerSnapshot` field order.
_TABLES = ("counts", "bytes", "piggybacked", "retransmissions", "timeouts")


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


@dataclass(slots=True)
class _Plan:
    """A :meth:`MessageLedger.plan`: its costed entries, and the charges
    not yet folded in (``-1``: none made since the plan or a restore)."""

    entries: tuple
    owed: int = -1


class MessageLedger:
    """Per-type message and byte counters with window checkpoints.

    :meth:`record` charges one type; a fixed bundle that recurs per link
    (the omniscient exchange) is costed once by :meth:`plan` and charged
    by one :meth:`charge` call, which after the plan's first charge only
    counts: every reader folds what is owed into the counters first.
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
        self._plans: List[_Plan] = []
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

    def plan(self, charges: Iterable[Tuple[Type[Message], int]]) -> _Plan:
        """Cost a fixed bundle of ``(msg_type, count)`` charges once, for
        :meth:`charge` on this ledger: ``(wire name, count, bytes,
        piggybacked)`` per entry."""
        costed = [(self._cost(msg_type), n) for msg_type, n in charges]
        plan = _Plan(tuple((name, n, unit * n, pig) for (name, unit, pig), n in costed))
        self._plans.append(plan)
        return plan

    def charge(self, plan: _Plan) -> None:
        """Charge a :meth:`plan`: counter for counter one :meth:`record`
        per entry.  The first charge since the plan or a restore is made
        at once, inserting the keys in entry order (checkpoints compare
        the dicts byte for byte); later ones are counted, folded at read."""
        if plan.owed < 0:
            plan.owed = 0
            self._add(plan.entries, 1)
        else:
            plan.owed += 1

    def _add(self, entries: tuple, times: int) -> None:
        for name, count, size, pig in entries:
            self._counts[name] += count * times
            if pig:
                self._piggybacked[name] += count * times
            self._bytes[name] += size * times

    def _fold(self) -> None:
        """Make the counters whole: add every plan's owed charges."""
        for plan in self._plans:
            if plan.owed > 0:
                self._add(plan.entries, plan.owed)
                plan.owed = 0

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
    def _total(self, table: str, types: Iterable[Type[Message]]) -> int:
        """``table``'s counters summed over ``types``, owed charges in."""
        self._fold()
        counters = getattr(self, "_" + table)
        return sum(counters[t.wire_name] for t in types)

    def count(self, msg_type: Type[Message]) -> int:
        """Messages of one type recorded so far."""
        return self._total("counts", (msg_type,))

    def bytes_for(self, msg_type: Type[Message]) -> int:
        """Bytes charged to one message type so far."""
        return self._total("bytes", (msg_type,))

    def timeouts_for(self, msg_type: Type[Message]) -> int:
        """Timed-out attempts of one type so far."""
        return self._total("timeouts", (msg_type,))

    def snapshot(self) -> LedgerSnapshot:
        """Immutable copy of the cumulative counters."""
        self._fold()
        return LedgerSnapshot(*(dict(getattr(self, "_" + t)) for t in _TABLES))

    # -- aggregates ---------------------------------------------------------
    @property
    def dlm_messages(self) -> int:
        """Total DLM control messages so far."""
        return self._total("counts", DLM_MESSAGE_TYPES)

    @property
    def dlm_bytes(self) -> int:
        """Total DLM control bytes so far."""
        return self._total("bytes", DLM_MESSAGE_TYPES)

    @property
    def dlm_retransmissions(self) -> int:
        """Total DLM messages that were retransmissions."""
        return self._total("retransmissions", DLM_MESSAGE_TYPES)

    @property
    def dlm_timeouts(self) -> int:
        """Total DLM request attempts that timed out."""
        return self._total("timeouts", DLM_MESSAGE_TYPES)

    @property
    def search_messages(self) -> int:
        """Total search-plane messages so far."""
        return self._total("counts", SEARCH_MESSAGE_TYPES)

    def dlm_overhead_fraction(self) -> float:
        """DLM bytes as a fraction of all bytes (the §6 claim)."""
        dlm = self.dlm_bytes
        total = sum(self._bytes.values())
        return dlm / total if total else 0.0

    # -- checkpointing ---------------------------------------------------------
    # ``snapshot``/``window`` are the public marker API above, so the
    # checkpoint pair uses the alternate spelling: full-state capture
    # including the window mark.  The per-type cost cache is derived and
    # rebuilt lazily.
    def snapshot_state(self) -> dict:
        """Full checkpoint state: counters plus the window mark."""
        current, mark = self.snapshot(), self._mark
        state = {t: getattr(current, t) for t in _TABLES}
        state["mark"] = {t: dict(getattr(mark, t)) for t in _TABLES}
        return state

    def restore_state(self, state: dict) -> None:
        """Replace counters and window mark with a :meth:`snapshot_state`;
        charges owed are dropped."""
        for t in _TABLES:
            setattr(self, "_" + t, defaultdict(int, state[t]))
        self._mark = LedgerSnapshot(**state["mark"])
        for plan in self._plans:
            plan.owed = -1

    # -- windows ---------------------------------------------------------------
    def window(self) -> LedgerSnapshot:
        """Counters accumulated since the previous :meth:`window` call."""
        current, prev = self.snapshot(), self._mark

        def diff(table: str) -> Dict[str, int]:
            cur, old = getattr(current, table), getattr(prev, table)
            return {k: v - old.get(k, 0) for k, v in cur.items() if v - old.get(k, 0)}

        self._mark = current
        return LedgerSnapshot(*map(diff, _TABLES))
