"""Sim-layer primitives for conservative sharded simulation.

A sharded run partitions the peer population into K *logical shards*,
each a complete sub-system with its own event queue, named
RNG streams, and columnar peer store slice.  Shards interact **only**
through timestamped mailbox messages carried over the shard-link
latency model, whose exact lower bound (``LatencyModel.min_delay()``)
is the conservative lookahead window:

*   Time advances in windows ``(T, T + W]`` with ``W = min_delay()``.
*   Every cross-shard send is stamped with an arrival time
    ``send_time + sampled_link_delay >= send_time + W``.  A message sent
    inside window ``w`` therefore arrives strictly after the end of
    window ``w``, so exchanging mailboxes at each window barrier always
    delivers messages before any event that could observe them.  That
    is the whole correctness argument -- no rollbacks, no null-message
    protocol, just a barrier every ``W`` simulated units.

Determinism across worker layouts comes from the extended total order.
Within one shard, events are ordered by ``(time, seq)`` as always.  At
a barrier, each destination sorts its merged inbox by
``(arrival_time, origin_shard, origin_seq)`` -- a key that no two
in-flight messages share and that does not depend on which worker
process produced them or in what order mailboxes were drained -- and
only then schedules the messages, so the local ``seq`` assignment (and
hence the whole downstream trajectory) is a pure function of the
simulated history.  This is the ``(time, origin_shard, origin_seq)``
total order at the merge points.

This module holds the mechanics (messages, merge, per-shard mailbox
bookkeeping, seed/partition derivation); the orchestration -- building
shard sub-systems from an :class:`~repro.experiments.configs
.ExperimentConfig`, the window loop, worker processes, metric reduction
-- lives in :mod:`repro.experiments.sharded`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Sequence

import numpy as np

from .events import EventKind
from .scheduler import Simulator

__all__ = [
    "ShardMessage",
    "ShardContext",
    "merge_messages",
    "partition_counts",
    "shard_seed",
    "SHARD_RNG_DOMAIN_KEY",
]

#: Spawn-key tag for per-shard seed derivation, disjoint by construction
#: from every ``RngStreams`` stream key (those live in the crc32 stream
#: namespace).  ASCII "SHRD".
SHARD_RNG_DOMAIN_KEY = 0x53485244


def shard_seed(seed: int, index: int) -> int:
    """The root seed of shard ``index`` in a run seeded with ``seed``.

    Derived through :class:`numpy.random.SeedSequence` spawn keys so
    shard streams are statistically independent of each other *and* of
    the classic engine's streams for the same config seed.  Pure
    function of ``(seed, index)``: every worker layout, and a resume in
    a fresh process, derives identical streams.
    """
    ss = np.random.SeedSequence(
        entropy=seed, spawn_key=(SHARD_RNG_DOMAIN_KEY, index)
    )
    a, b = ss.generate_state(2, np.uint32)
    return (int(a) << 32) | int(b)


def partition_counts(n: int, shards: int) -> List[int]:
    """Population sizes per shard: as even as possible, remainder first.

    ``sum == n`` exactly; sizes differ by at most one, with the first
    ``n % shards`` shards carrying the extra peer.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if n < shards:
        raise ValueError(f"cannot split {n} peers across {shards} shards")
    base, rem = divmod(n, shards)
    return [base + 1] * rem + [base] * (shards - rem)


@dataclass(frozen=True, slots=True)
class ShardMessage:
    """One cross-shard message in flight.

    ``(arrival, origin, origin_seq)`` is the message's identity in the
    extended total order: ``origin_seq`` is a per-origin-shard monotone
    counter, so no two messages ever compare equal and merged delivery
    order is independent of arrival interleaving.
    """

    arrival: float
    origin: int
    origin_seq: int
    dest: int
    kind: str = EventKind.SHARD_DELIVER
    payload: Mapping[str, Any] = field(default_factory=dict)

    @property
    def order_key(self) -> tuple:
        """The total-order key used for deterministic inbox merges."""
        return (self.arrival, self.origin, self.origin_seq)


def merge_messages(messages: Iterable[ShardMessage]) -> List[ShardMessage]:
    """Deterministically order an inbox, whatever order it arrived in.

    Sorting by ``(arrival, origin, origin_seq)`` -- a strict total order
    over in-flight messages -- erases any trace of worker scheduling,
    mailbox drain order, or pipe interleaving.
    """
    return sorted(messages, key=lambda m: m.order_key)


class ShardContext:
    """Shard-local mailbox state bound to one shard's :class:`Simulator`.

    Owns the outbound queue, the per-shard ``origin_seq`` counter, and
    the barrier bookkeeping (sync rounds, message counters).  The
    embedding run object calls :meth:`send` from its handlers,
    :meth:`drain_outbox` / :meth:`deliver` at window barriers, and
    :meth:`advance` to execute a window.
    """

    __slots__ = (
        "sim",
        "index",
        "nshards",
        "lookahead",
        "_outbox",
        "_next_seq",
        "sent",
        "received",
        "sync_rounds",
    )

    def __init__(
        self, sim: Simulator, index: int, nshards: int, lookahead: float
    ) -> None:
        if not 0 <= index < nshards:
            raise ValueError(f"shard index {index} out of range 0..{nshards - 1}")
        if lookahead <= 0:
            raise ValueError(
                f"lookahead must be positive, got {lookahead}; the shard "
                "link model's min_delay() is the window width"
            )
        self.sim = sim
        self.index = index
        self.nshards = nshards
        self.lookahead = float(lookahead)
        self._outbox: List[ShardMessage] = []
        self._next_seq = 0
        self.sent = 0
        self.received = 0
        self.sync_rounds = 0

    def send(
        self,
        dest: int,
        delay: float,
        payload: Mapping[str, Any],
        *,
        kind: str = EventKind.SHARD_DELIVER,
    ) -> ShardMessage:
        """Enqueue a message to shard ``dest``, arriving ``delay`` from now.

        ``delay`` must respect the lookahead contract (it is a sample
        from the link model, so ``delay >= min_delay()`` by
        construction); violating it here would let the message land in
        a window the destination may already have executed.
        """
        if not 0 <= dest < self.nshards:
            raise ValueError(f"dest shard {dest} out of range 0..{self.nshards - 1}")
        if dest == self.index:
            raise ValueError("cross-shard send to self; deliver locally instead")
        if delay < self.lookahead:
            raise ValueError(
                f"link delay {delay} below the lookahead window "
                f"{self.lookahead}; the latency model violated its "
                "min_delay() contract"
            )
        msg = ShardMessage(
            arrival=self.sim.now + delay,
            origin=self.index,
            origin_seq=self._next_seq,
            dest=dest,
            kind=kind,
            payload=dict(payload),
        )
        self._next_seq += 1
        self._outbox.append(msg)
        self.sent += 1
        return msg

    def drain_outbox(self) -> List[ShardMessage]:
        """Take (and clear) everything sent during the last window."""
        out, self._outbox = self._outbox, []
        return out

    def deliver(self, inbox: Sequence[ShardMessage]) -> int:
        """Merge an inbox deterministically and schedule its messages.

        Called at a window barrier, before the next :meth:`advance`.
        Local event ``seq``s are assigned in merged order, extending the
        shard's ``(time, seq)`` order with the global
        ``(arrival, origin_shard, origin_seq)`` key.
        """
        merged = merge_messages(inbox)
        for msg in merged:
            if msg.dest != self.index:
                raise ValueError(
                    f"shard {self.index} handed a message for shard {msg.dest}"
                )
            if msg.arrival <= self.sim.now:
                raise RuntimeError(
                    f"message from shard {msg.origin} arrives at "
                    f"{msg.arrival} but shard {self.index} is already at "
                    f"{self.sim.now}: lookahead window violated"
                )
            self.sim.schedule_at(
                msg.arrival,
                msg.kind,
                {
                    "origin": msg.origin,
                    "origin_seq": msg.origin_seq,
                    "data": msg.payload,
                },
            )
        self.received += len(merged)
        return len(merged)

    def advance(self, until: float) -> int:
        """Run the local scheduler through one window, count the barrier.

        Returns the number of events delivered during the window.
        """
        before = self.sim.events_processed
        self.sim.run(until=until)
        self.sync_rounds += 1
        return self.sim.events_processed - before

    def snapshot(self) -> Dict[str, Any]:
        """Barrier-state capture (the outbox is empty at barriers)."""
        if self._outbox:
            raise RuntimeError(
                "shard outbox not drained; checkpoints happen only at "
                "window barriers after routing"
            )
        return {
            "next_seq": self._next_seq,
            "sent": self.sent,
            "received": self.received,
            "sync_rounds": self.sync_rounds,
        }

    def restore(self, state: Mapping[str, Any]) -> None:
        """Adopt barrier-state counters from :meth:`snapshot`."""
        self._next_seq = int(state["next_seq"])
        self.sent = int(state["sent"])
        self.received = int(state["received"])
        self.sync_rounds = int(state["sync_rounds"])
