"""Unit tests for the message ledger."""

from __future__ import annotations

import pytest

from repro.protocol.accounting import MessageLedger
from repro.protocol.messages import (
    VALUE_BYTES,
    NeighNumRequest,
    QueryMessage,
    ValueResponse,
)


class TestRecording:
    def test_count_and_bytes(self):
        ledger = MessageLedger()
        ledger.record(NeighNumRequest, 3)
        assert ledger.count(NeighNumRequest) == 3
        assert ledger.bytes_for(NeighNumRequest) == 3 * NeighNumRequest.size_bytes()

    def test_record_message_instance(self):
        ledger = MessageLedger()
        ledger.record_message(QueryMessage(src=1, dst=2, query_id=0, ttl=5))
        assert ledger.count(QueryMessage) == 1

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            MessageLedger().record(QueryMessage, -1)

    def test_zero_count_ok(self):
        ledger = MessageLedger()
        ledger.record(QueryMessage, 0)
        assert ledger.count(QueryMessage) == 0

    @pytest.mark.parametrize("piggyback", [False, True])
    def test_charging_a_plan_is_one_record_per_entry(self, piggyback):
        """Same counters *and* same key order (checkpoints are compared
        byte for byte), whether or not a type was seen before."""
        bundle = [(ValueResponse, 2), (QueryMessage, 1), (NeighNumRequest, 3)]
        fused, single = (MessageLedger(piggyback=piggyback) for _ in range(2))
        plan = fused.plan(bundle)
        for ledger in (fused, single):
            ledger.record(QueryMessage)
        for _ in range(2):
            fused.charge(plan)
            for msg_type, count in bundle:
                single.record(msg_type, count)
        a, b = fused.snapshot_state(), single.snapshot_state()
        assert a == b
        assert all(list(a[k]) == list(b[k]) for k in ("counts", "bytes", "piggybacked"))
        assert list(a["counts"]) == ["query", "value_response", "neigh_num_request"]


class TestAggregates:
    def test_dlm_vs_search_totals(self):
        ledger = MessageLedger()
        ledger.record(NeighNumRequest, 10)
        ledger.record(ValueResponse, 10)
        ledger.record(QueryMessage, 5)
        assert ledger.dlm_messages == 20
        assert ledger.search_messages == 5
        expected = 10 * NeighNumRequest.size_bytes() + 10 * ValueResponse.size_bytes()
        assert ledger.dlm_bytes == expected

    def test_overhead_fraction(self):
        ledger = MessageLedger()
        assert ledger.dlm_overhead_fraction() == 0.0
        ledger.record(NeighNumRequest, 1)
        assert ledger.dlm_overhead_fraction() == 1.0
        ledger.record(QueryMessage, 100)
        assert ledger.dlm_overhead_fraction() < 0.05


class TestPiggyback:
    def test_piggybacked_dlm_charged_value_bytes_only(self):
        """§6: control messages 'may be piggybacked in other messages'."""
        ledger = MessageLedger(piggyback=True)
        ledger.record(ValueResponse, 4)
        assert ledger.bytes_for(ValueResponse) == 4 * 2 * VALUE_BYTES
        assert ledger.snapshot().piggybacked["value_response"] == 4

    def test_search_messages_never_piggybacked(self):
        ledger = MessageLedger(piggyback=True)
        ledger.record(QueryMessage, 2)
        assert ledger.bytes_for(QueryMessage) == 2 * QueryMessage.size_bytes()
        assert "query" not in ledger.snapshot().piggybacked

    def test_piggyback_reduces_bytes(self):
        plain = MessageLedger()
        piggy = MessageLedger(piggyback=True)
        for ledger in (plain, piggy):
            ledger.record(NeighNumRequest, 10)
            ledger.record(ValueResponse, 10)
        assert piggy.dlm_bytes < plain.dlm_bytes


class TestSnapshotsAndWindows:
    def test_snapshot_is_immutable_copy(self):
        ledger = MessageLedger()
        ledger.record(QueryMessage, 1)
        snap = ledger.snapshot()
        ledger.record(QueryMessage, 1)
        assert snap.counts["query"] == 1
        assert ledger.count(QueryMessage) == 2

    def test_window_deltas(self):
        ledger = MessageLedger()
        ledger.record(QueryMessage, 5)
        first = ledger.window()
        assert first.counts["query"] == 5
        ledger.record(QueryMessage, 2)
        second = ledger.window()
        assert second.counts["query"] == 2

    def test_empty_window_has_no_entries(self):
        ledger = MessageLedger()
        ledger.window()
        assert ledger.window().counts == {}

    def test_snapshot_totals(self):
        ledger = MessageLedger()
        ledger.record(QueryMessage, 2)
        ledger.record(NeighNumRequest, 3)
        snap = ledger.snapshot()
        assert snap.total_count() == 5
        assert snap.total_count(["query"]) == 2
        assert snap.total_bytes(["query"]) == 2 * QueryMessage.size_bytes()
