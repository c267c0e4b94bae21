"""Unit tests for the event primitives."""

from __future__ import annotations

from repro.sim.events import Event, EventKind


class TestEventOrdering:
    def test_sequence_numbers_are_unique_and_increasing(self):
        a = Event(time=0.0, kind="a")
        b = Event(time=0.0, kind="b")
        c = Event(time=0.0, kind="c")
        assert a.seq < b.seq < c.seq


class TestEventCancellation:
    def test_new_event_not_cancelled(self):
        assert not Event(time=0.0, kind="x").cancelled

    def test_cancel_sets_flag(self):
        ev = Event(time=0.0, kind="x")
        ev.cancel()
        assert ev.cancelled

    def test_cancel_is_idempotent(self):
        ev = Event(time=0.0, kind="x")
        ev.cancel()
        ev.cancel()
        assert ev.cancelled


class TestEventPayload:
    def test_default_payload_empty(self):
        assert dict(Event(time=0.0, kind="x").payload) == {}

    def test_payload_preserved(self):
        ev = Event(time=0.0, kind="x", payload={"pid": 7})
        assert ev.payload["pid"] == 7


class TestEventKind:
    def test_all_kinds_are_unique_strings(self):
        kinds = EventKind._ALL
        assert len(set(kinds)) == len(kinds)
        assert all(isinstance(k, str) and k for k in kinds)

    def test_expected_kinds_present(self):
        assert EventKind.PEER_JOIN == "peer_join"
        assert EventKind.PEER_LEAVE == "peer_leave"
        assert EventKind.DLM_EVALUATE == "dlm_evaluate"
        assert EventKind.SCENARIO_SHIFT == "scenario_shift"
