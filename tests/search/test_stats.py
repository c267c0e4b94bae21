"""Unit tests for query statistics."""

from __future__ import annotations

import dataclasses

import pytest

from repro.search.flooding import QueryOutcome
from repro.search.stats import QueryStats


def outcome(found=True, hits=1, qmsg=10, hmsg=2, visited=5):
    return QueryOutcome(
        obj=1,
        source=2,
        found=found,
        hits=hits,
        supers_visited=visited,
        query_messages=qmsg,
        hit_messages=hmsg,
        first_hit_hops=1 if found else None,
    )


class TestAccumulation:
    def test_success_rate(self):
        stats = QueryStats()
        stats.record(outcome(found=True))
        stats.record(outcome(found=False, hits=0))
        assert stats.snapshot.success_rate == 0.5

    def test_empty_stats_rates_zero(self):
        snap = QueryStats().snapshot
        assert snap.success_rate == 0.0
        assert snap.mean_messages_per_query == 0.0
        assert snap.mean_supers_visited == 0.0

    def test_mean_messages(self):
        stats = QueryStats()
        stats.record(outcome(qmsg=10, hmsg=2))
        stats.record(outcome(qmsg=20, hmsg=0))
        assert stats.snapshot.mean_messages_per_query == pytest.approx(16.0)

    def test_mean_hits_and_visited(self):
        stats = QueryStats()
        stats.record(outcome(hits=3, visited=8))
        stats.record(outcome(hits=1, visited=2))
        assert stats.snapshot.mean_hits_per_query == 2.0
        assert stats.snapshot.mean_supers_visited == 5.0


class TestWindows:
    def test_window_isolates_intervals(self):
        stats = QueryStats()
        stats.record(outcome(found=True))
        first = stats.window()
        stats.record(outcome(found=False, hits=0))
        stats.record(outcome(found=False, hits=0))
        second = stats.window()
        assert first.issued == 1 and first.success_rate == 1.0
        assert second.issued == 2 and second.success_rate == 0.0

    def test_cumulative_unaffected_by_window(self):
        stats = QueryStats()
        stats.record(outcome())
        stats.window()
        stats.record(outcome())
        assert stats.snapshot.issued == 2

    def test_state_format_and_round_trip(self):
        stats = QueryStats()
        stats.record(outcome(found=True))
        stats.window()
        stats.record(outcome(found=False, hits=0))
        state = stats.snapshot_state()
        assert state["counters"] == dataclasses.asdict(stats.snapshot)
        assert state["mark"]["issued"] == 1
        assert isinstance(state["counters"]["total_first_hit_latency"], float)
        twin = QueryStats()
        twin.restore_state(state)
        twin.record(outcome())
        stats.record(outcome())
        assert twin.snapshot == stats.snapshot
        assert twin.window() == stats.window()
