"""Unit tests for the PAO/NLCO overhead ledger (§6, Table 3)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.metrics.overhead import OverheadCounters, OverheadLedger


class TestRecording:
    def test_leaf_join_charges_m_connections(self):
        ledger = OverheadLedger(m=2)
        ledger.record_leaf_join()
        c = ledger.counters
        assert c.new_leaf_joins == 1 and c.nlco_connections == 2

    def test_leaf_join_explicit_connection_count(self):
        ledger = OverheadLedger(m=2)
        ledger.record_leaf_join(connections=1)  # only one super existed
        assert ledger.counters.nlco_connections == 1

    def test_demotion_charges_pao(self):
        ledger = OverheadLedger(m=2)
        ledger.record_demotion(orphans=5, reconnections=5)
        c = ledger.counters
        assert c.demotions == 1
        assert c.demotion_orphans == 5
        assert c.pao_connections == 5

    def test_promotion_is_free(self):
        """§6: 'the promotion process does not cause PAO'."""
        ledger = OverheadLedger(m=2)
        ledger.record_promotion()
        c = ledger.counters
        assert c.promotions == 1 and c.pao_connections == 0

    def test_super_death_tracked_separately(self):
        ledger = OverheadLedger(m=2)
        ledger.record_super_death(orphans=3, reconnections=3)
        c = ledger.counters
        assert c.super_deaths == 1
        assert c.death_reconnects == 3
        assert c.pao_connections == 0  # deaths are not demotion PAO

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            OverheadLedger(m=0)


class TestRatio:
    def test_pao_nlco_ratio_semantics(self):
        """Each orphan makes 1 connection vs m=2 for a join: 5 orphans
        against 10 joins -> 5 / 20 = 25%."""
        ledger = OverheadLedger(m=2)
        for _ in range(10):
            ledger.record_leaf_join()
        ledger.record_demotion(orphans=5, reconnections=5)
        assert ledger.counters.pao_nlco_ratio() == pytest.approx(0.25)

    def test_ratio_zero_without_joins(self):
        assert OverheadCounters().pao_nlco_ratio() == 0.0


class TestWindows:
    def test_window_deltas_and_elapsed(self):
        ledger = OverheadLedger(m=2)
        ledger.record_leaf_join()
        delta, elapsed = ledger.window(now=10.0)
        assert delta.new_leaf_joins == 1 and elapsed == 10.0
        ledger.record_leaf_join()
        ledger.record_leaf_join()
        delta2, elapsed2 = ledger.window(now=30.0)
        assert delta2.new_leaf_joins == 2 and elapsed2 == 20.0

    def test_snapshot_format_and_round_trip(self):
        """Checkpoints carry plain field dicts (schema v7), whatever the
        ledger counts in internally."""
        ledger = OverheadLedger(m=2)
        ledger.record_leaf_join()
        ledger.window(now=4.0)
        ledger.record_demotion(orphans=3, reconnections=2)
        state = ledger.snapshot()
        assert state == {
            "counters": dataclasses.asdict(ledger.counters),
            "mark": dataclasses.asdict(OverheadCounters(1, 2)),
            "mark_time": 4.0,
        }
        twin = OverheadLedger(m=2)
        twin.restore(state)
        twin.record_promotion()
        ledger.record_promotion()
        assert twin.counters == ledger.counters
        assert twin.window(now=9.0) == ledger.window(now=9.0)

    def test_counters_minus(self):
        a = OverheadCounters(new_leaf_joins=5, pao_connections=3)
        b = OverheadCounters(new_leaf_joins=2, pao_connections=1)
        d = a.minus(b)
        assert d.new_leaf_joins == 3 and d.pao_connections == 2


class TestTable3Row:
    def test_row_normalizes_per_unit(self):
        ledger = OverheadLedger(m=2)
        window = OverheadCounters(
            new_leaf_joins=100,
            nlco_connections=200,
            demotions=2,
            demotion_orphans=20,
            pao_connections=20,
        )
        row = ledger.table3_row(5000, window, elapsed=10.0)
        assert row.network_size == 5000
        assert row.new_leaf_peers_per_unit == 10.0
        assert row.demoted_supers_per_unit == 0.2
        assert row.disconnected_leaves_per_unit == 2.0
        assert row.pao_nlco_percent == pytest.approx(10.0)

    def test_zero_elapsed_rejected(self):
        ledger = OverheadLedger(m=2)
        with pytest.raises(ValueError):
            ledger.table3_row(100, OverheadCounters(), elapsed=0.0)
