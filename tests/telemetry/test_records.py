"""RecordLog and AuditLog: ordering, bounding, levels, exact tallies."""

from __future__ import annotations

from repro.telemetry.records import AuditLog, RecordLog, record_as_dict


def _decision(audit, verdict, t=1.0, pid=7, role="leaf"):
    audit.record_decision(
        t,
        pid,
        role,
        verdict,
        mu=0.5,
        g_size=4,
        y_capa=0.25,
        y_age=0.5,
        x_capa=0.6,
        x_age=0.6,
        z_promote=0.4,
        z_demote=0.9,
    )


class TestRecordLog:
    def test_emit_assigns_global_sequence(self):
        log = RecordLog()
        log.emit("audit", 1.0, ("a",))
        log.emit("transport", 2.0, ("b",))
        assert [r[0] for r in log] == [0, 1]
        assert log.total_emitted == 2

    def test_kind_filtering(self):
        log = RecordLog()
        log.emit("audit", 1.0, ("a",))
        log.emit("transport", 2.0, ("b",))
        assert len(log.records("audit")) == 1
        assert len(log.records()) == 2

    def test_capacity_evicts_oldest_and_counts_exactly(self):
        log = RecordLog(capacity=2)
        for i in range(5):
            log.emit("audit", float(i), (i,))
        assert len(log) == 2
        assert log.dropped == 3
        assert log.total_emitted == 5
        assert [r[3][0] for r in log] == [3, 4]  # newest retained

    def test_clear_keeps_sequence_counting(self):
        log = RecordLog()
        log.emit("audit", 1.0, ("a",))
        log.clear()
        log.emit("audit", 2.0, ("b",))
        assert [r[0] for r in log] == [1]

    def test_snapshot_restore_round_trip(self):
        log = RecordLog(capacity=8)
        log.emit("audit", 1.0, (1, "leaf"))
        fresh = RecordLog(capacity=8)
        fresh.restore(log.snapshot())
        assert fresh.records() == log.records()
        assert fresh.total_emitted == log.total_emitted
        fresh.emit("audit", 2.0, (2, "super"))
        assert fresh.records()[-1][0] == 1  # sequence continues

    def test_restore_into_a_smaller_ring_counts_the_overflow(self):
        log = RecordLog()
        for i in range(10):
            log.emit("audit", float(i), (i, "leaf"))
        small = RecordLog(capacity=4)
        small.restore(log.snapshot())
        assert len(small) == 4
        assert small.dropped == 6  # was 0: the overflow vanished silently
        assert small.total_emitted == 10
        assert [r[0] for r in small] == [6, 7, 8, 9]

    def test_tail_reads_the_newest_rows_per_kind(self):
        log = RecordLog(capacity=6)
        for i in range(9):
            log.emit("audit" if i % 3 else "transport", float(i), (i,))
        assert [r[0] for r in log.tail(2)] == [7, 8]
        assert [r[0] for r in log.tail(50)] == [3, 4, 5, 6, 7, 8]
        assert [r[0] for r in log.tail(3, "audit")] == [5, 7, 8]
        assert [r[0] for r in log.tail(9, "transport")] == [3, 6]
        assert log.tail(0) == () and log.tail(2, "absent") == ()


class TestRecordAsDict:
    def test_schema_fields_zipped_and_nones_dropped(self):
        record = (3, 1.5, "audit", (7, "leaf", "defer", "no_mu", None, 2, 1))
        d = record_as_dict(record)
        assert d == {
            "seq": 3,
            "t": 1.5,
            "kind": "audit",
            "pid": 7,
            "role": "leaf",
            "verdict": "defer",
            "reason": "no_mu",
            "g_size": 2,
            "missing": 1,
        }

    def test_unknown_kind_keeps_raw_values(self):
        d = record_as_dict((0, 0.0, "custom", ("x", 1)))
        assert d == {"seq": 0, "t": 0.0, "kind": "custom", "values": ["x", 1]}


class TestAuditLog:
    def test_full_level_records_none_verdicts(self):
        log = RecordLog()
        audit = AuditLog(log, level="full")
        _decision(audit, "none")
        _decision(audit, "promote")
        assert len(audit.records()) == 2
        assert audit.verdict_counts == {"none": 1, "promote": 1}

    def test_actions_level_suppresses_none_but_tallies(self):
        log = RecordLog()
        audit = AuditLog(log, level="actions")
        _decision(audit, "none")
        _decision(audit, "demote")
        assert [d["verdict"] for d in audit.dicts()] == ["demote"]
        assert audit.verdict_counts == {"none": 1, "demote": 1}

    def test_decision_record_carries_full_evidence(self):
        audit = AuditLog(RecordLog())
        _decision(audit, "promote", t=9.0, pid=3)
        (d,) = audit.dicts()
        assert d["pid"] == 3 and d["t"] == 9.0 and d["role"] == "leaf"
        assert d["mu"] == 0.5 and d["g_size"] == 4
        assert d["y_capa"] == 0.25 and d["y_age"] == 0.5
        assert d["x_capa"] == 0.6 and d["z_promote"] == 0.4
        assert "reason" not in d  # None fields dropped

    def test_defer_and_forced_demotion_records(self):
        audit = AuditLog(RecordLog())
        audit.record_defer(2.0, 5, "super", "unobserved_leaves", g_size=1, missing=3)
        audit.record_forced_demotion(3.0, 6, mu=0.1, executed=True)
        audit.record_forced_demotion(4.0, 7, mu=0.2, executed=False)
        defer, forced, blocked = audit.dicts()
        assert defer["verdict"] == "defer"
        assert defer["reason"] == "unobserved_leaves" and defer["missing"] == 3
        assert forced["verdict"] == "force_demote"
        assert forced["reason"] == "executed"
        assert blocked["reason"] == "floor_blocked"
        assert audit.verdict_counts == {"defer": 1, "force_demote": 2}

    def test_snapshot_restores_tallies_only(self):
        log = RecordLog()
        audit = AuditLog(log, level="actions")
        _decision(audit, "promote")
        fresh = AuditLog(RecordLog(), level="actions")
        fresh.restore(audit.snapshot())
        assert fresh.verdict_counts == {"promote": 1}
        assert fresh.records() == ()  # records live in the shared log
