"""The Telemetry facade and the NULL_TELEMETRY disabled mode."""

from __future__ import annotations

import pytest

from repro.context import build_context
from repro.telemetry import (
    NULL_SPAN,
    NULL_TELEMETRY,
    Telemetry,
    TelemetryConfig,
    bind_standard_producers,
    telemetry_from_config,
)


class TestConfigValidation:
    def test_rejects_unknown_audit_level(self):
        with pytest.raises(ValueError):
            TelemetryConfig(audit_level="everything")

    def test_rejects_bad_capacity_and_cadence(self):
        with pytest.raises(ValueError):
            TelemetryConfig(record_capacity=0)
        with pytest.raises(ValueError):
            TelemetryConfig(progress_every=0.0)


class TestTelemetry:
    def test_default_plane_has_all_parts(self):
        tel = Telemetry()
        assert tel.enabled
        assert tel.audit is not None
        assert tel.log.records() == ()
        with tel.span("x"):
            pass
        assert tel.spans.total("x")["calls"] == 1

    def test_audit_level_off_disables_audit_only(self):
        tel = Telemetry(TelemetryConfig(audit_level="off"))
        assert tel.audit is None
        assert tel.log is not None

    def test_spans_off_hands_back_null_span(self):
        tel = Telemetry(TelemetryConfig(spans=False))
        assert tel.span("x") is NULL_SPAN

    def test_restore_ignores_disabled_snapshot(self):
        tel = Telemetry()
        tel.log.emit("audit", 1.0, (1,))
        tel.restore(NULL_TELEMETRY.snapshot())  # telemetry was off before
        assert len(tel.log) == 1  # fresh/these buffers untouched
        tel.restore(None)
        assert len(tel.log) == 1

    def test_restore_continues_enabled_snapshot(self):
        tel = Telemetry()
        tel.log.emit("audit", 1.0, (1,))
        fresh = Telemetry()
        fresh.restore(tel.snapshot())
        assert fresh.log.records() == tel.log.records()


class TestNullTelemetry:
    def test_contract(self):
        assert not NULL_TELEMETRY.enabled
        assert NULL_TELEMETRY.audit is None
        assert NULL_TELEMETRY.log is None
        assert NULL_TELEMETRY.span("anything") is NULL_SPAN
        assert NULL_TELEMETRY.snapshot() == {"enabled": False}
        NULL_TELEMETRY.restore({"enabled": True, "log": {}})  # no-op

    def test_from_config_none_is_the_shared_singleton(self):
        assert telemetry_from_config(None) is NULL_TELEMETRY
        assert telemetry_from_config(TelemetryConfig()).enabled


class TestStandardProducers:
    def test_binds_core_namespace_onto_a_context(self):
        tel = Telemetry()
        ctx = build_context(seed=1, telemetry=tel)
        bind_standard_producers(tel, ctx)
        out = tel.registry.collect()
        for name in (
            "sim.now",
            "sim.events_processed",
            "overlay.n",
            "overlay.n_super",
            "overlay.ratio",
            "messages.total",
            "transport.in_flight",
        ):
            assert name in out
        assert out["overlay.n"] == 0

    def test_noop_for_disabled_plane(self):
        ctx = build_context(seed=1)
        bind_standard_producers(NULL_TELEMETRY, ctx)  # must not raise

    def test_context_default_is_null_telemetry(self):
        assert build_context(seed=1).telemetry is NULL_TELEMETRY

    def test_store_bytes_gauge_tracks_columnar_store(self):
        from repro.overlay.roles import Role

        tel = Telemetry()
        ctx = build_context(seed=1, telemetry=tel)
        bind_standard_producers(tel, ctx)
        before = tel.registry.collect()["overlay.store_bytes"]
        assert before == ctx.overlay.store.nbytes > 0
        # Blow past the initial slot capacity so the columns regrow; the
        # producer is a live view, so collect() sees the new footprint.
        for pid in range(2000):
            ctx.overlay.add_peer(
                pid, Role.LEAF, capacity=1.0, join_time=0.0, lifetime=1.0
            )
        after = tel.registry.collect()["overlay.store_bytes"]
        assert after == ctx.overlay.store.nbytes > before
