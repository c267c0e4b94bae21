"""Unit tests for the discrete-event scheduler."""

from __future__ import annotations

import pytest

from repro.sim.scheduler import Simulator, StopSimulation


def collect(sim: Simulator, kind: str, out: list):
    sim.on(kind, lambda s, ev: out.append((s.now, ev.payload.get("tag"))))


class TestScheduling:
    def test_schedule_relative_delay(self, sim):
        ev = sim.schedule(5.0, "x")
        assert ev.time == 5.0

    def test_schedule_at_absolute(self, sim):
        ev = sim.schedule_at(7.5, "x")
        assert ev.time == 7.5

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.schedule(-0.1, "x")

    def test_scheduling_in_past_rejected(self, sim):
        sim.schedule(1.0, "x")
        sim.run(until=1.0)
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, "x")

    def test_zero_delay_allowed(self, sim):
        fired = []
        collect(sim, "x", fired)
        sim.schedule(1.0, "x", {"tag": "outer"})
        sim.on(
            "x",
            lambda s, ev: s.schedule(0.0, "y") if ev.payload.get("tag") else None,
        )
        sim.run()
        assert fired


class TestDelivery:
    def test_events_delivered_in_time_order(self, sim):
        fired = []
        collect(sim, "x", fired)
        for t, tag in [(3.0, "c"), (1.0, "a"), (2.0, "b")]:
            sim.schedule_at(t, "x", {"tag": tag})
        sim.run()
        assert [tag for _, tag in fired] == ["a", "b", "c"]

    def test_same_time_fifo(self, sim):
        fired = []
        collect(sim, "x", fired)
        for tag in ("first", "second", "third"):
            sim.schedule_at(1.0, "x", {"tag": tag})
        sim.run()
        assert [tag for _, tag in fired] == ["first", "second", "third"]

    def test_multiple_handlers_in_registration_order(self, sim):
        order = []
        sim.on("x", lambda s, e: order.append("h1"))
        sim.on("x", lambda s, e: order.append("h2"))
        sim.schedule(1.0, "x")
        sim.run()
        assert order == ["h1", "h2"]

    def test_unknown_kind_is_silently_dropped(self, sim):
        sim.schedule(1.0, "nobody-listens")
        sim.run()
        assert sim.events_processed == 1

    def test_clock_advances_to_event_time(self, sim):
        times = []
        sim.on("x", lambda s, e: times.append(s.now))
        sim.schedule_at(4.25, "x")
        sim.run()
        assert times == [4.25]


class TestCancellation:
    def test_cancelled_event_not_delivered(self, sim):
        fired = []
        collect(sim, "x", fired)
        ev = sim.schedule(1.0, "x", {"tag": "dead"})
        ev.cancel()
        sim.run()
        assert fired == []

    def test_cancelled_event_does_not_count_as_processed(self, sim):
        ev = sim.schedule(1.0, "x")
        ev.cancel()
        sim.run()
        assert sim.events_processed == 0


class TestRunBounds:
    def test_until_is_inclusive(self, sim):
        fired = []
        collect(sim, "x", fired)
        sim.schedule_at(10.0, "x", {"tag": "edge"})
        sim.run(until=10.0)
        assert [t for _, t in fired] == ["edge"]

    def test_events_after_until_stay_queued(self, sim):
        fired = []
        collect(sim, "x", fired)
        sim.schedule_at(5.0, "x", {"tag": "in"})
        sim.schedule_at(15.0, "x", {"tag": "out"})
        sim.run(until=10.0)
        assert [t for _, t in fired] == ["in"]
        assert sim.pending == 1
        sim.run()
        assert [t for _, t in fired] == ["in", "out"]

    def test_clock_jumps_to_horizon_when_queue_drains(self, sim):
        sim.schedule_at(2.0, "x")
        sim.run(until=100.0)
        assert sim.now == 100.0

    def test_max_events_bound(self, sim):
        for t in range(10):
            sim.schedule_at(float(t + 1), "x")
        sim.run(max_events=3)
        assert sim.events_processed == 3
        assert sim.pending == 7

    def test_max_events_one_delivers_the_next_event(self, sim):
        fired = []
        collect(sim, "x", fired)
        sim.run(max_events=1)
        assert fired == [] and sim.events_processed == 0
        sim.schedule(1.0, "x", {"tag": "first"})
        dropped = sim.schedule(1.5, "x")
        sim.schedule(2.0, "x", {"tag": "second"})
        sim.cancel(dropped)
        sim.run(max_events=1)
        assert [t for _, t in fired] == ["first"]
        # The tombstone behind the delivered event stays queued.
        assert sim.pending == 2 and sim.live_pending == 1


class TestStopSimulation:
    def test_handler_can_stop_run(self, sim):
        fired = []

        def stopper(s, e):
            fired.append(s.now)
            raise StopSimulation

        sim.on("x", stopper)
        sim.schedule_at(1.0, "x")
        sim.schedule_at(2.0, "x")
        sim.run()
        assert fired == [1.0]
        assert sim.pending == 1


class TestHandlerManagement:
    def test_off_removes_handler(self, sim):
        fired = []
        handler = lambda s, e: fired.append(1)
        sim.on("x", handler)
        sim.off("x", handler)
        sim.schedule(1.0, "x")
        sim.run()
        assert fired == []

    def test_off_unknown_handler_raises(self, sim):
        with pytest.raises(ValueError):
            sim.off("x", lambda s, e: None)


class TestDeterminism:
    def test_identical_runs_process_identically(self):
        def run_once():
            sim = Simulator(seed=9)
            log = []
            sim.on("x", lambda s, e: log.append((s.now, e.payload["i"])))

            def spawner(s, e):
                if e.payload["i"] < 5:
                    gap = float(s.rng.get("g").random())
                    s.schedule(gap, "x", {"i": e.payload["i"] + 1})

            sim.on("x", spawner)
            sim.schedule(0.5, "x", {"i": 0})
            sim.run()
            return log

        assert run_once() == run_once()


class TestHandlerMutationDuringDispatch:
    def test_off_own_kind_mid_dispatch_does_not_skip_sibling(self, sim):
        """A handler deregistering itself must not starve the next one.

        The registry iterated its handler list in place once, so removing
        the current handler shifted its successor into the just-visited
        index and the successor silently never fired.
        """
        fired = []

        def first(s, e):
            fired.append("first")
            s.off("x", first)

        def second(s, e):
            fired.append("second")

        sim.on("x", first)
        sim.on("x", second)
        sim.schedule(1.0, "x")
        sim.schedule(2.0, "x")
        sim.run()
        assert fired == ["first", "second", "second"]

    def test_on_mid_dispatch_applies_from_next_event(self, sim):
        fired = []

        def late(s, e):
            fired.append("late")

        def first(s, e):
            fired.append("first")
            if len(fired) == 1:
                s.on("x", late)

        sim.on("x", first)
        sim.schedule(1.0, "x")
        sim.schedule(2.0, "x")
        sim.run()
        # The registration lands after the current event's dispatch.
        assert fired == ["first", "first", "late"]


class TestLivePending:
    def test_pending_counts_cancelled_live_pending_does_not(self, sim):
        events = [sim.schedule(float(i + 1), "x") for i in range(4)]
        assert sim.pending == 4
        assert sim.live_pending == 4
        assert sim.cancel(events[1])
        assert sim.pending == 4  # the tombstone is still queued
        assert sim.live_pending == 3
        assert not sim.cancel(events[1])  # idempotent, counted once
        assert sim.live_pending == 3

    def test_tombstone_pop_rebalances_the_counters(self, sim):
        events = [sim.schedule(float(i + 1), "x") for i in range(3)]
        sim.cancel(events[0])
        sim.run(until=1.5)
        assert sim.pending == 2
        assert sim.live_pending == 2

    def test_live_pending_exact_through_run(self, sim):
        delivered = []
        sim.on("x", lambda s, e: delivered.append(e.seq))
        events = [sim.schedule(float(i % 5) + 1.0, "x") for i in range(20)]
        for ev in events[::3]:
            sim.cancel(ev)
        assert sim.live_pending == 20 - len(events[::3])
        sim.run()
        assert sim.pending == 0
        assert sim.live_pending == 0
        assert len(delivered) == 20 - len(events[::3])
