"""Unit tests for recurring processes."""

from __future__ import annotations

import itertools

import pytest

from repro.sim.processes import PeriodicProcess, RenewalProcess


class TestPeriodicProcess:
    def test_fires_at_multiples_of_interval(self, sim):
        fired = []
        PeriodicProcess(sim, 2.0, lambda s, now: fired.append(now))
        sim.run(until=7.0)
        assert fired == [2.0, 4.0, 6.0]

    def test_custom_start(self, sim):
        fired = []
        PeriodicProcess(sim, 5.0, lambda s, now: fired.append(now), start=1.0)
        sim.run(until=12.0)
        assert fired == [1.0, 6.0, 11.0]

    def test_stop_prevents_future_firings(self, sim):
        fired = []
        proc = PeriodicProcess(sim, 1.0, lambda s, now: fired.append(now))
        sim.run(until=2.0)
        proc.stop()
        sim.run(until=10.0)
        assert fired == [1.0, 2.0]

    def test_stop_from_inside_action(self, sim):
        fired = []

        def action(s, now):
            fired.append(now)
            if len(fired) == 2:
                proc.stop()

        proc = PeriodicProcess(sim, 1.0, action)
        sim.run(until=10.0)
        assert fired == [1.0, 2.0]

    def test_two_processes_do_not_interfere(self, sim):
        a, b = [], []
        PeriodicProcess(sim, 2.0, lambda s, now: a.append(now), kind="p")
        PeriodicProcess(sim, 3.0, lambda s, now: b.append(now), kind="p")
        sim.run(until=6.0)
        assert a == [2.0, 4.0, 6.0]
        assert b == [3.0, 6.0]

    def test_invalid_interval_rejected(self, sim):
        with pytest.raises(ValueError):
            PeriodicProcess(sim, 0.0, lambda s, now: None)

    def test_interval_property(self, sim):
        assert PeriodicProcess(sim, 2.5, lambda s, now: None).interval == 2.5


class TestRenewalProcess:
    def test_fires_at_sampled_gaps(self, sim):
        gaps = iter([1.0, 2.0, 3.0, 100.0])
        fired = []
        RenewalProcess(sim, lambda: next(gaps), lambda s, now: fired.append(now))
        sim.run(until=10.0)
        assert fired == [1.0, 3.0, 6.0]

    def test_zero_gap_clamped_not_stuck(self, sim):
        counter = itertools.count()
        fired = []

        def gap():
            return 0.0 if next(counter) < 3 else 100.0

        RenewalProcess(sim, gap, lambda s, now: fired.append(now))
        sim.run(until=1.0)
        assert len(fired) == 3  # the three zero-gap firings, then far future

    def test_stop(self, sim):
        fired = []
        proc = RenewalProcess(sim, lambda: 1.0, lambda s, now: fired.append(now))
        sim.run(until=3.0)
        proc.stop()
        sim.run(until=10.0)
        assert fired == [1.0, 2.0, 3.0]


@pytest.mark.parametrize(
    "make",
    [
        lambda sim: PeriodicProcess(sim, 1.0, lambda s, now: None),
        lambda sim: RenewalProcess(sim, lambda: 1.0, lambda s, now: None),
    ],
)
def test_firings_share_one_payload_and_snapshots_copy_it(sim, make):
    """Every firing carries the process's one read-only payload, and a
    snapshot writes a copy of it: the queue's bytes are those of a fresh
    ``{"process": token}`` per event."""
    proc = make(sim)
    payloads = []
    for _ in range(3):
        payloads.append(proc._pending.payload)
        sim.run(until=sim.now + 1.0)
    assert all(p is payloads[0] for p in payloads)
    assert payloads[0] == {"process": proc._token}
    (entry,) = sim.snapshot()["queue"]
    assert entry[3] == {"process": proc._token} and entry[3] is not payloads[0]
