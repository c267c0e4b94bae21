"""Per-detector unit tests on synthetic sample sequences.

Each test drives a detector with hand-built :class:`HealthSample`
ticks and asserts the latch semantics exactly: one ``warning`` at the
first breached tick, one ``critical`` when the streak reaches
``critical_after``, one ``recovered`` on the way back -- never a
firing per breached tick.
"""

from __future__ import annotations

from repro.health.detectors import (
    ClockStallDetector,
    DeferSpikeDetector,
    HealthSample,
    LoadImbalanceDetector,
    RatioDriftDetector,
    RoleFlapDetector,
    TimeoutSurgeDetector,
)


def sample(t, **kw):
    defaults = dict(
        n=100,
        n_super=10,
        ratio=9.0,
        max_leaf_deg=10.0,
        mean_leaf_deg=9.0,
        transport_failures=0,
        evaluations=0,
        deferrals=0,
        events=int(100 * t),
    )
    defaults.update(kw)
    return HealthSample(t=t, **defaults)


def fire(detector, samples):
    out = []
    for s in samples:
        out.extend(detector.observe(s))
    return out


class TestRatioDrift:
    def make(self, critical_after=3):
        # eta=10: ratio 9.0 is 10% drift; threshold 0.5 means 50%.
        return RatioDriftDetector(
            0.5, eta=10.0, window=30.0, critical_after=critical_after, grace=0.0
        )

    def test_quiet_run_never_fires(self):
        d = self.make()
        assert fire(d, [sample(t, ratio=10.0) for t in range(1, 20)]) == []

    def test_fires_warning_exactly_once_at_the_crossing_tick(self):
        # Two-tick window: drift jumps to 100% at t=5, so the windowed
        # mean crosses 0.5 at t=6 ((0+1)/2 at t=5 is only *at* the
        # threshold) -- exactly one warning, exactly there.
        d = RatioDriftDetector(
            0.5, eta=10.0, window=2.0, critical_after=10, grace=0.0
        )
        ticks = [sample(float(t), ratio=10.0 if t < 5 else 20.0) for t in range(1, 9)]
        firings = fire(d, ticks)
        assert [f.severity for f in firings] == ["warning"]
        assert firings[0].t == 6.0
        assert firings[0].breaches == 1
        assert firings[0].kind == "health.ratio_drift"

    def test_escalates_once_then_recovers_once(self):
        d = self.make(critical_after=3)
        ticks = [sample(float(t), ratio=20.0) for t in range(1, 7)]
        # Recovery needs the windowed mean back inside the band: jump far
        # ahead so the breached evidence has been evicted.
        ticks += [sample(100.0, ratio=10.0), sample(101.0, ratio=10.0)]
        firings = fire(d, ticks)
        assert [f.severity for f in firings] == ["warning", "critical", "recovered"]
        warning, critical, recovered = firings
        assert critical.t == 3.0
        assert critical.breaches == 3
        assert recovered.t == 100.0
        assert recovered.breaches == 6  # streak length carried as evidence

    def test_unbounded_ratio_is_clamped_finite(self):
        d = self.make(critical_after=1)
        firings = fire(d, [sample(1.0, ratio=float("inf"))])
        assert firings and all(f.value < float("inf") for f in firings)

    def test_grace_suppresses_firing_but_keeps_the_window_warm(self):
        d = RatioDriftDetector(
            0.5, eta=10.0, window=30.0, critical_after=3, grace=5.0
        )
        assert fire(d, [sample(float(t), ratio=20.0) for t in (1, 2, 3, 4)]) == []
        # First post-grace tick sees a warm window -> immediate warning.
        firings = fire(d, [sample(6.0, ratio=20.0)])
        assert [f.severity for f in firings] == ["warning"]


class TestRoleFlap:
    def make(self, critical_after=2):
        return RoleFlapDetector(
            3.0, window=60.0, critical_after=critical_after, grace=0.0
        )

    def test_per_peer_warning_fires_once_while_latched(self):
        d = self.make(critical_after=99)
        for t in (1.0, 2.0, 3.0):
            d.record_transition(t, pid=7)
        first = fire(d, [sample(4.0)])
        assert [f.severity for f in first] == ["warning"]
        assert first[0].pid == 7
        assert first[0].value == 3.0
        # Still flapping at the next tick: latched, no second warning.
        assert fire(d, [sample(5.0)]) == []

    def test_detector_level_critical_counts_flapping_peers(self):
        d = self.make(critical_after=2)
        for pid in (3, 9):
            for t in (1.0, 2.0, 3.0):
                d.record_transition(t, pid=pid)
        first = fire(d, [sample(4.0)])
        assert sorted(f.pid for f in first) == [3, 9]
        second = fire(d, [sample(5.0)])
        assert [f.severity for f in second] == ["critical"]
        assert second[0].value == 2.0  # two concurrently flapping peers
        assert second[0].pid is None

    def test_recovers_when_the_window_drains(self):
        d = self.make(critical_after=1)
        for t in (1.0, 2.0, 3.0):
            d.record_transition(t, pid=7)
        firings = fire(d, [sample(4.0)])
        assert [f.severity for f in firings] == ["warning", "critical"]
        # 60 time units later the transitions have aged out.
        firings = fire(d, [sample(70.0)])
        assert [f.severity for f in firings] == ["recovered"]
        assert fire(d, [sample(71.0)]) == []


class TestLoadImbalance:
    def make(self):
        return LoadImbalanceDetector(
            4.0, min_supers=4, window=30.0, critical_after=2, grace=0.0
        )

    def test_small_super_layer_is_ignored(self):
        d = self.make()
        ticks = [
            sample(float(t), n_super=2, max_leaf_deg=50.0, mean_leaf_deg=1.0)
            for t in range(1, 6)
        ]
        assert fire(d, ticks) == []

    def test_sustained_imbalance_escalates(self):
        d = self.make()
        ticks = [
            sample(float(t), max_leaf_deg=45.0, mean_leaf_deg=9.0)
            for t in range(1, 4)
        ]
        firings = fire(d, ticks)
        assert [f.severity for f in firings] == ["warning", "critical"]
        assert firings[0].value == 5.0


class TestTimeoutSurge:
    def make(self):
        return TimeoutSurgeDetector(
            100.0, window=30.0, critical_after=2, grace=0.0
        )

    def test_first_sample_is_baseline_not_a_surge(self):
        d = self.make()
        # A huge pre-existing cumulative count must not fire on tick one.
        assert fire(d, [sample(1.0, transport_failures=10_000)]) == []

    def test_surge_fires_once_at_the_right_tick(self):
        d = self.make()
        ticks = [sample(1.0, transport_failures=0)]
        ticks += [sample(2.0, transport_failures=10)]
        ticks += [sample(3.0, transport_failures=200)]  # +190 in window
        ticks += [sample(4.0, transport_failures=210)]
        firings = fire(d, ticks)
        assert [f.severity for f in firings] == ["warning", "critical"]
        assert firings[0].t == 3.0
        assert firings[0].value == 200.0  # windowed sum of deltas


class TestDeferSpike:
    def make(self):
        return DeferSpikeDetector(
            0.5, min_evals=20, window=30.0, critical_after=2, grace=0.0
        )

    def test_below_min_evals_never_fires(self):
        d = self.make()
        ticks = [
            sample(float(t), evaluations=5 * t, deferrals=5 * t)
            for t in range(1, 4)
        ]
        assert fire(d, ticks) == []

    def test_spike_fires_at_the_right_tick_with_the_rate_as_value(self):
        d = self.make()
        ticks = [
            sample(1.0, evaluations=0, deferrals=0),
            sample(2.0, evaluations=30, deferrals=6),  # rate 0.2
            sample(3.0, evaluations=60, deferrals=33),  # rate 33/60 = 0.55
        ]
        firings = fire(d, ticks)
        assert [f.severity for f in firings] == ["warning"]
        assert firings[0].t == 3.0
        assert firings[0].value == 0.55


class TestClockStall:
    def make(self):
        return ClockStallDetector(1000.0, critical_after=2, grace=0.0)

    def test_normal_density_is_quiet(self):
        d = self.make()
        ticks = [sample(float(t), events=100 * t) for t in range(1, 6)]
        assert fire(d, ticks) == []

    def test_event_storm_fires(self):
        d = self.make()
        ticks = [
            sample(1.0, events=100),
            sample(2.0, events=5_000),  # 4900 events per unit time
            sample(3.0, events=10_000),
        ]
        firings = fire(d, ticks)
        assert [f.severity for f in firings] == ["warning", "critical"]
        assert firings[0].t == 2.0
        assert firings[0].value == 4_900.0

