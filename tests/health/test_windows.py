"""SlidingWindow: event-time eviction and running sums."""

from __future__ import annotations

from repro.metrics.windows import SlidingWindow


class TestSlidingWindow:
    def test_push_accumulates(self):
        w = SlidingWindow(10.0)
        w.push(1.0, 2.0)
        w.push(2.0, 3.0)
        assert len(w) == 2
        assert w.sum() == 5.0
        assert w.mean() == 2.5
        assert w.max() == 3.0

    def test_eviction_is_exclusive_of_the_left_edge(self):
        # The window is (t - width, t]: an item exactly width old falls out.
        w = SlidingWindow(10.0)
        w.push(0.0, 1.0)
        w.push(5.0, 2.0)
        w.push(10.0, 4.0)
        assert w.sum() == 6.0  # t=0 evicted at now=10
        w.prune(15.0)
        assert w.sum() == 4.0
        w.prune(20.0)
        assert len(w) == 0
        assert w.sum() == 0.0
        assert w.mean() == 0.0

