"""Property tests: the calendar-queue engine against a flat-heap model.

The wheel engine's contract is *bit-identical pop order* with the flat
binary heap it replaced, including zero-delay follow-ups, cancellation,
lazy (source-owned) events, and snapshot/restore at arbitrary points.
The oracle is :class:`tests.sim.reference_heap.ReferenceHeap`, an
independent model that shares no code with the engine.  These properties
drive both through identical randomized op scripts, at several bucket
widths, and require:

* identical ``(time, seq, kind)`` delivery sequences,
* identical ``(now, events_processed, live_pending)`` at every
  observation point (``pending`` is not compared: a
  cancelled-but-unmaterialized lazy row vanishes from the wheel's
  columns immediately but is a tombstone in a heap until popped),
* identical canonical queues at every snapshot point and at the end,

and separately that lazy scheduling is *equivalent to eager
scheduling*: the same script with every ``schedule_lazy`` replaced by
``schedule_at`` delivers the exact same sequence, because the seq is
reserved at schedule time either way.  Every script runs two lazy
sources of different kinds side by side (the engine keeps one per kind,
as deaths and transport timeouts share it in a run).
"""

from __future__ import annotations

import pickle
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.scheduler import Simulator
from tests.sim.reference_heap import ReferenceHeap

KIND = "lazy_tick"
KIND2 = "lazy_tock"
#: Schedule op -> the lazy kind it schedules.
LAZY_OPS = {"lazy": KIND, "lazy2": KIND2}


class DictSource:
    """Toy columnar lazy source: a dict of seq -> (time, payload) rows."""

    def __init__(self, sim: Simulator, kind: str) -> None:
        self.kind = kind
        self.rows = {}
        self.sim = sim
        sim.set_lazy_source(self)

    # -- driver side -----------------------------------------------------
    def schedule(self, time: float) -> int:
        seq, materialized = self.sim.schedule_lazy(time, self.kind, None)
        if not materialized:
            self.rows[seq] = time
        return seq

    def cancel(self, seq: int) -> bool:
        if seq in self.rows:
            del self.rows[seq]
            return True
        return self.sim.cancel_lazy(seq)

    def adopt(self, seq: int, sim: Simulator) -> None:
        time, _payload, rematerialized = sim.reclaim_lazy(seq)
        if not rematerialized:
            self.rows[seq] = time

    # -- LazyEventSource protocol ----------------------------------------
    def lazy_count(self) -> int:
        return len(self.rows)

    def next_lazy_time(self) -> float:
        return min(self.rows.values(), default=inf)

    def harvest(self, t_end: float):
        due = sorted(
            (t, seq, None) for seq, t in self.rows.items() if t < t_end
        )
        for _t, seq, _p in due:
            del self.rows[seq]
        return due

    def pending_lazy(self):
        return [(t, seq, None) for seq, t in self.rows.items()]


# One op: (opcode, operand).  Delays are drawn small so ops interact
# (same-window ties, zero-delay follow-ups, cancels hitting pending
# events, restores landing mid-window).
ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("eager"), st.floats(min_value=0.0, max_value=5.0)),
        st.tuples(st.just("zero"), st.none()),
        st.tuples(st.just("lazy"), st.floats(min_value=0.0, max_value=5.0)),
        st.tuples(st.just("lazy2"), st.floats(min_value=0.0, max_value=5.0)),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=40)),
        st.tuples(st.just("run"), st.floats(min_value=0.0, max_value=3.0)),
        st.tuples(st.just("step"), st.none()),
        st.tuples(st.just("snaprestore"), st.none()),
    ),
    max_size=40,
)


class Script:
    """Replays one op sequence against a simulator, logging deliveries."""

    def __init__(self, *, lazy: bool, width: float = 1.0) -> None:
        self.lazy = lazy
        self.log = []
        self.observed = []
        self.queues = []
        self.width = width
        self.sim = self._fresh()
        # (tag, handle) per schedule op; cleared on restore because a
        # pre-restore Event object no longer identifies a queue entry.
        self.created = []
        #: seq -> kind of every lazy event not yet delivered or cancelled.
        self.live_lazy = {}

    def _fresh(self) -> Simulator:
        sim = Simulator(seed=7, bucket_width=self.width)
        sim.on("tick", self._on_event)
        self.sources = {}
        for kind in LAZY_OPS.values():
            sim.on(kind, self._on_event)
            self.sources[kind] = DictSource(sim, kind)
        return sim

    def _on_event(self, sim, ev):
        self.log.append((ev.time, ev.seq, ev.kind))
        self.live_lazy.pop(ev.seq, None)

    def apply(self, ops) -> None:
        for op, arg in ops:
            sim = self.sim
            if op == "eager":
                self.created.append(("eager", sim.schedule(float(arg), "tick")))
            elif op == "zero":
                self.created.append(("eager", sim.schedule(0.0, "tick")))
            elif op in LAZY_OPS:
                kind = LAZY_OPS[op]
                time = sim.now + float(arg)
                if self.lazy:
                    seq = self.sources[kind].schedule(time)
                else:
                    seq = sim.schedule_at(time, kind).seq
                self.created.append(("lazy", seq))
                self.live_lazy[seq] = kind
            elif op == "cancel":
                if not self.created:
                    continue
                tag, handle = self.created[arg % len(self.created)]
                if tag == "eager":
                    sim.cancel(handle)
                elif self.lazy:
                    kind = self.live_lazy.get(handle)
                    if kind is not None and self.sources[kind].cancel(handle):
                        del self.live_lazy[handle]
                else:
                    ev = self._eager_lazy_event(handle)
                    if ev is not None and sim.cancel(ev):
                        del self.live_lazy[handle]
            elif op == "run":
                sim.run(until=sim.now + float(arg))
                self.observe()
            elif op == "step":
                sim.step()
                self.observe()
            else:
                self.restore_roundtrip()
        self.sim.run()
        self.observe()
        self.queues.append(self.sim.snapshot()["queue"])

    def _eager_lazy_event(self, seq):
        for ev in self.sim.queued_events():
            if ev.seq == seq:
                return ev
        return None

    def observe(self) -> None:
        sim = self.sim
        self.observed.append((sim.now, sim.events_processed, sim.live_pending))

    def restore_roundtrip(self) -> None:
        state = self.sim.snapshot()
        self.last_snapshot = pickle.dumps(state, protocol=4)
        self.queues.append(state["queue"])
        restored = self._fresh()
        restored.restore(state)
        if self.lazy:
            for seq, kind in sorted(self.live_lazy.items()):
                self.sources[kind].adopt(seq, restored)
        self.sim = restored
        # Pre-restore handles no longer name queue entries; later cancel
        # ops target post-restore schedules only (same in every variant,
        # so the scripts stay aligned).
        self.created = []


class ModelScript:
    """The same op interpreter over the flat-heap reference model."""

    def __init__(self) -> None:
        self.model = ReferenceHeap()
        self.observed = []
        self.queues = []

    @property
    def log(self):
        return self.model.log

    def apply(self, ops) -> None:
        model = self.model
        created = []
        for op, arg in ops:
            if op == "eager":
                created.append(model.schedule_at(model.now + float(arg), "tick"))
            elif op == "zero":
                created.append(model.schedule_at(model.now + 0.0, "tick"))
            elif op in LAZY_OPS:
                created.append(
                    model.schedule_at(model.now + float(arg), LAZY_OPS[op], lazy=True)
                )
            elif op == "cancel":
                if created:
                    model.cancel(created[arg % len(created)])
            elif op == "run":
                model.run(until=model.now + float(arg))
                self.observe()
            elif op == "step":
                model.step()
                self.observe()
            else:
                self.queues.append(model.queue())
                model.restore()
                created = []
        model.run()
        self.observe()
        self.queues.append(model.queue())

    def observe(self) -> None:
        model = self.model
        self.observed.append((model.now, model.events_processed, model.live_pending))


WIDTHS = [0.25, 1.0, 2.5]


@given(ops=ops_strategy, width=st.sampled_from(WIDTHS))
@settings(max_examples=120, deadline=None)
def test_wheel_matches_heap_oracle(ops, width):
    wheel = Script(lazy=True, width=width)
    model = ModelScript()
    wheel.apply(ops)
    model.apply(ops)
    assert wheel.log == model.log
    assert wheel.observed == model.observed
    assert wheel.queues == model.queues


@given(ops=ops_strategy, width=st.sampled_from(WIDTHS))
@settings(max_examples=80, deadline=None)
def test_lazy_is_equivalent_to_eager(ops, width):
    lazy = Script(lazy=True, width=width)
    eager = Script(lazy=False, width=width)
    lazy.apply(ops)
    eager.apply(ops)
    assert lazy.log == eager.log
    assert lazy.observed == eager.observed


@given(ops=ops_strategy)
@settings(max_examples=40, deadline=None)
def test_snapshots_are_engine_independent_mid_script(ops):
    # Force at least one snapshot point by appending one.  Where the
    # windows fall must not leak into the serialized state: every bucket
    # width writes the same bytes, and they carry the model's queue.
    ops = list(ops) + [("snaprestore", None)]
    scripts = [Script(lazy=True, width=width) for width in WIDTHS]
    for script in scripts:
        script.apply(ops)
    model = ModelScript()
    model.apply(ops)
    assert len({script.last_snapshot for script in scripts}) == 1
    assert pickle.loads(scripts[0].last_snapshot)["queue"] == model.queues[-2]


def test_one_lazy_source_per_kind():
    sim = Simulator(seed=7)
    ticks = DictSource(sim, KIND)
    DictSource(sim, KIND2)  # a source of a new kind is accepted
    sim.set_lazy_source(ticks)  # re-attaching the same one is a no-op
    with pytest.raises(RuntimeError, match="already attached"):
        DictSource(sim, KIND)
    with pytest.raises(RuntimeError, match="needs a lazy source"):
        sim.schedule_lazy(10.0, "unowned_kind")
