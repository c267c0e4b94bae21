"""Outside-in span tracing for the per-layer budget.

Nothing in ``src/`` knows about this: inside :func:`tracing` the public
functions listed in :data:`METHOD_SPANS` are replaced *at class level*
with span wrappers, ``Simulator.on``/``Simulator.off`` are wrapped as a
pair so event handlers run under their owning layer's span (and
``off(original)`` still finds the wrapper), and every attribute is put
back on exit -- also when the run raises.

A span's *self* time is its duration minus the time its child spans
cover, so self times partition the root span: the table sums to the run
wall, and ``<layer>.share`` is a real budget.  Spans are aggregated in
memory as ``name -> [calls, self_s]`` and handed over when the run
ends; the traced run never feeds an end-to-end metric.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List

__all__ = [
    "LAYERS",
    "ROOT_SPAN",
    "CALIB_SPAN",
    "METHOD_SPANS",
    "HANDLER_SPANS",
    "SPAN_NAMES",
    "Tracer",
    "tracing",
]

#: The ``src/repro`` packages on the benchmarked path.
LAYERS = (
    "sim",
    "churn",
    "overlay",
    "protocol",
    "core",
    "search",
    "metrics",
    "telemetry",
    "health",
    "experiments",
)

#: Opened by the child around the one public run call.
ROOT_SPAN = "experiments.run_experiment"

#: The calibration slices of a traced run; not a layer, never reported.
CALIB_SPAN = "bench.calib"

#: span name -> (module, class, method) replaced at class level.
METHOD_SPANS = {
    "sim.run": ("repro.sim.scheduler", "Simulator", "run"),
    "churn.kill_peer": ("repro.churn.lifecycle", "ChurnDriver", "kill_peer"),
    "overlay.join": ("repro.overlay.bootstrap", "JoinProcedure", "join"),
    "overlay.connect": ("repro.overlay.topology", "Overlay", "connect"),
    "overlay.remove_peer": ("repro.overlay.topology", "Overlay", "remove_peer"),
    "overlay.random_supers": ("repro.overlay.topology", "Overlay", "random_supers"),
    "overlay.promote": ("repro.overlay.topology", "Overlay", "promote"),
    "overlay.demote": ("repro.overlay.topology", "Overlay", "demote"),
    "overlay.maintenance_sweep": ("repro.overlay.maintenance", "Maintenance", "sweep"),
    "overlay.after_super_death": (
        "repro.overlay.maintenance", "Maintenance", "after_super_death",
    ),
    "protocol.on_connection_created": (
        "repro.protocol.transport", "InfoExchange", "on_connection_created",
    ),
    "protocol.ledger_record": ("repro.protocol.accounting", "MessageLedger", "record"),
    "core.evaluate": ("repro.core.dlm", "DLMPolicy", "evaluate"),
    "core.request_evaluation": ("repro.core.dlm", "DLMPolicy", "request_evaluation"),
    "search.query": ("repro.search.flooding", "FloodRouter", "query"),
    "metrics.sample": ("repro.metrics.layerstats", "LayerStatsSampler", "sample"),
    "telemetry.emit": ("repro.telemetry.records", "RecordLog", "emit"),
    "telemetry.record_decision": (
        "repro.telemetry.records", "AuditLog", "record_decision",
    ),
    "experiments.shard_advance": ("repro.experiments.sharded", "ShardRun", "advance"),
    "experiments.shard_deliver": ("repro.experiments.sharded", "ShardRun", "deliver"),
}

#: event kind -> span its handlers (registered via ``Simulator.on``) run under.
HANDLER_SPANS = {
    "peer_join": "churn.on_join",
    "peer_leave": "churn.on_leave",
    "transport_deliver": "protocol.on_deliver",
    "transport_timeout": "protocol.on_timeout",
    "dlm_evaluate": "core.on_evaluate",
    "dlm_eval_sweep": "core.eval_sweep",
    "query_issued": "search.on_query",
}

#: Sample listeners from this package run under ``health.on_sample``.
_HEALTH_PACKAGE = "repro.health"

#: ``export_run`` is a module function the two run loops import by name,
#: so it is replaced in the importing modules.
_EXPORT_RUN_SITES = ("repro.experiments.runner", "repro.experiments.sharded")

SPAN_NAMES = tuple(
    sorted(
        {ROOT_SPAN, "health.on_sample", "telemetry.export_run"}
        | set(METHOD_SPANS)
        | set(HANDLER_SPANS.values())
    )
)


class Tracer:
    """Aggregated spans of one run: ``name -> [calls, self_s]``."""

    def __init__(self) -> None:
        self.records: Dict[str, List[float]] = {n: [0, 0.0] for n in SPAN_NAMES}
        # One frame per open span holding the time its children covered;
        # the sentinel at the bottom absorbs the root's duration.
        self._stack: List[List[float]] = [[0.0]]

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` timed as one span of ``name`` per call."""
        record = self.records.setdefault(name, [0, 0.0])
        stack = self._stack
        push, pop = stack.append, stack.pop

        def span(*args, **kwargs):
            frame = [0.0]
            push(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                pop()
                record[0] += 1
                record[1] += elapsed - frame[0]
                stack[-1][0] += elapsed

        return span

    @property
    def open_spans(self) -> int:
        """Spans currently on the stack (0 between runs)."""
        return len(self._stack) - 1

    def spans(self) -> Dict[str, dict]:
        """``{name: {"calls": int, "self_s": float}}`` for every span."""
        return {
            name: {"calls": int(calls), "self_s": self_s}
            for name, (calls, self_s) in self.records.items()
        }


def _owner_module(fn: Callable) -> str:
    owner = getattr(fn, "__self__", None)
    return type(owner).__module__ if owner is not None else fn.__module__


@contextmanager
def tracing() -> Iterator[Tracer]:
    """Patch the span sites for the duration of the block."""
    tracer = Tracer()
    undo: list = []  # (object, attribute, original raw attribute)

    def replace(obj, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = vars(obj)[attr]
        undo.append((obj, attr, original))
        setattr(obj, attr, make(original))

    from repro.metrics.layerstats import LayerStatsSampler
    from repro.sim.scheduler import Simulator

    # (sim, kind, handler, wrapper) per live traced registration.
    registered: list = []

    def make_on(original):
        def on(sim, kind, handler):
            name = HANDLER_SPANS.get(kind)
            if name is None:
                return original(sim, kind, handler)
            wrapper = tracer.wrap(name, handler)
            registered.append((sim, kind, handler, wrapper))
            return original(sim, kind, wrapper)

        return on

    def make_off(original):
        def off(sim, kind, handler):
            for i, (s, k, h, wrapper) in enumerate(registered):
                if s is sim and k == kind and h == handler:
                    del registered[i]
                    return original(sim, kind, wrapper)
            return original(sim, kind, handler)

        return off

    def make_add_listener(original):
        def add_sample_listener(sampler, listener):
            if _owner_module(listener).startswith(_HEALTH_PACKAGE):
                listener = tracer.wrap("health.on_sample", listener)
            return original(sampler, listener)

        return add_sample_listener

    try:
        for name, (module, cls, attr) in METHOD_SPANS.items():
            owner = getattr(importlib.import_module(module), cls)
            replace(owner, attr, lambda fn, name=name: tracer.wrap(name, fn))
        replace(Simulator, "on", make_on)
        replace(Simulator, "off", make_off)
        replace(LayerStatsSampler, "add_sample_listener", make_add_listener)
        for module in _EXPORT_RUN_SITES:
            replace(
                importlib.import_module(module),
                "export_run",
                lambda fn: tracer.wrap("telemetry.export_run", fn),
            )
        yield tracer
    finally:
        for obj, attr, original in reversed(undo):
            setattr(obj, attr, original)
