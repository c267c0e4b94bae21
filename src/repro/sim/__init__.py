"""Discrete-event simulation engine.

The substrate every other subsystem runs on: a deterministic, seedable,
heap-ordered event queue (:class:`Simulator`), named RNG streams
(:class:`RngStreams`), and recurring-process helpers.
"""

from .clock import SimClock
from .events import Event, EventKind
from .processes import PeriodicProcess, RenewalProcess
from .rng import RngStreams
from .scheduler import Simulator, StopSimulation

__all__ = [
    "SimClock",
    "Event",
    "EventKind",
    "PeriodicProcess",
    "RenewalProcess",
    "RngStreams",
    "Simulator",
    "StopSimulation",
]
