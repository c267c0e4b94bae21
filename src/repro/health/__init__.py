"""The run-health plane: record evidence, judge it afterwards, flight-record.

Layered on the telemetry plane (DESIGN.md §7) and deterministic by the
same construction -- no wall clock, no RNG, event-time only.  Five
pieces:

* the evidence a health-enabled run records -- ``sample`` and ``role``
  records -- and :func:`replay`, the fold that runs the detectors over
  it afterwards (:mod:`repro.health.evidence`);
* streaming detectors over sliding event-time windows
  (:mod:`repro.health.detectors`);
* the declarative SLO spec (:class:`HealthConfig`) and the pass/fail
  report (:mod:`repro.health.slo`);
* cross-shard stream aggregation, which merges K per-shard telemetry
  exports into one run-level stream (:mod:`repro.health.aggregate`);
* the flight recorder, a bounded postmortem bundle dumped when a run
  dies on an unhandled exception (:mod:`repro.health.flight`).

See DESIGN.md §12 for the full contract.
"""

from .aggregate import merge_streams, resolve_run_stream, shard_stream_paths
from .config import HealthConfig
from .detectors import DETECTOR_NAMES, Firing, HealthSample, build_detectors
from .evidence import EvidenceRecorder, replay
from .flight import crash_dump, load_flight_bundle, write_flight_bundle
from .slo import HealthReport, build_report, render_report

__all__ = [
    "HealthConfig",
    "EvidenceRecorder",
    "HealthReport",
    "HealthSample",
    "Firing",
    "DETECTOR_NAMES",
    "build_detectors",
    "build_report",
    "render_report",
    "replay",
    "merge_streams",
    "resolve_run_stream",
    "shard_stream_paths",
    "crash_dump",
    "load_flight_bundle",
    "write_flight_bundle",
]
