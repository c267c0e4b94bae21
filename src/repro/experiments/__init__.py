"""Experiment harnesses reproducing every table and figure of the paper.

The package namespace is the run path only -- configs, the runner and
checkpoints -- so a process that runs one simulation imports no figure,
sweep or report.  Everything else is imported from its own module: the
artifacts from :mod:`.registry` (the ``repro`` CLI's table, indexed in
DESIGN.md section 3), the report from :mod:`.report`, the sweeps from
:mod:`.sweeps`, :mod:`.replication` and :mod:`.tournament`.
"""

from .checkpoint import (
    CheckpointError,
    CheckpointManager,
    config_hash,
    resume_run,
)
from .configs import ExperimentConfig, SearchConfig, bench_config, table2_config
from .runner import RunResult, default_policy_factory, run_experiment

__all__ = [
    "CheckpointError",
    "CheckpointManager",
    "config_hash",
    "resume_run",
    "ExperimentConfig",
    "SearchConfig",
    "bench_config",
    "table2_config",
    "RunResult",
    "default_policy_factory",
    "run_experiment",
]
