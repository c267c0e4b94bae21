"""repro -- a reproduction of "Dynamic Layer Management in Super-peer
Architectures" (Zhuang, Liu, Xiao; ICPP 2004).

The package implements the paper's DLM algorithm end to end on top of a
discrete-event super-peer overlay simulator built for the purpose:

* :mod:`repro.sim` -- deterministic discrete-event engine;
* :mod:`repro.overlay` -- the two-layer super-peer overlay substrate;
* :mod:`repro.churn` -- session/capacity distributions and churn driving;
* :mod:`repro.protocol` -- Table-1 messages and overhead accounting;
* :mod:`repro.core` -- **DLM itself** (the paper's contribution);
* :mod:`repro.baselines` -- preconfigured-threshold and other baselines;
* :mod:`repro.search` -- content model, super-peer indexes, flooding;
* :mod:`repro.metrics` -- layer statistics, PAO/NLCO ledger, summaries;
* :mod:`repro.experiments` -- one harness per paper table/figure;
* :mod:`repro.analysis` -- graph statistics and ratio convergence;
* :mod:`repro.telemetry` -- metrics registry, span timing, DLM decision
  audit log, and trace export (zero-overhead when disabled).

Quickstart::

    from repro import quick_network
    result = quick_network(n=2000, eta=40.0, horizon=600.0, seed=7)
    print(result.overlay.layer_size_ratio())
"""

from .context import SystemContext, build_context
from .core import DLMConfig, DLMPolicy
from .experiments import (
    ExperimentConfig,
    RunResult,
    bench_config,
    run_experiment,
    table2_config,
)
from .telemetry import Telemetry, TelemetryConfig

__version__ = "1.0.0"

__all__ = [
    "SystemContext",
    "build_context",
    "DLMConfig",
    "DLMPolicy",
    "ExperimentConfig",
    "RunResult",
    "bench_config",
    "run_experiment",
    "table2_config",
    "quick_network",
    "Telemetry",
    "TelemetryConfig",
    "__version__",
]


def quick_network(
    n: int = 2000,
    eta: float = 40.0,
    horizon: float = 600.0,
    seed: int = 0,
) -> RunResult:
    """Run a DLM-managed network with default churn and return the result.

    The one-call entry point used by the quickstart example: Table-2
    degree parameters, log-normal lifetimes, the 4-class bandwidth mix,
    steady replacement churn.
    """
    base = bench_config()
    warmup = min(base.warmup, horizon / 4.0)
    cfg = base.with_(n=n, horizon=horizon, warmup=warmup, seed=seed, eta=eta)
    return run_experiment(cfg)
