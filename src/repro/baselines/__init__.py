"""Layer-management baselines DLM is evaluated against.

* :class:`PreconfiguredPolicy` -- the paper's comparison target (fixed
  capacity threshold, Gnutella-0.6 style).
* :class:`RandomElectionPolicy` -- ratio-correct but capacity-blind.
* :class:`OraclePolicy` -- global-knowledge upper bound (extension E2).
* :class:`StaticPolicy` -- no management at all (negative control).
"""

from ..core.policy import LayerPolicy
from .oracle import OraclePolicy
from .preconfigured import DEFAULT_THRESHOLD, PreconfiguredPolicy
from .random_policy import RandomElectionPolicy
from .static import StaticPolicy

__all__ = [
    "LayerPolicy",
    "OraclePolicy",
    "DEFAULT_THRESHOLD",
    "PreconfiguredPolicy",
    "RandomElectionPolicy",
    "StaticPolicy",
]
