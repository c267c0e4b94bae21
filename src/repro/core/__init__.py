"""The paper's contribution: the DLM dynamic layer management algorithm.

Phases: information collection (:mod:`repro.protocol.transport`), ratio
estimation (:mod:`.estimator`), scaled comparison (:mod:`.comparison`),
and promotion/demotion (:mod:`.decisions`, :mod:`.transitions`), driven
by :class:`DLMPolicy`.
"""

from .capacity import CapacityModel, bandwidth_only_model
from .comparison import ComparisonResult, scaled_fractions
from .config import DLMConfig
from .decisions import Action, Decision, decide
from .dlm import DLMPolicy
from .equations import (
    expected_leaf_count,
    expected_super_count,
    layer_size_ratio,
    mu_inappropriateness,
    optimal_leaf_neighbors,
)
from .estimator import RatioEstimator
from .policy import LayerPolicy
from .scaling import AdaptedParameters, ParameterScaler
from .transitions import TransitionExecutor

__all__ = [
    "CapacityModel",
    "bandwidth_only_model",
    "ComparisonResult",
    "scaled_fractions",
    "DLMConfig",
    "Action",
    "Decision",
    "decide",
    "DLMPolicy",
    "expected_leaf_count",
    "expected_super_count",
    "layer_size_ratio",
    "mu_inappropriateness",
    "optimal_leaf_neighbors",
    "RatioEstimator",
    "LayerPolicy",
    "AdaptedParameters",
    "ParameterScaler",
    "TransitionExecutor",
]
