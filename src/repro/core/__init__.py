"""The paper's contribution: the DLM dynamic layer management algorithm.

Phases: information collection (:mod:`repro.protocol.transport`), ratio
estimation (:mod:`.estimator`), scaled comparison (:mod:`.comparison`),
and promotion/demotion (:mod:`.decisions`, :mod:`.transitions`), driven
by :class:`DLMPolicy`.
"""

from .capacity import CapacityModel, bandwidth_only_model
from .comparison import ComparisonResult, compare_against, scaled_fractions
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
from .related_set import RelatedSetView, leaf_related_set
from .scaling import AdaptedParameters, ParameterScaler
from .transitions import TransitionExecutor

__all__ = [
    "CapacityModel",
    "bandwidth_only_model",
    "ComparisonResult",
    "compare_against",
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
    "RelatedSetView",
    "leaf_related_set",
    "AdaptedParameters",
    "ParameterScaler",
    "TransitionExecutor",
]
