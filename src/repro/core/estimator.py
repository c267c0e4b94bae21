"""Phase 2: estimating the layer-size-ratio inappropriateness µ.

No peer knows the global ratio; the estimator exploits the fact that,
because neighbor selection is random, the leaf-neighbor counts of
super-peers reflect the current global ratio: the average ``l_nn`` equals
``m · η_current``, so

    µ = log(l_nn / k_l) = log(η_current / η_target)

up to sampling noise.  A super-peer uses its *own* ``l_nn`` (local
knowledge: the size of its leaf adjacency) -- :class:`RatioEstimator`
below.  A leaf-peer averages the ``l_nn`` values its related set's supers
*reported*; that mean is accumulated in the same walk over G(l) that
gathers the comparison values
(:meth:`repro.core.dlm.DLMPolicy._evaluate_leaf`) and goes through the
same :func:`~repro.core.equations.mu_inappropriateness`.  With members
but no delivered ``l_nn`` observation there is no µ (the evaluator
defers; a mean over zero observations would fabricate µ=µ_min from the
floor).
"""

from __future__ import annotations

from ..overlay.peer import Peer
from .config import DLMConfig
from .equations import mu_inappropriateness

__all__ = ["RatioEstimator"]


class RatioEstimator:
    """Computes a super-peer's µ from its own leaf count."""

    def __init__(self, config: DLMConfig) -> None:
        self.config = config

    def mu_for_super(self, peer: Peer) -> float:
        """µ from the super-peer's own leaf-neighbor count.

        ``l_nn`` is the store's degree column -- no adjacency container
        is touched (a leaf-less super never allocates one).
        """
        l_nn = peer._store.n_leaf_links[peer._slot]
        return mu_inappropriateness(l_nn, self.config.k_l)
