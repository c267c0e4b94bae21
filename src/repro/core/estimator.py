"""Phase 2: estimating the layer-size-ratio inappropriateness µ.

No peer knows the global ratio; the estimator exploits the fact that,
because neighbor selection is random, the leaf-neighbor counts of
super-peers reflect the current global ratio: the average ``l_nn`` equals
``m · η_current``, so

    µ = log(l_nn / k_l) = log(η_current / η_target)

up to sampling noise.  A super-peer uses its *own* ``l_nn`` (local
knowledge: the size of its leaf adjacency); a leaf-peer averages the
``l_nn`` values its related set's supers *reported* -- carried in the
view built from observations, never read from live state.  A view with
members but no delivered ``l_nn`` observations yields ``None`` (the
evaluator defers; a mean over zero observations would fabricate µ=µ_min
from the floor).
"""

from __future__ import annotations

from ..overlay.peer import Peer
from .config import DLMConfig
from .equations import mu_inappropriateness
from .related_set import RelatedSetView

__all__ = ["RatioEstimator"]


class RatioEstimator:
    """Computes µ for either role from local observations."""

    def __init__(self, config: DLMConfig) -> None:
        self.config = config

    def mu_for_super(self, peer: Peer) -> float:
        """µ from the super-peer's own leaf-neighbor count.

        ``l_nn`` is the store's degree column -- no adjacency container
        is touched (a leaf-less super never allocates one).
        """
        l_nn = int(peer._store.n_leaf_links[peer._slot])
        return mu_inappropriateness(l_nn, self.config.k_l)

    def mu_for_leaf(self, view: RelatedSetView) -> float | None:
        """µ from the mean observed ``l_nn`` over G(l).

        None when G is empty or no member's ``l_nn`` has been observed.
        """
        if len(view) == 0 or not view.leaf_counts:
            return None
        return mu_inappropriateness(view.mean_leaf_count, self.config.k_l)
