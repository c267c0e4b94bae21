"""The paper's §3 structural equations.

With ``n`` peers, ``n_s`` super-peers, ``n_l`` leaf-peers, each leaf
holding ``m`` super links and each super holding ``k_l`` leaf links on
average, counting the leaf--super edges from both sides gives

    n_s · k_l = n_l · m          =>   k_l = m · η          (Equation a)

and with ``n_s + n_l = n`` and ``η = n_l / n_s``,

    n_s = n / (1 + η)                                       (Equation b)

These are identities about averages: ``Overlay.check_invariants`` proves
every leaf link from both ends (Equation a), and Equation b at the target
η is the Figure 6 row's banded ``tail_ratio_error`` in other units.
"""

from __future__ import annotations

import math

__all__ = [
    "layer_size_ratio",
    "optimal_leaf_neighbors",
    "expected_super_count",
    "expected_leaf_count",
    "mu_inappropriateness",
]


def layer_size_ratio(n_leaf: int, n_super: int) -> float:
    """η = n_leaf / n_super; ``inf`` for an empty super-layer."""
    if n_leaf < 0 or n_super < 0:
        raise ValueError("counts must be non-negative")
    if n_super == 0:
        return float("inf")
    return n_leaf / n_super


def optimal_leaf_neighbors(m: int, eta: float) -> float:
    """Equation a: ``k_l = m · η``."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    return m * eta


def expected_super_count(n: int, eta: float) -> float:
    """Equation b: ``n_s = n / (1 + η)``."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    return n / (1.0 + eta)


def expected_leaf_count(n: int, eta: float) -> float:
    """Complement of Equation b: ``n_l = n·η / (1 + η)``."""
    return n - expected_super_count(n, eta)


def mu_inappropriateness(l_nn: float, k_l: float, *, floor: float = 0.25) -> float:
    """µ = log(l_nn / k_l), the ratio-inappropriateness signal (§4 Phase 2).

    Positive µ: super-peers carry more leaves than optimal, i.e. there are
    too *few* super-peers.  Negative µ: too many.

    ``l_nn = 0`` (a super-peer with no leaves at all) would be -inf; it is
    floored at ``log(floor / k_l)`` so downstream arithmetic stays finite
    while still signalling "far too many supers".
    """
    if k_l <= 0:
        raise ValueError(f"k_l must be positive, got {k_l}")
    if l_nn < 0:
        raise ValueError(f"l_nn must be >= 0, got {l_nn}")
    return math.log(max(l_nn, floor) / k_l)
