"""Phase-3/4 parameter adaptation: X(µ) and Z(µ).

The paper specifies directions only; DESIGN.md records the formulas we
use and why:

* ``X(µ) = clamp(exp(-alpha·µ), x_min, x_max)`` -- when the system needs
  more super-peers (µ > 0) the scale factor shrinks, so fewer members of
  ``G`` appear to beat the local peer: super-peers' Y drops below the
  demotion threshold (fewer demotions) and leaf-peers' Y drops below the
  promotion threshold (more promotions).  Both effects push the ratio
  back toward η.  For µ < 0 the same formula runs in reverse.

* ``Z(µ) = clamp(z_base · (1 + beta·µ), z_min, z_max)`` for both the
  promotion threshold (leaf promotes iff Y < Z) and the demotion
  threshold (super demotes iff Y > Z).  Raising both when µ > 0 promotes
  more and demotes less, reinforcing the X effect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import DLMConfig

__all__ = ["AdaptedParameters", "ParameterScaler"]


@dataclass(frozen=True, slots=True)
class AdaptedParameters:
    """The µ-adapted knobs used by one evaluation."""

    mu: float
    x_capa: float
    x_age: float
    z_promote: float
    z_demote: float


class ParameterScaler:
    """Computes the adapted parameters for a given µ."""

    _MEMO_LIMIT = 4096  #: entries kept before the memo is cleared

    def __init__(self, config: DLMConfig) -> None:
        self.config = config
        # µ -> AdaptedParameters: µ is log(l_nn / k_l) of an integer (or
        # an integer sum over a small count), so runs see a few hundred
        # distinct values; the config is frozen, so entries never go stale.
        self._memo: dict = {}

    def scale_factor(self, mu: float) -> float:
        """X(µ), clamped."""
        cfg = self.config
        return min(max(math.exp(-cfg.alpha * mu), cfg.x_min), cfg.x_max)

    def promote_threshold(self, mu: float) -> float:
        """Z_promote(µ), clamped."""
        cfg = self.config
        z = cfg.z_promote_base * (1.0 + cfg.beta * mu)
        return min(max(z, cfg.z_min), cfg.z_max)

    def demote_threshold(self, mu: float) -> float:
        """Z_demote(µ), clamped."""
        cfg = self.config
        z = cfg.z_demote_base * (1.0 + cfg.beta * mu)
        return min(max(z, cfg.z_min), cfg.z_max)

    def adapt(self, mu: float) -> AdaptedParameters:
        """All adapted parameters for one evaluation.

        The paper adapts ``X_capa`` and ``X_age`` by the same rule; they
        are reported separately because the metrics are disjoint and an
        extension could weight them differently.
        """
        memo = self._memo
        params = memo.get(mu)
        if params is None:
            if len(memo) >= self._MEMO_LIMIT:
                memo.clear()
            x = self.scale_factor(mu)
            params = memo[mu] = AdaptedParameters(
                mu=mu,
                x_capa=x,
                x_age=x,
                z_promote=self.promote_threshold(mu),
                z_demote=self.demote_threshold(mu),
            )
        return params
