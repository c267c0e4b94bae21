"""DLM configuration.

Collects the protocol-given target ratio η (the paper assumes "the value
of η is given by the protocol, and every participating peer of the
network knows this value", §3), the degree parameters of Table 2, and the
knobs of the µ-adaptation that the paper describes qualitatively
(see DESIGN.md "Interpretation decisions" for the exact formulas).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .equations import optimal_leaf_neighbors

__all__ = ["DLMConfig"]


@dataclass(frozen=True, slots=True)
class DLMConfig:
    """All DLM parameters.

    Attributes
    ----------
    eta:
        Target layer size ratio η = n_leaf / n_super (Table 2: 40).
    m:
        Super links per leaf (Table 2: 2).
    k_s:
        Backbone links per super (Table 2: 3).
    alpha:
        Gain of the scale-parameter adaptation ``X(µ) = exp(-alpha µ)``.
    beta:
        Gain of the threshold adaptation ``Z(µ) = z_base (1 + beta µ)``.
    z_promote_base / z_demote_base:
        Baseline promotion/demotion thresholds at µ = 0.  A leaf promotes
        when both Y values fall *below* the promotion threshold (it beats
        most supers it knows); a super demotes when both Y values rise
        *above* the demotion threshold (most of its leaves beat it).
        The gap between them is deliberate hysteresis.
    x_min, x_max, z_min, z_max:
        Clamps keeping the adaptive parameters in sane ranges.
    min_related_set:
        Minimum |G| for a comparison-based decision.  Must allow 1: at
        cold start the network has a single seed super-peer, so every
        leaf's related set has size 1 and a larger floor would deadlock
        bootstrap (no leaf could ever promote).
    min_eval_interval:
        Minimum time between two evaluations of the same peer.  Purely a
        cost guard with no behavioral effect at the defaults (actions
        are separately gated by the cooldown): without it, a bootstrap
        hub serving tens of thousands of leaves is re-evaluated -- at
        O(l_nn) each -- on every one of its connection events, making
        cold start quadratic in n.  0 disables.
    transition_cooldown:
        Minimum time between role changes of one peer.  Doubles as the
        stabilizer of the µ estimator: a super-peer's ``l_nn`` only
        reflects the global ratio once it has been in role long enough to
        accumulate its share of leaf links, so rapid role turnover makes
        every peer's µ wildly noisy (calibration notes in DESIGN.md).
    force_demote_mu:
        A super-peer whose own µ falls below this (far too many supers,
        e.g. it holds almost no leaves and cannot build a related set)
        demotes on ratio evidence alone, subject to the cooldown and
        ``force_demote_prob``.  Set to ``-inf`` to disable.
    force_demote_prob:
        Per-evaluation probability of a forced demotion (damping so a
        glut of empty supers does not demote in lockstep).
    min_supers:
        Hard floor on the super-layer size; demotions never go below it.
    leaf_g_current_only:
        A4 ablation switch: restrict a leaf's related set G(l) to its
        current super links instead of the paper's since-join contact
        history (smaller sample, noisier µ).
    action_prob:
        Probability that a PROMOTE/DEMOTE decision is acted on at one
        evaluation.  µ is a *global* signal observed by everyone, so
        undamped peers respond in lockstep and the layer sizes bang-bang
        around the target; acting probabilistically desynchronizes them
        (each real peer would evaluate on its own clock anyway).
    event_driven:
        Phase-1 trigger policy: evaluate on connection creation (paper
        default).  When False, only the sweeps evaluate.
    periodic_interval:
        Interval of the periodic *information-exchange* refresh (the
        paper's alternative Phase-1 policy, ablation A3).  It charges
        refresh traffic to the message ledger.  ``None`` (default)
        disables it -- the paper found event-driven strictly better.
    evaluation_interval:
        Interval of the local re-evaluation sweep.  Evaluation is free
        local computation on already-collected information (no messages
        are charged), but without it a peer whose links never change is
        never reconsidered -- e.g. in a degenerate one-super network no
        leaf ever gets a second connection event, deadlocking bootstrap.
        ``None`` disables it (pure connection-event triggering).
    """

    eta: float = 40.0
    m: int = 2
    k_s: int = 3
    alpha: float = 2.0
    beta: float = 2.0
    z_promote_base: float = 0.3
    z_demote_base: float = 0.7
    x_min: float = 0.05
    x_max: float = 20.0
    z_min: float = 0.02
    z_max: float = 0.98
    min_related_set: int = 1
    transition_cooldown: float = 60.0
    min_eval_interval: float = 1.0
    force_demote_mu: float = math.log(0.25)
    force_demote_prob: float = 0.25
    min_supers: int = 2
    action_prob: float = 0.15
    leaf_g_current_only: bool = False
    event_driven: bool = True
    periodic_interval: float | None = None
    evaluation_interval: float | None = 20.0

    def __post_init__(self) -> None:
        if self.eta <= 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.k_s < 1:
            raise ValueError(f"k_s must be >= 1, got {self.k_s}")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be >= 0")
        if not 0 < self.z_promote_base < 1 or not 0 < self.z_demote_base < 1:
            raise ValueError("threshold bases must be in (0, 1)")
        if not 0 < self.x_min <= 1 <= self.x_max:
            raise ValueError("need x_min <= 1 <= x_max with x_min > 0")
        if not 0 < self.z_min < self.z_max < 1:
            raise ValueError("need 0 < z_min < z_max < 1")
        if self.min_related_set < 1:
            raise ValueError("min_related_set must be >= 1")
        if not 0 <= self.force_demote_prob <= 1:
            raise ValueError("force_demote_prob must be in [0, 1]")
        if not 0 < self.action_prob <= 1:
            raise ValueError("action_prob must be in (0, 1]")
        if self.min_supers < 1:
            raise ValueError("min_supers must be >= 1")
        if self.min_eval_interval < 0:
            raise ValueError("min_eval_interval must be >= 0")
        if self.periodic_interval is not None and self.periodic_interval <= 0:
            raise ValueError("periodic_interval must be positive or None")
        if self.evaluation_interval is not None and self.evaluation_interval <= 0:
            raise ValueError("evaluation_interval must be positive or None")

    @property
    def k_l(self) -> float:
        """Optimal leaf-neighbor count ``k_l = m·η`` (Equation a)."""
        return optimal_leaf_neighbors(self.m, self.eta)
