"""The DLM policy: the paper's contribution, wired end to end.

Per §4, every peer independently runs the four phases:

1. **Information collection** -- event-driven on connection creation,
   carried by :class:`~repro.protocol.transport.InfoExchange`; an
   optional periodic refresh sweep reproduces the paper's alternative
   policy (ablation A3).  The policy does not assume instant knowledge:
   it registers a *completion listener* with the exchange and evaluates
   a peer when that peer's requests resolve -- immediately in omniscient
   mode, on response arrival in message-driven mode.
2. **Ratio estimation** -- µ from ``l_nn`` observations: a super-peer's
   own leaf count (:class:`~repro.core.estimator.RatioEstimator`), a
   leaf-peer's mean over what the supers of G(l) reported.
3. **Scaled comparison** -- Y counters against the related set with
   µ-adapted scale factors (:mod:`repro.core.comparison`).  Phases 2-3
   are one pass per role from evidence to verdict: a leaf walks G(l)
   once (:meth:`DLMPolicy._evaluate_leaf` -- observe, prune the
   departed, sum ``l_nn``, compare), a super gathers its leaves' columns
   (:func:`~repro.core.comparison.compare_leaves_observed`); neither
   materializes the related set.
4. **Promotion/demotion** -- threshold rule with µ-adapted thresholds,
   executed through :class:`~repro.core.transitions.TransitionExecutor`.

All metric values of phases 2-3 are read through the context's
knowledge source (:mod:`repro.protocol.knowledge`); when required
observations are missing or stale the evaluation is *deferred* -- the
peer asks the exchange to refresh (:meth:`InfoExchange.ensure_fresh`)
and will be re-evaluated when the responses arrive.  The evaluator
never fabricates values for members it has not observed.

Evaluations triggered by a connection are *deferred* as zero-delay
simulator events (deduplicated per peer) rather than run inline; a
promotion/demotion creates further connections, and deferral keeps that
cascade iterative instead of recursive, exactly like real peers acting on
their next protocol tick.

Implementation-completion details beyond the paper's text (documented in
DESIGN.md):

* anti-flapping cooldown between role changes of one peer;
* a hard floor on the super-layer size;
* forced demotion for super-peers whose related set is too small to
  compare against but whose own µ says the super-layer is far too large
  (probabilistically damped so a glut of empty super-peers does not
  demote in lockstep).
"""

from __future__ import annotations

from typing import List, Optional, Set

import numpy as np

from ..context import SystemContext
from ..overlay.peer import Peer
from ..overlay.roles import ROLE_SUPER
from ..protocol.knowledge import UNKNOWN
from ..sim.events import EventKind
from ..sim.processes import PeriodicProcess
from .comparison import ComparisonResult, compare_leaves_observed
from .config import DLMConfig
from .decisions import Action, Decision
from .equations import mu_inappropriateness
from .estimator import RatioEstimator
from .policy import LayerPolicy
from .scaling import ParameterScaler
from .transitions import TransitionExecutor

__all__ = ["DLMPolicy"]

_PROMOTE, _DEMOTE, _NONE = Action.PROMOTE, Action.DEMOTE, Action.NONE


class DLMPolicy(LayerPolicy):
    """Dynamic Layer Management (paper §4)."""

    name = "dlm"

    #: How many ticks one evaluation interval is divided into (staggering).
    _SWEEP_SLICES = 10

    def __init__(self, config: Optional[DLMConfig] = None) -> None:
        super().__init__()
        self.config = config or DLMConfig()
        self.estimator = RatioEstimator(self.config)
        self.scaler = ParameterScaler(self.config)
        self._executor: Optional[TransitionExecutor] = None
        self._pending: Set[int] = set()
        # Zero-delay evaluation requests, in arrival order.  ``_pending``
        # is the O(1) dedup view of the same contents; one DLM_EVALUATE
        # drain event is outstanding iff the list is non-empty.
        self._drain: List[int] = []
        self._sweep: Optional[PeriodicProcess] = None
        self._eval_sweep: Optional[PeriodicProcess] = None
        # Telemetry handles, cached at install time so the hot path pays
        # one attribute load + None check when the plane is disabled.
        self._audit = None
        self._span = None
        # What every nudge resolves, bound once at install time: the
        # registry's own lookup, the clock as the scheduler advances it,
        # the scheduler, the knowledge plane a verdict reads through, and
        # the config's k_l (a property computing m·η).
        self._get = self._clock = self._sim = self._knowledge = self._k_l = None
        # Run counters (consumed by reports and tests).
        self.evaluations = 0
        self.promotions = 0
        self.demotions = 0
        self.forced_demotions = 0
        self.deferrals = 0

    # -- wiring --------------------------------------------------------------
    def _install(self, ctx: SystemContext) -> None:
        self._executor = TransitionExecutor(ctx, min_supers=self.config.min_supers)
        # NULL_TELEMETRY exposes audit=None, so disabled runs reduce every
        # audit hook below to a single `is not None` branch.
        self._audit = ctx.telemetry.audit
        self._span = ctx.telemetry.span
        self._get = ctx.overlay.get
        self._clock = ctx.sim.clock
        self._sim = ctx.sim
        self._knowledge = ctx.knowledge
        self._k_l = self.config.k_l
        # Phase 1 is the exchange's: it fires the completion listener
        # (-> evaluation) for both endpoints once their requests resolve.
        ctx.overlay.add_connection_listener(ctx.info.on_connection_created)
        ctx.sim.on(EventKind.DLM_EVALUATE, self._on_evaluate_event)
        if self.config.event_driven:
            # Evaluate when a peer's Phase-1 requests resolve: immediately
            # in omniscient mode, on response arrival in message-driven
            # mode.  The exchange fires this for both endpoints of every
            # new connection.
            ctx.info.add_completion_listener(self.request_evaluation)
        if self.config.periodic_interval is not None:
            self._sweep = PeriodicProcess(
                ctx.sim,
                self.config.periodic_interval,
                self._periodic_sweep,
                kind=EventKind.DLM_REFRESH,
            )
        if self.config.evaluation_interval is not None:
            # Stagger the sweep: a fine tick evaluates a random slice of
            # the population such that each peer is re-evaluated about
            # once per `evaluation_interval`.  Evaluating everyone at one
            # instant would synchronize responses to the shared µ signal
            # and bang-bang the layer sizes; staggering lets µ update
            # between batches, exactly as independent peer clocks would.
            tick = self.config.evaluation_interval / self._SWEEP_SLICES
            self._eval_sweep = PeriodicProcess(
                ctx.sim,
                tick,
                self._evaluation_sweep,
                kind="dlm_eval_sweep",
            )

    # -- phase 1: triggers ---------------------------------------------------
    def request_evaluation(self, pid: int) -> None:
        """Queue a deduplicated zero-delay evaluation of ``pid``.

        Requests coalesce: the first one schedules a single DLM_EVALUATE
        drain event and later ones (until it fires) just append to the
        drain list.  One join cascade used to schedule one event per
        touched endpoint; at 100k-peer scale those per-pid events were
        the single largest event population, so the drain batches them
        into one dispatch.
        """
        if pid in self._pending:
            return
        self._pending.add(pid)
        drain = self._drain
        if not drain:
            self._sim.schedule(0.0, EventKind.DLM_EVALUATE)
        drain.append(pid)

    def _on_evaluate_event(self, sim, event) -> None:
        drained = self._drain
        self._drain = []
        # Each pid's dedup hold is released right before it is evaluated:
        # a request arriving mid-drain for a not-yet-evaluated pid still
        # dedups, one for an already-evaluated pid re-enqueues.
        pending = self._pending
        try:
            for pid in drained:
                pending.discard(pid)
                self.evaluate(pid)
        except BaseException:
            # The pids behind the one that raised still hold their dedup
            # entry but sit in no list: put them back ahead of whatever
            # was requested mid-drain and make sure a drain event is
            # outstanding, so the two views agree again (a pid occurs
            # once per drain, so ``index`` finds the failing position).
            tail = drained[drained.index(pid) + 1 :]
            if tail:
                if not self._drain:
                    sim.schedule(0.0, EventKind.DLM_EVALUATE)
                self._drain[:0] = tail
            raise

    def _periodic_sweep(self, sim, now: float) -> None:
        """The periodic information-exchange policy (ablation A3).

        Refreshes every peer's neighbor information (charging the
        corresponding traffic) and re-evaluates everyone.
        """
        ctx = self.ctx
        with self._span("dlm.periodic_sweep"):
            for pid in list(ctx.overlay.leaf_ids):
                ctx.info.refresh_leaf(pid)
                self.request_evaluation(pid)
            for pid in list(ctx.overlay.super_ids):
                ctx.info.refresh_super(pid)
                self.request_evaluation(pid)

    def _evaluation_sweep(self, sim, now: float) -> None:
        """Local re-evaluation of a random population slice (no messages).

        Each tick evaluates ~1/:data:`_SWEEP_SLICES` of each layer, so a
        peer is reconsidered about once per ``evaluation_interval`` on
        average while actions stay spread over time.
        """
        ctx = self.ctx
        rng = ctx.sim.rng.get("dlm-sweep")
        n_leaf = max(1, len(ctx.overlay.leaf_ids) // self._SWEEP_SLICES)
        n_super = max(1, len(ctx.overlay.super_ids) // self._SWEEP_SLICES)
        # The super sample must be drawn *after* the leaf evaluations ran:
        # a promotion executed in the leaf pass changes the super-id set
        # the sample indexes into.
        with self._span("dlm.eval_sweep"):
            for pid in ctx.overlay.leaf_ids.sample(rng, n_leaf):
                self.evaluate(pid)
            for pid in ctx.overlay.super_ids.sample(rng, n_super):
                self.evaluate(pid)

    # -- phases 2-4: evaluation --------------------------------------------
    def evaluate(self, pid: int) -> Optional[Decision]:
        """Run phases 2-4 for one peer and return the decision.

        ``None`` comes from six exits, in this order: the peer is gone;
        it was evaluated less than ``min_eval_interval`` ago (rate
        limit); it changed role less than ``transition_cooldown`` ago
        (cooldown); it is a leaf not eligible for promotion; the verdict
        was deferred for missing Phase-1 knowledge; or the related set
        is too small to compare against -- a leaf's G(l), or a super's
        leaves, where the forced-demotion rule may demote it instead.
        ``repro profile evaluate`` (``profile._count_exits``) mirrors the
        first four guards in this order to split the exits.
        """
        peer = self._get(pid)
        if peer is None:
            return None
        now = self._clock._now
        # Columnar prologue: one slot resolution, then scalar column loads
        # instead of Peer property dispatch (this path runs per zero-delay
        # evaluation event, millions of times per run).
        store = peer._store
        slot = peer._slot
        config = self.config
        interval = config.min_eval_interval
        if interval > 0.0:
            if now - store.last_eval[slot] < interval:
                return None
            store.last_eval[slot] = now
        self.evaluations += 1
        if now - store.role_change_time[slot] < config.transition_cooldown:
            return None
        is_super = store.role[slot] == ROLE_SUPER
        if is_super:
            decision = self._evaluate_super(peer, now)
        else:
            decision = self._evaluate_leaf(peer, now)
        if decision is not None:
            audit = self._audit
            if audit is not None:
                y, params = decision.y, decision.params
                audit.record_decision(
                    now,
                    pid,
                    "super" if is_super else "leaf",
                    decision.action.value,
                    params.mu,
                    y.g_size,
                    y.y_capa,
                    y.y_age,
                    params.x_capa,
                    params.x_age,
                    params.z_promote,
                    params.z_demote,
                )
            self._act(peer, decision)
        return decision

    def _defer(
        self, pid: int, now: float, role: str, reason: str, g_size: int, missing: int
    ) -> None:
        """Phase-1 knowledge is incomplete: refresh instead of acting.

        The exchange's completion listener re-triggers the evaluation
        when the requested responses arrive (or permanently fail).
        ``reason`` names what was missing (audit-log vocabulary:
        ``missing_members`` / ``no_mu`` / ``unobserved_leaves``).
        """
        self.deferrals += 1
        audit = self._audit
        if audit is not None:
            audit.record_defer(now, pid, role, reason, g_size=g_size, missing=missing)
        self.ctx.info.ensure_fresh(pid)

    def _evaluate_leaf(self, peer: Peer, now: float) -> Optional[Decision]:
        """Phases 2-4 for a leaf in one frame: one walk over G(l), then
        the comparison loop and the Phase-4 rule inline.

        G(l) is the ``ct`` column (every super contacted since join), or
        the current links under ``leaf_g_current_only`` (ablation A4).
        Member values come through the knowledge source, never from live
        state; a member that has left or been demoted is dropped from
        ``ct`` and from the observation cache (DESIGN.md: ghosts would
        let a leaf compare itself against peers that no longer exist).
        """
        store = peer._store
        slot = peer._slot
        if not store.eligible[slot]:
            return None  # §2 capability requirements gate promotion
        config = self.config
        observe = self._knowledge.observe_super
        caps: List[float] = []
        ages: List[float] = []
        dead: List[int] = []
        missing = 0
        lnn_sum = 0
        lnn_n = 0
        for sid in (store.sn if config.leaf_g_current_only else store.ct)[slot]:
            obs = observe(peer, sid, now)
            if obs is None:
                dead.append(sid)
            elif obs is UNKNOWN:
                missing += 1
            else:
                cap, age, l_nn = obs
                caps.append(cap)
                ages.append(age)
                if l_nn is not None:
                    lnn_sum += l_nn
                    lnn_n += 1
        if dead:
            # Only the transport creates a cache: omniscient runs never
            # populate one, and pruning must not allocate one.
            cache = store.kn[slot]
            for sid in dead:
                store.ct_discard(slot, sid)
                if cache is not None:
                    cache.pop(sid, None)
        g_size = len(caps)
        if g_size < config.min_related_set:
            if missing:
                self._defer(peer.pid, now, "leaf", "missing_members", g_size, missing)
            return None
        if not lnn_n:
            # Members are observed but no l_nn has been delivered yet
            # (message-driven mode only): never fabricate a ratio.
            self._defer(peer.pid, now, "leaf", "no_mu", g_size, missing)
            return None
        # µ from the mean *observed* l_nn -- over observations, not members.
        params = self.scaler.adapt(mu_inappropriateness(lnn_sum / lnn_n, self._k_l))
        # Phase 3, the paper's pseudo-code (DESIGN.md §5 "Verdict path").
        own_cap = store.capacity[slot]
        own_age = now - store.join_time[slot]
        x_capa = params.x_capa
        x_age = params.x_age
        hits_c = 0
        hits_a = 0
        for cap, age in zip(caps, ages):
            if cap * x_capa > own_cap:
                hits_c += 1
            if age * x_age > own_age:
                hits_a += 1
        y_capa = hits_c / g_size
        y_age = hits_a / g_size
        # Phase 4: promote iff both fractions are under Z_promote(µ).
        z = params.z_promote
        action = _PROMOTE if y_capa < z and y_age < z else _NONE
        return Decision(action, ComparisonResult(y_capa, y_age, g_size), params)

    def _evaluate_super(self, peer: Peer, now: float) -> Optional[Decision]:
        config = self.config
        mu = self.estimator.mu_for_super(peer)
        params = self.scaler.adapt(mu)
        members = peer._store.ln[peer._slot]
        if members is not None and len(members) >= config.min_related_set:
            # G(s) is the current leaf neighbors, so the Y counters are
            # computed in one observed pass over the adjacency.
            y, missing = compare_leaves_observed(
                self._knowledge, peer, members, now, params.x_capa, params.x_age
            )
            if y is None or y.g_size < config.min_related_set:
                # Enough leaf links, too few *observed* leaves
                # (message-driven mode only): refresh and retry.
                self._defer(
                    peer.pid,
                    now,
                    "super",
                    "unobserved_leaves",
                    0 if y is None else y.g_size,
                    missing,
                )
                return None
            # Phase 4: demote iff both fractions are over Z_demote(µ).
            z = params.z_demote
            action = _DEMOTE if y.y_capa > z and y.y_age > z else _NONE
            return Decision(action, y, params)
        # Too few leaves for a comparison (|G(s)| = l_nn here); fall
        # back to the ratio-only forced-demotion rule.
        if (
            mu < config.force_demote_mu
            and self._sim.rng.get("dlm-forced").random() < config.force_demote_prob
        ):
            self.forced_demotions += 1
            executed = self._executor.demote(peer.pid)
            if executed:
                self.demotions += 1
            audit = self._audit
            if audit is not None:
                audit.record_forced_demotion(now, peer.pid, mu=mu, executed=executed)
        return None

    def _act(self, peer: Peer, decision: Decision) -> None:
        """Execute the decision (subject to damping)."""
        if decision.action is Action.NONE:
            return
        if (
            self.config.action_prob < 1.0
            and self._sim.rng.get("dlm-damping").random() >= self.config.action_prob
        ):
            return
        assert self._executor is not None
        if decision.action is Action.PROMOTE:
            if self._executor.promote(peer.pid):
                self.promotions += 1
        elif self._executor.demote(peer.pid):
            self.demotions += 1

    def stop(self) -> None:
        """Cancel the periodic sweeps (if any); used by harness teardown."""
        if self._sweep is not None:
            self._sweep.stop()
            self._sweep = None
        if self._eval_sweep is not None:
            self._eval_sweep.stop()
            self._eval_sweep = None

    # -- checkpointing -------------------------------------------------------
    def _last_eval_pairs(self) -> list:
        """``(pid, last_eval)`` for every live peer that has been
        rate-stamped.  The column's ``-inf`` sentinel means "never
        evaluated", which is the fresh-slot default on restore -- only
        real stamps need to travel in the checkpoint.  Sorted by pid:
        slot order is an allocation-history artifact that differs
        between a run and its restored twin, and restore resolves each
        pid through the overlay's registry anyway."""
        store = self.ctx.overlay.store
        live = store.live_slots()
        pid, le = store.pid, store.last_eval
        stamped = live[store.column("last_eval")[live] > -np.inf]
        return sorted((pid[s], le[s]) for s in stamped.tolist())

    def snapshot(self) -> dict:
        """Counters, dedup/rate-limit bookkeeping, and sweep processes.

        ``pending`` serializes the drain list in arrival order -- the
        coalesced DLM_EVALUATE event replays it in exactly that order,
        so a sorted canonical form would change the resumed trajectory.
        ``_pending`` is rebuilt from it (the two views hold identical
        contents between events).  The estimator and scaler are pure
        functions of config plus live overlay state -- nothing to capture.
        """
        return {
            "policy": self.name,
            "evaluations": self.evaluations,
            "promotions": self.promotions,
            "demotions": self.demotions,
            "forced_demotions": self.forced_demotions,
            "deferrals": self.deferrals,
            "pending": list(self._drain),
            "last_eval": self._last_eval_pairs(),
            "sweep": None if self._sweep is None else self._sweep.snapshot(),
            "eval_sweep": (
                None if self._eval_sweep is None else self._eval_sweep.snapshot()
            ),
        }

    def restore(self, state: dict, sim) -> None:
        """Restore counters and re-link sweep events from the queue."""
        super().restore(state, sim)
        self.evaluations = state["evaluations"]
        self.promotions = state["promotions"]
        self.demotions = state["demotions"]
        self.forced_demotions = state["forced_demotions"]
        self.deferrals = state["deferrals"]
        self._drain = list(state["pending"])
        self._pending = set(self._drain)
        overlay = self.ctx.overlay
        le = overlay.store.last_eval
        get = overlay.get
        for pid, t in state["last_eval"]:
            peer = get(pid)
            if peer is not None:
                le[peer._slot] = t
        for process, proc_state in (
            (self._sweep, state["sweep"]),
            (self._eval_sweep, state["eval_sweep"]),
        ):
            if (process is None) != (proc_state is None):
                raise ValueError(
                    "DLM sweep configuration differs between the checkpoint "
                    "and the restored config (periodic/evaluation intervals "
                    "must enable the same processes)"
                )
            if process is not None:
                process.restore(proc_state, sim)
