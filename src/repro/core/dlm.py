"""The DLM policy: the paper's contribution, wired end to end.

Per §4, every peer independently runs the four phases:

1. **Information collection** -- event-driven on connection creation,
   carried by :class:`~repro.protocol.transport.InfoExchange`; an
   optional periodic refresh sweep reproduces the paper's alternative
   policy (ablation A3).  The policy does not assume instant knowledge:
   it registers a *completion listener* with the exchange and evaluates
   a peer when that peer's requests resolve -- immediately in omniscient
   mode, on response arrival in message-driven mode.
2. **Ratio estimation** -- µ from ``l_nn`` observations
   (:class:`~repro.core.estimator.RatioEstimator`).
3. **Scaled comparison** -- Y counters against the related set with
   µ-adapted scale factors (:mod:`repro.core.comparison`).
4. **Promotion/demotion** -- threshold rule with µ-adapted thresholds,
   executed through :class:`~repro.core.transitions.TransitionExecutor`.

All metric values of phases 2-3 are read through the context's
:class:`~repro.protocol.knowledge.KnowledgeSource`; when required
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

from typing import List, Optional, Sequence, Set

import numpy as np

from ..context import SystemContext
from ..overlay.peer import Peer
from ..overlay.roles import Role
from ..protocol.knowledge import OmniscientKnowledge
from ..sim.events import EventKind
from ..sim.processes import PeriodicProcess
from .comparison import ComparisonResult, compare_against, compare_leaves_observed
from .config import DLMConfig
from .decisions import Action, Decision, decide
from .equations import mu_inappropriateness
from .estimator import RatioEstimator
from .policy import LayerPolicy
from .related_set import leaf_related_set
from .scaling import ParameterScaler
from .transitions import TransitionExecutor

__all__ = ["DLMPolicy"]

# Batch-plan entry kinds (see ``_plan_chunk``).  Each entry is a tuple
# whose layout depends on the kind; ``_apply_entry`` is the only reader.
_SKIP = 0  # peer gone, or the min-eval-interval gate rejected it
_COUNT = 1  # evaluated but decision-free (cooldown / ineligible / |G| gate)
_FORCED = 2  # super on the ratio-only forced-demotion branch
_DECIDE = 3  # full comparison ran; carries the Decision
_DEFER = 4  # knowledge incomplete (never taken in omniscient mode)


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
        self._batch_mode = False
        # Pids the transition being applied touched; a set only mid-batch.
        self._touched: Optional[Set[int]] = None
        self._sweep: Optional[PeriodicProcess] = None
        self._eval_sweep: Optional[PeriodicProcess] = None
        # Telemetry handles, cached at install time so the hot path pays
        # one attribute load + None check when the plane is disabled.
        self._audit = None
        self._span = None
        self._batch_hist = None
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
        if ctx.telemetry.enabled:
            self._batch_hist = ctx.telemetry.registry.histogram("dlm.batch_size")
        # Vectorized evaluation applies when every gate input is locally
        # readable; message-driven (faults) mode keeps the scalar oracle.
        self._batch_mode = (
            self.config.batch_eval and type(ctx.knowledge) is OmniscientKnowledge
        )
        ctx.overlay.add_connection_listener(self._on_connection)
        if self._batch_mode:
            ctx.overlay.add_link_listener(self._on_link_touch)
            ctx.overlay.add_role_listener(self._on_role_touch)
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

    def role_for_new_peer(
        self, capacity: float, *, eligible: bool = True
    ) -> Optional[Role]:
        """§5: "The new peer is always assigned to leaf layer first"."""
        return None  # default behavior: leaf (super only during cold start)

    def on_peer_left(self, pid: int) -> None:
        """Departure bookkeeping (the rate-limit column resets on slot
        reallocation, so there is nothing to drop here anymore)."""

    # -- phase 1: triggers ---------------------------------------------------
    def _on_connection(self, a: int, b: int) -> None:
        # The exchange fires the completion listener (-> evaluation) for
        # both endpoints once their requests resolve.
        self.ctx.info.on_connection_created(a, b)

    def request_evaluation(self, pid: int) -> None:
        """Queue a deduplicated zero-delay evaluation of ``pid``.

        Requests coalesce: the first one schedules a single DLM_EVALUATE
        drain event and later ones (until it fires) just append to the
        drain list.  One join cascade used to schedule one event per
        touched endpoint; at 100k-peer scale those per-pid events were
        the single largest event population, so the drain batches them
        into one dispatch -- and, in omniscient mode, into one
        vectorized plan/apply pass.
        """
        if pid in self._pending:
            return
        self._pending.add(pid)
        if not self._drain:
            self.ctx.sim.schedule(0.0, EventKind.DLM_EVALUATE)
        self._drain.append(pid)

    def _on_evaluate_event(self, sim, event) -> None:
        drained = self._drain
        self._drain = []
        # Small drains (a typical join cascade touches a handful of
        # peers) stay scalar: the vectorized plan's numpy setup only
        # pays off past a few dozen peers, and the two paths produce
        # bit-identical verdicts either way.
        if self._batch_mode and len(drained) >= 64:
            self._evaluate_batch(drained, sim.now, unpend=True)
        else:
            pending = self._pending
            for pid in drained:
                pending.discard(pid)
                self.evaluate(pid)

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
        batch = self._batch_mode
        # The super sample must be drawn *after* the leaf evaluations ran:
        # a promotion executed in the leaf pass changes the super-id set
        # the sample indexes into (and the scalar path drew it there).
        with self._span("dlm.eval_sweep"):
            leaf_pids = ctx.overlay.leaf_ids.sample(rng, n_leaf)
            if batch:
                self._evaluate_batch(leaf_pids, now)
            else:
                for pid in leaf_pids:
                    self.evaluate(pid)
            super_pids = ctx.overlay.super_ids.sample(rng, n_super)
            if batch:
                self._evaluate_batch(super_pids, now)
            else:
                for pid in super_pids:
                    self.evaluate(pid)

    # -- phases 2-4: evaluation --------------------------------------------
    def evaluate(self, pid: int) -> Optional[Decision]:
        """Run phases 2-4 for one peer; returns the decision (or None if
        the peer is gone or still in cooldown)."""
        ctx = self.ctx
        peer = ctx.overlay.get(pid)
        if peer is None:
            return None
        now = ctx.now
        # Columnar prologue: one slot resolution, then scalar column loads
        # instead of Peer property dispatch (this path runs per zero-delay
        # evaluation event, millions of times per run).
        store = peer._store
        slot = peer._slot
        interval = self.config.min_eval_interval
        if interval > 0.0:
            if now - store.last_eval[slot] < interval:
                return None
            store.last_eval[slot] = now
        self.evaluations += 1
        if now - store.role_change_time[slot] < self.config.transition_cooldown:
            return None
        is_super = bool(store.role[slot])
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
                    mu=params.mu,
                    g_size=y.g_size,
                    y_capa=y.y_capa,
                    y_age=y.y_age,
                    x_capa=params.x_capa,
                    x_age=params.x_age,
                    z_promote=params.z_promote,
                    z_demote=params.z_demote,
                )
            self._act(peer, decision)
        return decision

    def _defer(
        self,
        peer: Peer,
        reason: str,
        *,
        g_size: Optional[int] = None,
        missing: Optional[int] = None,
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
            audit.record_defer(
                self.ctx.now,
                peer.pid,
                "super" if peer.is_super else "leaf",
                reason,
                g_size=g_size,
                missing=missing,
            )
        self.ctx.info.ensure_fresh(peer.pid)

    def _evaluate_leaf(self, peer: Peer, now: float) -> Optional[Decision]:
        if not peer.eligible:
            return None  # §2 capability requirements gate promotion
        ctx = self.ctx
        view = leaf_related_set(
            ctx.knowledge, peer, now, current_only=self.config.leaf_g_current_only
        )
        if len(view) < self.config.min_related_set:
            if view.missing:
                self._defer(
                    peer,
                    "missing_members",
                    g_size=len(view),
                    missing=view.missing,
                )
            return None
        mu = self.estimator.mu_for_leaf(view)
        if mu is None:
            # Members are observed but no l_nn has been delivered yet
            # (message-driven mode only): never fabricate a ratio.
            self._defer(peer, "no_mu", g_size=len(view), missing=view.missing)
            return None
        params = self.scaler.adapt(mu)
        y = compare_against(
            view, peer.capacity, peer.age(now), params.x_capa, params.x_age
        )
        return decide(Role.LEAF, y, params)

    def _evaluate_super(self, peer: Peer, now: float) -> Optional[Decision]:
        ctx = self.ctx
        mu = self.estimator.mu_for_super(peer)
        params = self.scaler.adapt(mu)
        if len(peer.leaf_neighbors) >= self.config.min_related_set:
            # Fused fast path: G(s) is the current leaf neighbors, so the
            # Y counters are computed in one observed pass over the
            # adjacency without materializing a RelatedSetView.
            y, _missing = compare_leaves_observed(
                ctx.knowledge,
                peer,
                peer.leaf_neighbors,
                now,
                params.x_capa,
                params.x_age,
            )
            if y is None or y.g_size < self.config.min_related_set:
                # Enough leaf links, too few *observed* leaves
                # (message-driven mode only): refresh and retry.
                self._defer(
                    peer,
                    "unobserved_leaves",
                    g_size=0 if y is None else y.g_size,
                    missing=_missing,
                )
                return None
            return decide(Role.SUPER, y, params)
        # Too few leaves for a comparison (|G(s)| = l_nn here); fall
        # back to the ratio-only forced-demotion rule.
        if (
            mu < self.config.force_demote_mu
            and ctx.sim.rng.get("dlm-forced").random() < self.config.force_demote_prob
        ):
            self.forced_demotions += 1
            executed = self._executor.demote(peer.pid)
            if executed:
                self.demotions += 1
            audit = self._audit
            if audit is not None:
                audit.record_forced_demotion(now, peer.pid, mu=mu, executed=executed)
        return None

    def _act(self, peer: Peer, decision: Decision) -> bool:
        """Execute the decision (subject to damping); True iff a
        transition actually ran (the batch evaluator's replan signal)."""
        if decision.action is Action.NONE:
            return False
        if (
            self.config.action_prob < 1.0
            and self.ctx.sim.rng.get("dlm-damping").random() >= self.config.action_prob
        ):
            return False
        assert self._executor is not None
        if decision.action is Action.PROMOTE:
            if self._executor.promote(peer.pid):
                self.promotions += 1
                return True
            return False
        if self._executor.demote(peer.pid):
            self.demotions += 1
            return True
        return False

    # -- batch evaluation ----------------------------------------------------
    #
    # The sweep's sampled peers are evaluated as one vectorized batch when
    # knowledge is omniscient (DESIGN.md §8).  The batch is *plan/apply*:
    # ``_plan_chunk`` computes every peer's verdict from current overlay
    # state with no side effects -- gathering the related-set members of
    # all planned peers into one concatenated index array and running the
    # scaled comparisons as segment reductions -- then ``_apply_entry``
    # commits the verdicts serially in sample order (counters, audit
    # records, RNG draws, transitions).  A plan is only invalidated by an
    # *executed* transition (roles, links, and contact sets change); when
    # one runs, the remaining entries of the chunk that read anything it
    # changed are replanned (the touched-set rule below), so the batch
    # path produces the exact verdict/audit/RNG sequence of the scalar
    # oracle (property- and golden-tested).
    #
    # Touched-set rule (argued in DESIGN.md §8): while a batch applies,
    # listeners collect both endpoints of every link event and, per role
    # change, the peer plus its super neighbors.  An entry is stale iff
    # its pid -- or, for a leaf entry that reached the vector phase, one
    # of its members -- is in that set.
    #
    # Bit-exactness notes: every per-member multiply/compare is the same
    # IEEE-double elementwise operation the scalar loop performs; hit and
    # usable counts are exact integer segment sums; Y fractions use the
    # same ``int / int`` division; and the transcendental µ/X/Z math runs
    # through the identical scalar ``math.log``/``math.exp`` helpers per
    # peer, never a vectorized approximation.

    #: Peers planned per batch chunk (bounds replan waste after a
    #: transition while keeping the numpy segments large).
    _BATCH_CHUNK = 256

    def _evaluate_batch(
        self, pids: Sequence[int], now: float, *, unpend: bool = False
    ) -> None:
        """Evaluate ``pids`` in sample order via chunked plan/apply.

        ``unpend=True`` (the zero-delay drain) releases each pid's
        ``_pending`` dedup hold right before its entry applies, mirroring
        the scalar drain's discard-then-evaluate order: a request that
        arrives mid-drain for a not-yet-applied pid still dedups, one
        for an already-applied pid re-enqueues.
        """
        hist = self._batch_hist
        if hist is not None:
            hist.observe(len(pids))
        pending = self._pending
        self._touched = set()
        for start in range(0, len(pids), self._BATCH_CHUNK):
            plan = self._plan_chunk(pids[start : start + self._BATCH_CHUNK], now)
            for done, entry in enumerate(plan, 1):
                if unpend:
                    pending.discard(entry[1])
                if self._apply_entry(entry, now):
                    # A transition executed: planned verdicts that read
                    # what it touched are pre-transition state.
                    self._replan_stale(plan, done, now)
        self._touched = None

    def _on_link_touch(self, a: int, b: int, created: bool) -> None:
        if self._touched is not None:
            self._touched.update((a, b))

    def _on_role_touch(self, peer: Peer, old_role: Role) -> None:
        if self._touched is not None:
            self._touched.update((peer.pid, *peer._store.sn[peer._slot]))

    def _replan_stale(self, plan: List[tuple], start: int, now: float) -> None:
        """Replan, in place, the entries of ``plan[start:]`` that read a
        touched pid (entries are independent, so the stale subset plans
        to what replanning the whole tail would give)."""
        store = self.ctx.overlay.store
        role_col = store.role
        member_col = store.sn if self.config.leaf_g_current_only else store.ct
        touched = self._touched
        stale = []
        for k in range(start, len(plan)):
            _, pid, peer, _, slot = plan[k]
            # Only vector-phase entries carry the peer; an untouched pid
            # still has the role and member tuple it was planned with.
            if pid in touched or (
                peer is not None
                and not role_col[slot]
                and not touched.isdisjoint(member_col[slot])
            ):
                stale.append(k)
        if stale:
            fresh = self._plan_chunk([plan[k][1] for k in stale], now)
            for k, entry in zip(stale, fresh):
                plan[k] = entry
        touched.clear()

    def _plan_chunk(self, pids: Sequence[int], now: float) -> List[tuple]:
        """Side-effect-free verdict plan for ``pids`` (one entry each)."""
        ctx = self.ctx
        store = ctx.overlay.store
        get = ctx.overlay.get
        cfg = self.config
        interval = cfg.min_eval_interval
        cooldown = cfg.transition_cooldown
        min_g = cfg.min_related_set
        k_l = cfg.k_l
        adapt = self.scaler.adapt
        role_col = store.role
        rc_col = store.role_change_time
        elig_col = store.eligible
        nll_col = store.n_leaf_links
        cap_col = store.capacity
        join_col = store.join_time
        ln_col = store.ln
        member_col = store.sn if cfg.leaf_g_current_only else store.ct

        plan: List[tuple] = []
        # Parallel per-planned-peer accumulators for the vector phases.
        sup_rows: List[int] = []
        sup_meta: List[tuple] = []
        sup_parts: List[np.ndarray] = []
        sup_counts: List[int] = []
        sup_x: List[float] = []
        sup_params: List = []
        sup_cap: List[float] = []
        sup_age: List[float] = []
        leaf_rows: List[int] = []
        leaf_meta: List[tuple] = []
        leaf_parts: List[np.ndarray] = []
        leaf_counts: List[int] = []
        leaf_cap: List[float] = []
        leaf_age: List[float] = []

        # -- vectorized gate pass: membership, rate limit, cooldown,
        # role, and eligibility for the whole chunk in a handful of
        # array expressions (each compare is the same IEEE-double op the
        # scalar gates perform).  ``tolist`` turns the masks into plain
        # Python scalars so the assembly loop below pays no per-element
        # numpy scalar overhead.
        arr = np.fromiter(pids, np.int64, count=len(pids))
        slots = store.slots_of(arr)
        present = slots >= 0
        safe = np.where(present, slots, 0)
        if interval > 0.0:
            admit = present & ((now - store.last_eval[safe]) >= interval)
        else:
            admit = present
        admit_l = admit.tolist()
        cooled_l = ((now - rc_col[safe]) >= cooldown).tolist()
        sup_l = (role_col[safe] != 0).tolist()
        elig_l = elig_col[safe].tolist()
        lnn_l = nll_col[safe].tolist()
        caps_l = cap_col[safe].tolist()
        ages_l = (now - join_col[safe]).tolist()
        slot_l = slots.tolist()

        for i, pid in enumerate(pids):
            if not admit_l[i]:
                # Gone, or the min-eval-interval gate rejected it.
                plan.append((_SKIP, pid, None, None, -1))
                continue
            slot = slot_l[i]
            if not cooled_l[i]:
                plan.append((_COUNT, pid, None, (), slot))
                continue
            if sup_l[i]:
                l_nn = lnn_l[i]
                mu = mu_inappropriateness(l_nn, k_l)
                if l_nn >= min_g:
                    params = adapt(mu)
                    sup_rows.append(len(plan))
                    sup_meta.append((pid, get(pid), slot))
                    sup_parts.append(
                        np.fromiter(ln_col[slot], np.int64, count=l_nn)
                    )
                    sup_counts.append(l_nn)
                    sup_x.append(params.x_capa)
                    sup_params.append(params)
                    sup_cap.append(caps_l[i])
                    sup_age.append(ages_l[i])
                    plan.append(None)  # filled by the vector phase
                elif mu < cfg.force_demote_mu:
                    plan.append((_FORCED, pid, get(pid), mu, slot))
                else:
                    plan.append((_COUNT, pid, None, (), slot))
            else:
                if not elig_l[i]:
                    plan.append((_COUNT, pid, None, (), slot))
                    continue
                members = member_col[slot]
                cnt = len(members)
                if cnt == 0:
                    plan.append((_COUNT, pid, None, (), slot))
                    continue
                leaf_rows.append(len(plan))
                leaf_meta.append((pid, get(pid), slot))
                leaf_parts.append(np.fromiter(members, np.int64, count=cnt))
                leaf_counts.append(cnt)
                leaf_cap.append(caps_l[i])
                leaf_age.append(ages_l[i])
                plan.append(None)

        # -- vector phase: supers vs their leaf neighbors -------------------
        if sup_rows:
            ids = sup_parts[0] if len(sup_parts) == 1 else np.concatenate(sup_parts)
            counts = np.asarray(sup_counts, dtype=np.int64)
            starts = np.zeros(len(counts), dtype=np.int64)
            np.cumsum(counts[:-1], out=starts[1:])
            slots = store.slots_of(ids)
            present = slots >= 0
            safe = np.where(present, slots, 0)
            ok = present & (role_col[safe] == 0)  # usable: live leaves
            caps = cap_col[safe]
            ages = now - join_col[safe]
            x_rep = np.repeat(np.asarray(sup_x), counts)
            hc = (caps * x_rep > np.repeat(np.asarray(sup_cap), counts)) & ok
            ha = (ages * x_rep > np.repeat(np.asarray(sup_age), counts)) & ok
            usable = np.add.reduceat(ok.astype(np.intp), starts)
            hits_c = np.add.reduceat(hc.astype(np.intp), starts)
            hits_a = np.add.reduceat(ha.astype(np.intp), starts)
            for i, row in enumerate(sup_rows):
                pid, peer, slot = sup_meta[i]
                u = int(usable[i])
                if u < min_g:
                    # Adjacency invariants make this unreachable in an
                    # omniscient run; mirror the scalar defer regardless.
                    plan[row] = (
                        _DEFER,
                        pid,
                        peer,
                        ("unobserved_leaves", u, 0),
                        slot,
                    )
                    continue
                y = ComparisonResult(
                    y_capa=int(hits_c[i]) / u, y_age=int(hits_a[i]) / u, g_size=u
                )
                plan[row] = (
                    _DECIDE,
                    pid,
                    peer,
                    (decide(Role.SUPER, y, sup_params[i]), (), True),
                    slot,
                )

        # -- vector phase: leaves vs their contacted supers -----------------
        if leaf_rows:
            ids = (
                leaf_parts[0] if len(leaf_parts) == 1 else np.concatenate(leaf_parts)
            )
            counts = np.asarray(leaf_counts, dtype=np.int64)
            starts = np.zeros(len(counts), dtype=np.int64)
            np.cumsum(counts[:-1], out=starts[1:])
            slots = store.slots_of(ids)
            present = slots >= 0
            safe = np.where(present, slots, 0)
            ok = present & (role_col[safe] != 0)  # usable: live supers
            usable = np.add.reduceat(ok.astype(np.intp), starts)
            dead_counts = counts - usable
            lnn_sum = np.add.reduceat(
                np.where(ok, nll_col[safe].astype(np.int64), 0), starts
            )
            caps = cap_col[safe]
            ages = now - join_col[safe]
            ends = starts + counts
            xs = np.zeros(len(leaf_rows))
            pending: List[tuple] = []
            for i, row in enumerate(leaf_rows):
                pid, peer, slot = leaf_meta[i]
                if dead_counts[i]:
                    seg = slice(starts[i], ends[i])
                    dead = tuple(int(s) for s in ids[seg][~ok[seg]])
                else:
                    dead = ()
                u = int(usable[i])
                if u < min_g:
                    # Departed members still get pruned at apply time
                    # (omniscient knowledge has no missing members, so
                    # the scalar path returns None here, never defers).
                    plan[row] = (_COUNT, pid, peer, dead, slot)
                    continue
                # Every usable super observation carries l_nn, so µ is
                # the mean over exactly the usable members (exact integer
                # sum, same division as the scalar estimator).
                mu = mu_inappropriateness(int(lnn_sum[i]) / u, k_l)
                params = adapt(mu)
                xs[i] = params.x_capa
                pending.append((i, row, pid, peer, params, dead, u, slot))
            if pending:
                x_rep = np.repeat(xs, counts)
                hc = (caps * x_rep > np.repeat(np.asarray(leaf_cap), counts)) & ok
                ha = (ages * x_rep > np.repeat(np.asarray(leaf_age), counts)) & ok
                hits_c = np.add.reduceat(hc.astype(np.intp), starts)
                hits_a = np.add.reduceat(ha.astype(np.intp), starts)
                for i, row, pid, peer, params, dead, u, slot in pending:
                    y = ComparisonResult(
                        y_capa=int(hits_c[i]) / u,
                        y_age=int(hits_a[i]) / u,
                        g_size=u,
                    )
                    plan[row] = (
                        _DECIDE,
                        pid,
                        peer,
                        (decide(Role.LEAF, y, params), dead, False),
                        slot,
                    )
        return plan

    def _apply_entry(self, entry: tuple, now: float) -> bool:
        """Commit one planned verdict; True iff a transition executed."""
        kind = entry[0]
        if kind == _SKIP:
            return False
        pid = entry[1]
        if self.config.min_eval_interval > 0.0:
            self.ctx.overlay.store.last_eval[entry[4]] = now
        self.evaluations += 1
        if kind == _COUNT:
            prune = entry[3]
            if prune:
                self._prune_contacts(entry[2], prune)
            return False
        if kind == _FORCED:
            mu = entry[3]
            if (
                self.ctx.sim.rng.get("dlm-forced").random()
                < self.config.force_demote_prob
            ):
                self.forced_demotions += 1
                executed = self._executor.demote(pid)
                if executed:
                    self.demotions += 1
                audit = self._audit
                if audit is not None:
                    audit.record_forced_demotion(now, pid, mu=mu, executed=executed)
                return executed
            return False
        if kind == _DEFER:
            peer = entry[2]
            reason, g_size, missing = entry[3]
            self._defer(peer, reason, g_size=g_size, missing=missing)
            return False
        peer = entry[2]
        decision, prune, is_super = entry[3]
        if prune:
            self._prune_contacts(peer, prune)
        audit = self._audit
        if audit is not None:
            y, params = decision.y, decision.params
            audit.record_decision(
                now,
                pid,
                "super" if is_super else "leaf",
                decision.action.value,
                mu=params.mu,
                g_size=y.g_size,
                y_capa=y.y_capa,
                y_age=y.y_age,
                x_capa=params.x_capa,
                x_age=params.x_age,
                z_promote=params.z_promote,
                z_demote=params.z_demote,
            )
        return self._act(peer, decision)

    @staticmethod
    def _prune_contacts(peer: Peer, dead: Sequence[int]) -> None:
        """Drop departed/demoted members from a leaf's contact history,
        mirroring :func:`leaf_related_set`'s lazy pruning (including the
        non-vivifying observation-cache cleanup)."""
        contacted = peer.contacted_supers
        cache = peer._store.kn[peer._slot]
        for sid in dead:
            contacted.discard(sid)
            if cache is not None:
                cache.forget(sid)

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
        between a run and its restored twin, and restore writes through
        the pid->slot map anyway."""
        store = self.ctx.overlay.store
        live = store.live_slots()
        le = store.last_eval[live]
        sel = live[le > -np.inf]
        return sorted(
            (int(p), float(t))
            for p, t in zip(store.pid[sel], store.last_eval[sel])
        )

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
        store = self.ctx.overlay.store
        le = store.last_eval
        for pid, t in state["last_eval"]:
            s = store.slot(pid)
            if s >= 0:
                le[s] = t
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
