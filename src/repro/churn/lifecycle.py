"""The churn driver: binds arrivals, deaths, and the layer policy.

Besides capacity and lifetime, each arrival is stamped *eligible* or not
(with probability ``eligible_fraction``) -- modeling the non-capacity
super-peer requirements of the Gnutella Ultrapeer proposal the paper
cites in §2 (reachability, operating system).  Policies receive the
flag and must keep ineligible peers out of the super-layer.

Implements the paper's population model (§5): cold start, warm-up growth
to the designated size, then death-replacement (constant population).
Per-peer capacity and lifetime are sampled at join from the configured
distributions, whose means the scenario script may shift mid-run -- that
is how the Figures 4-8 dynamic workloads are produced.

Event flow:

* ``PEER_JOIN`` -- sample capacity/lifetime, ask the policy for a layer,
  wire the peer in, record its death in the :class:`DeathLedger` (which
  reserves the ``PEER_LEAVE`` seq but materializes no Event until the
  event queue's window reaches it).
* ``PEER_LEAVE`` -- remove the peer; if it was a super-peer, repair its
  orphans and the backbone; schedule an immediate replacement
  ``PEER_JOIN`` so the population holds.
* ``SCENARIO_SHIFT`` -- apply a distribution-mean shift.
"""

from __future__ import annotations

from typing import Optional

from ..context import SystemContext
from ..core.policy import LayerPolicy
from ..overlay.roles import ROLE_LEAF, ROLE_SUPER
from ..sim.events import Event, EventKind
from ..sim.scheduler import Simulator
from .arrivals import warmup_join_times
from .deaths import DeathLedger
from .distributions import BandwidthMixture, ScalableDistribution
from .scenarios import Scenario

__all__ = ["ChurnDriver"]

#: Payload marker on the warm-up chain's PEER_JOIN events.  Compared by
#: equality, not identity: checkpoints pickle payloads by value.
_BACKLOG = "warmup_backlog"


class ChurnDriver:
    """Drives joins, deaths, and scenario shifts against one context."""

    def __init__(
        self,
        ctx: SystemContext,
        policy: LayerPolicy,
        lifetimes: ScalableDistribution,
        capacities: ScalableDistribution,
        *,
        scenario: Optional[Scenario] = None,
        eligible_fraction: float = 1.0,
    ) -> None:
        if not 0 < eligible_fraction <= 1:
            raise ValueError(
                f"eligible_fraction must be in (0, 1], got {eligible_fraction}"
            )
        self.ctx = ctx
        self.policy = policy
        self.lifetimes = lifetimes
        self.capacities = capacities
        self.scenario = scenario
        self.eligible_fraction = eligible_fraction
        sim = ctx.sim
        # Both laws read a block ahead (DESIGN.md §8).  The eligibility
        # draw is the mixture's next uniform; any other law settles first.
        self._rng_life = life = sim.rng.prefetch("lifetime", lifetimes.block)
        self._rng_cap = cap = sim.rng.prefetch("capacity", capacities.block)
        self._next_life, self._next_cap = life.next, cap.next
        mixture = isinstance(capacities, BandwidthMixture)
        self._next_uniform = cap.next if mixture else lambda: cap.random()
        self._rng_arrivals = sim.rng.get("arrivals")
        self.death_ledger = DeathLedger(sim, ctx.overlay.store)
        sim.on(EventKind.PEER_JOIN, self._on_join)
        sim.on(EventKind.PEER_LEAVE, self._on_leave)
        sim.on(EventKind.SCENARIO_SHIFT, self._on_shift)
        if scenario is not None:
            for shift in scenario.sorted_shifts():
                sim.schedule_at(
                    shift.time,
                    EventKind.SCENARIO_SHIFT,
                    {"target": shift.target, "scale": shift.scale},
                )
        # Warm-up join times not yet scheduled, reversed (pop() ascends).
        self._join_backlog: list[float] = []
        # Run counters.
        self.joins = 0
        self.deaths = 0

    # -- population ------------------------------------------------------
    def populate(self, n: int, *, warmup: float = 100.0) -> None:
        """Schedule the warm-up growth to ``n`` peers.

        The join times are drawn (and the RNG stream consumed) upfront,
        but with a positive warm-up window they are *scheduled* as a
        chain -- each warm-up join schedules its successor -- so the
        queue holds one pending warm-up join instead of ``n`` Event
        objects (~180MB of transient high-water at the million-peer
        scale).  ``warmup = 0`` keeps the all-upfront path: its joins
        all land at one instant, where chaining would reorder them
        against their own zero-delay cascade events.
        """
        times = warmup_join_times(n, warmup, self._rng_arrivals, start=self.ctx.now)
        if warmup == 0:
            for t in times:
                self.ctx.sim.schedule_at(t, EventKind.PEER_JOIN)
            return
        times.reverse()
        self._join_backlog = times
        self._advance_backlog()

    def _advance_backlog(self) -> None:
        if self._join_backlog:
            self.ctx.sim.schedule_at(
                self._join_backlog.pop(), EventKind.PEER_JOIN, _BACKLOG
            )

    def spawn_now(self) -> None:
        """Schedule one extra join at the current time."""
        self.ctx.sim.schedule(0.0, EventKind.PEER_JOIN)

    # -- handlers ------------------------------------------------------------
    def _on_join(self, sim: Simulator, event: Event) -> None:
        # Chain the next warm-up join *before* this join's cascade runs,
        # mirroring the schedule-all-upfront ordering it replaces.
        if event.payload == _BACKLOG:
            self._advance_backlog()
        capacity, lifetime, eligible = self._draw_peer()
        role = self.policy.role_for_new_peer(capacity, eligible=eligible)
        ctx = self.ctx
        peer = ctx.join.join(sim.now, capacity, lifetime, role=role, eligible=eligible)
        # The death rides in the store's ``dv``/``dseq`` columns (not an
        # Event on the heap: a million far-future deaths cost ~200MB as
        # objects) and its payload is the bare pid -- a shared int, not
        # a fresh one-key dict per peer.
        store, slot = peer._store, peer._slot
        death = store.join_time[slot] + store.lifetime[slot]  # Peer.death_time
        self.death_ledger.schedule(slot, peer.pid, death)
        if store.role[slot] == ROLE_LEAF:
            ctx.overhead.record_leaf_join(store.n_super_links[slot])
        self.joins += 1
        self.policy.on_peer_joined(peer)

    def _draw_peer(self) -> tuple:
        """A joining peer's capacity, lifetime and eligibility, in draw order."""
        capacity = self.capacities.take(self._next_cap)
        lifetime = self.lifetimes.take(self._next_life)
        fraction = self.eligible_fraction
        return capacity, lifetime, fraction >= 1.0 or self._next_uniform() < fraction

    def _on_leave(self, sim: Simulator, event: Event) -> None:
        self.kill_peer(event.payload)

    def kill_peer(self, pid: int) -> bool:
        """Remove a peer at its own death and spawn its replacement.

        Releases the death's ledger row, runs the super-death repair
        path, and schedules the replacement join that holds the
        population.  Returns False if the peer was already gone.
        """
        peer = self.ctx.overlay.get(pid)
        if peer is None:
            return False
        self.death_ledger.cancel(peer._slot)
        was_super = peer._store.role[peer._slot] == ROLE_SUPER
        orphans, former_supers = self.ctx.overlay.remove_peer(pid)
        if was_super:
            report = self.ctx.maintenance.after_super_death(orphans, former_supers)
            self.ctx.overhead.record_super_death(
                len(orphans), report.leaf_reconnections
            )
        self.deaths += 1
        self.policy.on_peer_left(pid)
        self.spawn_now()
        return True

    def _on_shift(self, sim: Simulator, event: Event) -> None:
        target = event.payload["target"]
        scale = event.payload["scale"]
        if target == "lifetime":
            self.lifetimes.set_scale(scale)
        elif target == "capacity":
            self.capacities.set_scale(scale)
        else:  # pragma: no cover - Shift validates targets already
            raise ValueError(f"unknown shift target {target!r}")

    # -- checkpointing -------------------------------------------------------
    def snapshot(self) -> dict:
        """Driver state: counters, pending deaths (by event seq), and the
        distributions' applied shift scales.

        Scenario *progress* needs no explicit capture: pending shifts
        live in the event queue, and already-applied ones are exactly the
        ``scale`` values recorded here.  (At restore the re-wired driver's
        ``__init__`` schedules the full shift list again, but those
        wiring-time events are discarded wholesale when the restored
        queue replaces them.)
        """
        store = self.ctx.overlay.store
        dseq, pid_col = store.dseq, store.pid
        leave_events = sorted(
            (pid_col[s], dseq[s]) for s in store.live_slots().tolist() if dseq[s] >= 0
        )
        return {
            "joins": self.joins,
            "deaths": self.deaths,
            "leave_events": leave_events,
            "join_backlog": list(self._join_backlog),
            "lifetime_scale": self.lifetimes.scale,
            "capacity_scale": self.capacities.scale,
        }

    def restore(self, state: dict, sim: Simulator) -> None:
        """Re-own pending deaths from a restored queue.

        Each death is reclaimed straight into the ``dv``/``dseq``
        columns (no Event materializes), keeping the restore path as
        lean as the steady state it resumes into.
        """
        self.joins = state["joins"]
        self.deaths = state["deaths"]
        peer = self.ctx.overlay.peer
        for pid, seq in state["leave_events"]:
            self.death_ledger.adopt(peer(pid)._slot, seq, sim)
        self._join_backlog = list(state["join_backlog"])
        self.lifetimes.set_scale(state["lifetime_scale"])
        self.capacities.set_scale(state["capacity_scale"])
