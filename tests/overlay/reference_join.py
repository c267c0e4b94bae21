"""The per-call join chain, the oracle of the fused leaf join.

``JoinProcedure.connect_leaf`` draws with ``IndexedSet._fresh`` and
links every pick in one ``Overlay.link_leaf`` frame, which writes the
``sn``/``ln``/``ct``/degree columns and calls the listeners inline, and
``ChurnDriver._on_join`` reads the new row's columns.  This is the shape
it replaced, one step per call: :func:`on_join` reads the joined peer
through its view (``death_time``, ``is_leaf``), :func:`join` ->
``Overlay.add_peer`` -> :func:`connect_leaf` -> ``Overlay.random_supers``
-> ``Overlay.connect`` per pick, whose ``_notify_link`` fires the link
and then the connection listeners.

The driver takes each joining peer's capacity and lifetime out of
blocks drawn ahead (``ScalableDistribution.take`` over a ``DrawAhead``
of ``block``).  :func:`sample_one` is the per-call draw it replaced, and
:func:`on_join` draws through it, one generator call per value.

``tests/reference_system.py`` installs :func:`on_join`, :func:`join` and
:func:`connect_leaf` at the seams of the same names for a whole run.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional

from repro.churn.distributions import (
    BandwidthMixture,
    LogNormalDistribution,
    ScalableDistribution,
)
from repro.churn.lifecycle import _BACKLOG, ChurnDriver
from repro.overlay.bootstrap import JoinProcedure
from repro.overlay.peer import Peer
from repro.overlay.roles import Role
from repro.overlay.topology import OverlayError

__all__ = ["connect_leaf", "join", "on_join", "sample_one"]


def sample_one(law: ScalableDistribution, rng) -> float:
    """One sample of ``law`` at its scale, drawn from ``rng`` call by
    call: ``law.sample(rng, 1)[0]``, and the scalar forms the join path
    used for the two default laws."""
    if isinstance(law, BandwidthMixture):
        # ``_sample_base`` at n = 1 without the arrays: bisect_right is
        # searchsorted(side="right"), the jitter math the same IEEE ops.
        center, jit = law._class_list[bisect_right(law._cdf_list, rng.random())]
        low = 1.0 - jit
        return law.scale * (center * (low + rng.random() * ((1.0 + jit) - low)))
    if isinstance(law, LogNormalDistribution):
        # ``size=None`` and ``size=1`` run the same C sampler once.
        return law.scale * rng.lognormal(law.mu, law.sigma)
    return float(law.sample(rng, 1)[0])


def on_join(churn: ChurnDriver, sim, event) -> None:
    """``ChurnDriver._on_join``, drawing call by call and reading the new
    peer through its view."""
    if event.payload == _BACKLOG:
        churn._advance_backlog()
    capacity = sample_one(churn.capacities, churn._rng_cap)
    lifetime = sample_one(churn.lifetimes, churn._rng_life)
    eligible = (
        churn.eligible_fraction >= 1.0
        or churn._rng_cap.random() < churn.eligible_fraction
    )
    role = churn.policy.role_for_new_peer(capacity, eligible=eligible)
    peer = churn.ctx.join.join(
        sim.now, capacity, lifetime, role=role, eligible=eligible
    )
    store, slot = peer._store, peer._slot
    churn.death_ledger.schedule(slot, peer.pid, peer.death_time)
    if peer.is_leaf:
        churn.ctx.overhead.record_leaf_join(store.n_super_links[slot])
    churn.joins += 1
    churn.policy.on_peer_joined(peer)


def join(
    jp: JoinProcedure,
    now: float,
    capacity: float,
    lifetime: float,
    *,
    pid: Optional[int] = None,
    role: Optional[Role] = None,
    eligible: bool = True,
) -> Peer:
    """``JoinProcedure.join``: the row by ``add_peer``, then the links."""
    if pid is None:
        pid = jp._next_id
        jp._next_id = pid + 1
    if role is None:
        cold_start = jp.overlay.n_super < jp.seed_supers
        role = Role.SUPER if cold_start else Role.LEAF
    overlay = jp.overlay
    peer = overlay.add_peer(pid, role, capacity, now, lifetime, eligible=eligible)
    if role is Role.SUPER:
        for sid in overlay.random_supers(jp.rng, jp.k_s, exclude=(pid,)):
            overlay.connect(pid, sid)
    else:
        jp.connect_leaf(pid, jp.m)
    return peer


def connect_leaf(jp: JoinProcedure, pid: int, want: int) -> List[int]:
    """``JoinProcedure.connect_leaf``: one sampler call, one ``connect``
    per pick."""
    overlay = jp.overlay
    if pid not in overlay.leaf_ids._index:
        raise OverlayError(f"connect_leaf: pid {pid} is not a leaf here")
    exclude = set(overlay.store.sn[overlay._peers[pid]._slot])
    exclude.add(pid)
    chosen = overlay.random_supers(jp.rng, want, exclude=exclude)
    for sid in chosen:
        overlay.connect(pid, sid)
    return chosen
