"""Figures 2 and 3: the promotion/demotion mechanics, demonstrated.

The paper illustrates the two transitions on a six-peer example --
leaf ``L`` connected to super-peers ``S1``/``S2`` alongside leaves
``I``/``F``/``G`` (Figure 2), and super-peer ``S`` with backbone
neighbors ``S1``..``S3`` plus leaves (Figure 3).  This module rebuilds
those exact scenarios on the real overlay, applies the real transition
executor, and renders the before/after adjacency -- so the mechanics the
unit tests verify are also visible as the paper draws them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..context import SystemContext, build_context
from ..core.transitions import TransitionExecutor
from ..overlay.roles import Role
from ..util.tables import render_table

__all__ = ["MechanicsResult", "run_figure2", "run_figure3", "run_figure23"]

#: Human labels for the paper's peers, by construction order.
_FIG2_LABELS = ("S1", "S2", "I", "F", "G", "L")
_FIG3_LABELS = ("S1", "S2", "S3", "S", "I", "F", "G")


@dataclass(frozen=True)
class MechanicsResult:
    """Adjacency snapshots around one transition."""

    title: str
    labels: Dict[int, str]
    before: List[Tuple[str, str, str]]  # (peer, role, neighbors)
    after: List[Tuple[str, str, str]]
    orphans: Tuple[str, ...]

    def render(self) -> str:
        """Side-by-side before/after tables."""
        parts = [
            render_table(
                ["peer", "role", "links"], self.before, title=f"{self.title} — before"
            ),
            "",
            render_table(
                ["peer", "role", "links"], self.after, title=f"{self.title} — after"
            ),
        ]
        if self.orphans:
            parts.append(
                "orphaned leaves (each makes 1 reconnect): "
                f"{', '.join(self.orphans)}"
            )
        return "\n".join(parts)


def _snapshot(ctx: SystemContext, labels: Dict[int, str]):
    rows = []
    for pid in sorted(labels):
        peer = ctx.overlay.get(pid)
        if peer is None:
            continue
        nbrs = sorted({*peer.super_neighbors, *peer.leaf_neighbors})
        rows.append(
            (
                labels[pid],
                str(peer.role),
                " ".join(labels.get(n, f"#{n}") for n in nbrs),
            )
        )
    return rows


def _add(ctx: SystemContext, pid: int, role: Role, capacity: float) -> int:
    """Insert an unwired peer (the join procedure would auto-connect)."""
    ctx.overlay.add_peer(pid, role, capacity, join_time=0.0, lifetime=500.0)
    return pid


def run_figure2(seed: int = 0) -> MechanicsResult:
    """Figure 2: promotion of leaf L keeps its connections to S1/S2."""
    ctx = build_context(seed=seed)
    s1 = _add(ctx, 0, Role.SUPER, 100.0)
    s2 = _add(ctx, 1, Role.SUPER, 100.0)
    i = _add(ctx, 2, Role.LEAF, 10.0)
    f = _add(ctx, 3, Role.LEAF, 10.0)
    g = _add(ctx, 4, Role.LEAF, 10.0)
    l = _add(ctx, 5, Role.LEAF, 500.0)
    ctx.overlay.connect(s1, s2)
    # The paper's wiring: I and F hang off S1, G off S2, L off both.
    for leaf, sups in ((i, (s1,)), (f, (s1,)), (g, (s2,)), (l, (s1, s2))):
        for sid in sups:
            ctx.overlay.connect(leaf, sid)
    labels = dict(zip((s1, s2, i, f, g, l), _FIG2_LABELS))
    before = _snapshot(ctx, labels)
    TransitionExecutor(ctx).promote(l)
    ctx.overlay.check_invariants()
    after = _snapshot(ctx, labels)
    return MechanicsResult(
        title="Figure 2 — promotion of leaf L",
        labels=labels,
        before=before,
        after=after,
        orphans=(),
    )


def run_figure3(seed: int = 0) -> MechanicsResult:
    """Figure 3: demotion of S keeps m=2 super links, orphans its leaves."""
    ctx = build_context(seed=seed)
    s1 = _add(ctx, 0, Role.SUPER, 100.0)
    s2 = _add(ctx, 1, Role.SUPER, 100.0)
    s3 = _add(ctx, 2, Role.SUPER, 100.0)
    s = _add(ctx, 3, Role.SUPER, 5.0)
    i = _add(ctx, 4, Role.LEAF, 10.0)
    f = _add(ctx, 5, Role.LEAF, 10.0)
    g = _add(ctx, 6, Role.LEAF, 10.0)
    # The paper's wiring: S's leaves hang off S only.
    for a, b in ((s, s1), (s, s2), (s, s3), (s1, s2), (s2, s3)):
        ctx.overlay.connect(a, b)
    for leaf in (i, f, g):
        ctx.overlay.connect(leaf, s)
    labels = dict(zip((s1, s2, s3, s, i, f, g), _FIG3_LABELS))
    before = _snapshot(ctx, labels)
    counters_before = ctx.overhead.counters
    TransitionExecutor(ctx).demote(s)
    ctx.overlay.check_invariants()
    after = _snapshot(ctx, labels)
    delta = ctx.overhead.counters.minus(counters_before)
    orphan_labels = tuple(
        labels[pid]
        for pid in (i, f, g)
        # every former leaf of S was orphaned and reconnected once
    )
    assert delta.demotion_orphans == 3
    return MechanicsResult(
        title="Figure 3 — demotion of super-peer S (m=2)",
        labels=labels,
        before=before,
        after=after,
        orphans=orphan_labels,
    )


@dataclass(frozen=True)
class Figure23Result:
    """Both mechanics demonstrations."""

    promotion: MechanicsResult
    demotion: MechanicsResult

    def render(self) -> str:
        """Both figures, stacked."""
        return self.promotion.render() + "\n\n" + self.demotion.render()

    def check_shape(self) -> dict:
        """The paper's structural claims about the two transitions."""
        promo_after = {row[0]: row for row in self.promotion.after}
        demo_after = {row[0]: row for row in self.demotion.after}
        return {
            "promoted_peer_is_super": promo_after["L"][1] == "super",
            "promoted_keeps_s1_s2": promo_after["L"][2].split()[:2] == ["S1", "S2"],
            "demoted_peer_is_leaf": demo_after["S"][1] == "leaf",
            "demoted_kept_links": len(demo_after["S"][2].split()),
            "orphans": len(self.demotion.orphans),
        }


def run_figure23(seed: int = 0) -> Figure23Result:
    """Run both demonstrations."""
    return Figure23Result(promotion=run_figure2(seed), demotion=run_figure3(seed))
