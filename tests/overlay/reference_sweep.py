"""Reference models for :class:`repro.overlay.maintenance.Maintenance`'s
repair passes, the oracles of ``tests/properties/test_sweep_props.py``.

``reference_reconnect_orphans`` is the per-orphan loop
``reconnect_orphans`` ran before a pass was planned from one draw:
guard, sample and connect one orphan at a time.  ``reference_sweep`` is
the full scan ``sweep`` ran before it became repair by exception: that
loop over every leaf in registry order, whether or not the leaf can gain
a link, then one ``ensure_super_links`` call per super.  Neither goes
through ``Maintenance``'s own leaf pass.
"""

from __future__ import annotations

from typing import Iterable

from repro.overlay.maintenance import Maintenance, RepairReport
from repro.overlay.peerstore import ROLE_LEAF

__all__ = ["reference_sweep", "reference_reconnect_orphans"]


def reference_sweep(maint: Maintenance) -> RepairReport:
    """What one maintenance sweep does, the slow way."""
    report = RepairReport()
    for pid in list(maint.overlay.leaf_ids):
        report.merge(reference_reconnect_orphans(maint, (pid,), links_each=maint.m))
    for pid in list(maint.overlay.super_ids):
        report.super_reconnections += maint.ensure_super_links(pid)
    return report


def reference_reconnect_orphans(
    maint: Maintenance, orphans: Iterable[int], *, links_each: int = 1
) -> RepairReport:
    """What one orphan pass does, one sampler call per orphan."""
    report = RepairReport()
    store = maint.overlay.store
    for lid in orphans:
        peer = maint.overlay.get(lid)
        if peer is None or store.role[peer._slot] != ROLE_LEAF:
            continue
        slot = peer._slot
        want = min(links_each, max(0, maint.m - int(store.n_super_links[slot])))
        if want:
            report.leaf_reconnections += len(maint.join.connect_leaf(lid, want))
    return report
