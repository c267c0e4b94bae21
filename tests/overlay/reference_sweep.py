"""Reference model for :meth:`repro.overlay.maintenance.Maintenance.sweep`.

The full scan ``sweep`` ran before it became repair by exception, kept
as the oracle the differential test compares against
(``tests/properties/test_sweep_props.py``): one ``ensure_leaf_links``
call per leaf in registry order, whether or not the leaf can gain a
link, then one ``ensure_super_links`` call per super.
"""

from __future__ import annotations

from repro.overlay.maintenance import Maintenance, RepairReport

__all__ = ["reference_sweep"]


def reference_sweep(maint: Maintenance) -> RepairReport:
    """What one maintenance sweep does, the slow way."""
    report = RepairReport()
    for pid in list(maint.overlay.leaf_ids):
        report.leaf_reconnections += maint.ensure_leaf_links(pid)
    for pid in list(maint.overlay.super_ids):
        report.super_reconnections += maint.ensure_super_links(pid)
    return report
