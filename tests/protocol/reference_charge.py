"""The eager ledger charge, the oracle of ``MessageLedger.charge``.

``MessageLedger.charge`` counts a plan's charges after its first and
folds them into the counters when something reads them.  This is the
charge it replaced: every entry of the plan recorded into the counters
at once, one :meth:`MessageLedger.record` per entry, in entry order.
``tests/reference_system.py`` installs it for a whole run.
"""

from __future__ import annotations

from repro.protocol.accounting import MessageLedger

__all__ = ["eager_charge"]


def eager_charge(ledger: MessageLedger, plan) -> None:
    """Charge every entry of ``plan`` now."""
    for name, count, size, pig in plan.entries:
        ledger._counts[name] += count
        if pig:
            ledger._piggybacked[name] += count
        ledger._bytes[name] += size
