"""Phase 4: the promotion/demotion decision rule.

A leaf-peer promotes when *both* Y values are small enough (it beats most
super-peers it knows on both metrics); a super-peer demotes when *both* Y
values are large enough (most of its leaves beat it on both metrics).
The conjunction is the paper's: capacity and age are disjoint metrics and
a peer must qualify on each.  The rule runs inline at the end of each
verdict (:class:`repro.core.dlm.DLMPolicy`); this module holds its
result types.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .comparison import ComparisonResult
from .scaling import AdaptedParameters

__all__ = ["Action", "Decision"]


class Action(enum.Enum):
    """Outcome of one DLM evaluation."""

    NONE = "none"
    PROMOTE = "promote"
    DEMOTE = "demote"


@dataclass(slots=True)
class Decision:
    """An action with the evidence that produced it (for tracing/tests);
    not frozen, like :class:`ComparisonResult`.  ``params`` is the µ
    memo's shared, frozen :class:`AdaptedParameters`."""

    action: Action
    y: ComparisonResult
    params: AdaptedParameters
