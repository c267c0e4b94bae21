"""Warm-up arrival times.

The paper's population model (§5): "the simulation starts cold ... the
size of the network increases with new peers joining until [it] reaches
the designated size.  Then with time going, whenever a peer dies, a new
peer is created and joins the network, thereby the network size does not
change."  Warm-up joins are spread over an interval so ages are staggered
rather than all zero; the death-replacement coupling lives in
:class:`~repro.churn.lifecycle.ChurnDriver`.
"""

from __future__ import annotations

from typing import List

import numpy as np

__all__ = ["warmup_join_times"]


def warmup_join_times(
    n: int, warmup: float, rng: np.random.Generator, *, start: float = 0.0
) -> List[float]:
    """``n`` join times uniform over ``[start, start + warmup]``, sorted.

    ``warmup = 0`` degenerates to all-at-``start`` (useful in unit tests).
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    if warmup == 0:
        return [start] * n
    times = start + rng.uniform(0.0, warmup, size=n)
    times.sort()
    return [float(t) for t in times]

