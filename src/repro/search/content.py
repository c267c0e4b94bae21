"""Shared-content model.

Peers share files drawn from a global catalog with Zipf-like popularity,
the standard model for P2P file-sharing workloads (the measurement
studies the paper builds on -- Gummadi et al., Saroiu et al. -- report
heavily skewed, Zipf-ish object popularity).  Queries target objects by
the same popularity law, so popular objects are both easier to find and
asked for more often -- the regime in which super-peer flooding shines.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right

import numpy as np

__all__ = ["ContentCatalog"]


class ContentCatalog:
    """A fixed universe of objects with Zipf(``s``) popularity.

    Object ``k`` (0-based rank) has probability ``∝ 1 / (k+1)^s``.

    Parameters
    ----------
    n_objects:
        Catalog size.
    s:
        Zipf exponent; 0 degenerates to uniform popularity.
    """

    def __init__(self, n_objects: int = 10_000, s: float = 0.8) -> None:
        if n_objects < 1:
            raise ValueError(f"n_objects must be >= 1, got {n_objects}")
        if s < 0:
            raise ValueError(f"s must be >= 0, got {s}")
        self.n_objects = n_objects
        self.s = s
        ranks = np.arange(1, n_objects + 1, dtype=float)
        weights = ranks**-s
        self._probs = weights / weights.sum()
        self._cdf = np.cumsum(self._probs)
        # The same doubles for scalar bisection (8 bytes each, no boxes).
        self._cdf_scalar = array("d", self._cdf)

    @property
    def probabilities(self) -> np.ndarray:
        """Per-object popularity (read-only view)."""
        v = self._probs.view()
        v.flags.writeable = False
        return v

    def sample_objects(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` object ids drawn by popularity (with replacement).

        Uses inverse-CDF sampling, which is O(n log n_objects) and avoids
        ``rng.choice``'s O(n_objects) per-call setup in hot loops.
        """
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        u = rng.random(n)
        return np.searchsorted(self._cdf, u, side="right")

    def sample_shared_set(
        self, rng: np.random.Generator, n_files: int
    ) -> tuple[int, ...]:
        """A peer's shared-file set: ``n_files`` popularity-weighted draws,
        deduplicated (a peer holds one copy of an object)."""
        if n_files <= 0:
            return ()
        return tuple(set(int(x) for x in self.sample_objects(rng, n_files)))

    def query_target(self, rng: np.random.Generator) -> int:
        """One query target drawn by popularity.

        ``sample_objects(rng, 1)[0]`` without the arrays: the same double
        off the stream, and ``bisect_right`` is ``searchsorted(side="right")``.
        """
        return bisect_right(self._cdf_scalar, rng.random())

    def expected_replication(self, n_peers: int, files_per_peer: int) -> np.ndarray:
        """Expected number of copies of each object across the network."""
        return self._probs * n_peers * files_per_peer
