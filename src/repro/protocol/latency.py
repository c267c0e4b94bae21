"""Per-hop latency models for the overlay's links.

The paper evaluates search only by message counts; a downstream user of
a super-peer system also cares about *time to first hit*, which depends
on per-hop propagation delays.  A :class:`LatencyModel` samples the
delay of one overlay hop; the flood router threads delays through its
BFS so each query reports the simulated time until its first QueryHit
returns.

Models provided: constant (uniform testbeds), uniform (jittery LANs),
log-normal (wide-area RTT distributions, the standard fit), a shift
wrapper (propagation floor plus a jitter distribution), and a finite
mixture (multi-region populations).  Units are abstract "latency
units"; with one ~ 25 ms the log-normal default matches wide-area
medians.

The ``min_delay()`` contract
----------------------------

Every model reports an **exact lower bound** on the delays it can
sample: no draw is ever below ``min_delay()``.  The sharded engine
(:mod:`repro.sim.shard`) uses this bound as its conservative lookahead
window -- shards only need to synchronize once per ``min_delay()`` of
simulated time, because no cross-shard message can arrive sooner.  The
bound must be *exact* (attained or approached by real samples), never a
hopeful estimate: an optimistic bound would let a message arrive inside
an already-executed window and silently break determinism.  Models
whose support reaches down to zero (log-normal, uniform with ``lo=0``)
honestly report ``0.0``, which is why sharded runs refuse them -- wrap
them in :class:`ShiftedLatency` to add a positive propagation floor.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "LogNormalLatency",
    "ShiftedLatency",
    "MixtureLatency",
    "default_latency_model",
    "default_shard_link_model",
]


class LatencyModel(ABC):
    """Sampler of non-negative per-hop delays."""

    @abstractmethod
    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        """Draw ``n`` per-hop delays.

        Every model but :class:`MixtureLatency` (which draws all its
        component picks first) is partition invariant: ``sample(a + b)``
        is ``sample(a)`` then ``sample(b)``, values and generator state,
        so a caller may draw a block ahead
        (:meth:`~repro.sim.rng.RngStreams.prefetch`).
        """

    @property
    @abstractmethod
    def mean(self) -> float:
        """Expected per-hop delay."""

    @abstractmethod
    def min_delay(self) -> float:
        """Exact infimum of the delay distribution (see module docstring).

        Every sample is ``>= min_delay()``; the bound is tight (the
        distribution's true infimum), so it is a valid conservative
        lookahead for parallel simulation.
        """


class ConstantLatency(LatencyModel):
    """Every hop takes exactly ``delay`` units."""

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        self.delay = float(delay)

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        """``n`` identical delays."""
        return np.full(n, self.delay)

    @property
    def mean(self) -> float:
        """The constant delay."""
        return self.delay

    def min_delay(self) -> float:
        """The constant itself -- every draw equals it."""
        return self.delay

    def __repr__(self) -> str:
        return f"ConstantLatency(delay={self.delay!r})"


class UniformLatency(LatencyModel):
    """Hop delays uniform on [lo, hi]."""

    def __init__(self, lo: float, hi: float) -> None:
        if not 0 <= lo <= hi:
            raise ValueError(f"need 0 <= lo <= hi, got [{lo}, {hi}]")
        self.lo = float(lo)
        self.hi = float(hi)

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        """``n`` uniform delays on [lo, hi]."""
        return rng.uniform(self.lo, self.hi, size=n)

    @property
    def mean(self) -> float:
        """Midpoint of the interval."""
        return 0.5 * (self.lo + self.hi)

    def min_delay(self) -> float:
        """The interval's left endpoint."""
        return self.lo

    def __repr__(self) -> str:
        return f"UniformLatency(lo={self.lo!r}, hi={self.hi!r})"


class LogNormalLatency(LatencyModel):
    """Heavy-tailed wide-area delays (median/sigma parameterization)."""

    def __init__(self, median: float, sigma: float) -> None:
        if median <= 0 or sigma <= 0:
            raise ValueError("median and sigma must be positive")
        self.mu = math.log(median)
        self.sigma = float(sigma)

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        """``n`` log-normal delays."""
        return rng.lognormal(self.mu, self.sigma, size=n)

    @property
    def mean(self) -> float:
        """exp(mu + sigma^2/2), the log-normal mean."""
        return math.exp(self.mu + 0.5 * self.sigma**2)

    def min_delay(self) -> float:
        """0.0 -- the log-normal support reaches down to (but excludes) zero.

        The infimum is honest: arbitrarily small draws occur, so a
        bare log-normal gives no positive lookahead and cannot back a
        sharded run.  Wrap it in :class:`ShiftedLatency` to model a
        propagation floor.
        """
        return 0.0

    def __repr__(self) -> str:
        return f"LogNormalLatency(median={math.exp(self.mu)!r}, sigma={self.sigma!r})"


class ShiftedLatency(LatencyModel):
    """``shift`` + a draw from ``base``: jitter atop a propagation floor.

    Physical links have an irreducible propagation delay below which no
    packet arrives; ``shift`` models it exactly, which is what makes
    wide-area jitter distributions (log-normal) usable as shard links.
    """

    def __init__(self, base: LatencyModel, shift: float) -> None:
        if shift < 0:
            raise ValueError(f"shift must be >= 0, got {shift}")
        self.base = base
        self.shift = float(shift)

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        """``n`` draws from ``base``, each raised by ``shift``."""
        return self.base.sample(rng, n) + self.shift

    @property
    def mean(self) -> float:
        """shift + base mean."""
        return self.shift + self.base.mean

    def min_delay(self) -> float:
        """shift + the base model's own floor."""
        return self.shift + self.base.min_delay()

    def __repr__(self) -> str:
        return f"ShiftedLatency(base={self.base!r}, shift={self.shift!r})"


class MixtureLatency(LatencyModel):
    """Finite mixture of latency models (multi-region populations).

    Each draw first picks a component with the given weights, then
    samples it, so e.g. 80% intra-region constant + 20% wide-area
    log-normal is one model.
    """

    def __init__(
        self,
        components: Sequence[LatencyModel],
        weights: Sequence[float],
    ) -> None:
        if len(components) == 0:
            raise ValueError("mixture needs at least one component")
        if len(components) != len(weights):
            raise ValueError(
                f"{len(components)} components but {len(weights)} weights"
            )
        if any(w < 0 for w in weights):
            raise ValueError(f"weights must be >= 0, got {list(weights)}")
        total = float(sum(weights))
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        self.components: Tuple[LatencyModel, ...] = tuple(components)
        self.weights: Tuple[float, ...] = tuple(float(w) / total for w in weights)

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        """``n`` draws, each from a weight-chosen component."""
        picks = rng.choice(len(self.components), size=n, p=self.weights)
        out = np.empty(n)
        for i, comp in enumerate(self.components):
            mask = picks == i
            count = int(mask.sum())
            if count:
                out[mask] = comp.sample(rng, count)
        return out

    @property
    def mean(self) -> float:
        """Weighted average of component means."""
        return sum(w * c.mean for w, c in zip(self.weights, self.components))

    def min_delay(self) -> float:
        """Minimum over components with nonzero weight.

        A zero-weight component is never sampled, so it cannot drag the
        lookahead down; the bound stays exact either way.
        """
        return min(
            c.min_delay()
            for c, w in zip(self.components, self.weights)
            if w > 0
        )

    def __repr__(self) -> str:
        comps = ", ".join(repr(c) for c in self.components)
        wts = ", ".join(repr(w) for w in self.weights)
        return f"MixtureLatency(components=[{comps}], weights=[{wts}])"


def default_latency_model() -> LogNormalLatency:
    """Wide-area default: log-normal, median 1 unit, sigma 0.5."""
    return LogNormalLatency(median=1.0, sigma=0.5)


def default_shard_link_model() -> ShiftedLatency:
    """Default shard-to-shard link: 0.5-unit floor + mild uniform jitter.

    ``min_delay() == 0.5`` gives the sharded engine a half-unit
    lookahead window -- wide enough that barriers are rare relative to
    event density, narrow enough that gossip stays fresh.
    """
    return ShiftedLatency(UniformLatency(0.0, 1.0), 0.5)
