"""Lifetime and capacity distributions.

The paper parameterizes its simulator from first-hand Gnutella traces
(collected with two instrumented Mutella clients) that it reports to be
"consistent with the data presented in previous studies [6, 12, 13]" --
i.e. Saroiu et al.'s MMCN'02 measurement study.  We do not have those
traces; per the substitution rule we implement the distribution *families*
those studies report and calibrate their defaults to the published
statistics:

* **Session lifetimes** are heavy-tailed; log-normal (median ~60 min) and
  Pareto fits both appear in the literature.  The dynamic-scenario
  experiments override the means anyway, so the family matters more than
  the exact parameters.
* **Bandwidth** (the paper's stand-in for capacity) is multi-modal:
  a mixture of modem / DSL / cable / campus-LAN classes.

Every distribution carries a mutable ``scale`` multiplier so scenario
scripts can implement the paper's "half mean values" / "doubled mean
values" shifts (§5) without swapping objects mid-run.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_right
from typing import Callable, Sequence, Tuple

import numpy as np

__all__ = [
    "ScalableDistribution",
    "LogNormalDistribution",
    "ParetoDistribution",
    "ExponentialDistribution",
    "WeibullDistribution",
    "UniformDistribution",
    "ConstantDistribution",
    "BandwidthMixture",
    "default_lifetime_distribution",
    "default_capacity_distribution",
]


class ScalableDistribution(ABC):
    """A positive-valued distribution with a runtime mean multiplier.

    Samples are ``scale * base_sample``; shifting ``scale`` shifts the
    mean by exactly that factor, which is how the paper's dynamic
    scenarios are expressed.
    """

    def __init__(self) -> None:
        self.scale = 1.0

    @abstractmethod
    def _sample_base(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` samples at scale 1."""

    @property
    @abstractmethod
    def base_mean(self) -> float:
        """Mean at scale 1."""

    @property
    def mean(self) -> float:
        """Current mean (``scale * base_mean``)."""
        return self.scale * self.base_mean

    def set_scale(self, scale: float) -> None:
        """Set the mean multiplier (must be positive)."""
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        self.scale = float(scale)

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        """Draw ``n`` samples at the current scale (vectorized)."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        return self.scale * self._sample_base(rng, n)

    def block(self, gen: np.random.Generator, n: int) -> np.ndarray:
        """``n`` partition-invariant draws, the values :meth:`take` reads."""
        return self._sample_base(gen, n)

    def take(self, next_value: Callable[[], float]) -> float:
        """``sample(rng, 1)[0]``, from the :meth:`block` values handed out
        one at a time by ``next_value`` (a ``DrawAhead.next``)."""
        return self.scale * next_value()


class LogNormalDistribution(ScalableDistribution):
    """Log-normal with parameters given as (median, sigma-of-log)."""

    def __init__(self, median: float, sigma: float) -> None:
        super().__init__()
        if median <= 0:
            raise ValueError(f"median must be positive, got {median}")
        if sigma <= 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        self.mu = math.log(median)
        self.sigma = float(sigma)

    def _sample_base(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.lognormal(self.mu, self.sigma, size=n)

    @property
    def base_mean(self) -> float:
        """Mean at scale 1 (closed form)."""
        return math.exp(self.mu + 0.5 * self.sigma**2)


class ParetoDistribution(ScalableDistribution):
    """Pareto (Lomax-shifted) with shape ``alpha`` and minimum ``xmin``.

    ``alpha`` must exceed 1 so the mean exists.
    """

    def __init__(self, alpha: float, xmin: float) -> None:
        super().__init__()
        if alpha <= 1:
            raise ValueError(f"alpha must be > 1 for a finite mean, got {alpha}")
        if xmin <= 0:
            raise ValueError(f"xmin must be positive, got {xmin}")
        self.alpha = float(alpha)
        self.xmin = float(xmin)

    def _sample_base(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.xmin * (1.0 + rng.pareto(self.alpha, size=n))

    @property
    def base_mean(self) -> float:
        """Mean at scale 1 (closed form)."""
        return self.alpha * self.xmin / (self.alpha - 1.0)


class ExponentialDistribution(ScalableDistribution):
    """Memoryless baseline with the given mean."""

    def __init__(self, mean: float) -> None:
        super().__init__()
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        self._mean = float(mean)

    def _sample_base(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.exponential(self._mean, size=n)

    @property
    def base_mean(self) -> float:
        """Mean at scale 1 (closed form)."""
        return self._mean


class WeibullDistribution(ScalableDistribution):
    """Weibull with shape ``k`` and scale ``lam`` (k < 1 is heavy-tailed)."""

    def __init__(self, k: float, lam: float) -> None:
        super().__init__()
        if k <= 0 or lam <= 0:
            raise ValueError(f"shape and scale must be positive, got {k}, {lam}")
        self.k = float(k)
        self.lam = float(lam)

    def _sample_base(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.lam * rng.weibull(self.k, size=n)

    @property
    def base_mean(self) -> float:
        """Mean at scale 1 (closed form)."""
        return self.lam * math.gamma(1.0 + 1.0 / self.k)


class UniformDistribution(ScalableDistribution):
    """Uniform on [lo, hi]."""

    def __init__(self, lo: float, hi: float) -> None:
        super().__init__()
        if not 0 <= lo < hi:
            raise ValueError(f"need 0 <= lo < hi, got [{lo}, {hi}]")
        self.lo = float(lo)
        self.hi = float(hi)

    def _sample_base(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=n)

    @property
    def base_mean(self) -> float:
        """Mean at scale 1 (closed form)."""
        return 0.5 * (self.lo + self.hi)


class ConstantDistribution(ScalableDistribution):
    """Degenerate distribution (useful in tests and oracles)."""

    def __init__(self, value: float) -> None:
        super().__init__()
        if value <= 0:
            raise ValueError(f"value must be positive, got {value}")
        self.value = float(value)

    def _sample_base(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, self.value)

    @property
    def base_mean(self) -> float:
        """Mean at scale 1 (closed form)."""
        return self.value


class BandwidthMixture(ScalableDistribution):
    """Multi-modal access-bandwidth mixture (capacity stand-in).

    Each component is ``(weight, center_kbps, jitter)``; a sample picks a
    class by weight and draws uniformly within ``center * (1 ± jitter)``,
    reproducing the modem/DSL/cable/T1 clustering of the measurement
    studies.
    """

    #: Default mix loosely following Saroiu et al.: ~25% modem-class,
    #: ~40% DSL-class, ~25% cable-class, ~10% campus/T1-class (KB/s).
    DEFAULT_CLASSES: Tuple[Tuple[float, float, float], ...] = (
        (0.25, 6.0, 0.4),
        (0.40, 48.0, 0.4),
        (0.25, 150.0, 0.4),
        (0.10, 600.0, 0.4),
    )

    def __init__(
        self, classes: Sequence[Tuple[float, float, float]] = DEFAULT_CLASSES
    ) -> None:
        super().__init__()
        if not classes:
            raise ValueError("at least one bandwidth class is required")
        weights = np.array([c[0] for c in classes], dtype=float)
        if np.any(weights <= 0):
            raise ValueError("class weights must be positive")
        self.weights = weights / weights.sum()
        self.centers = np.array([c[1] for c in classes], dtype=float)
        self.jitters = np.array([c[2] for c in classes], dtype=float)
        if np.any(self.centers <= 0):
            raise ValueError("class centers must be positive")
        if np.any((self.jitters < 0) | (self.jitters >= 1)):
            raise ValueError("jitter must be in [0, 1)")
        # Precomputed class CDF: ``rng.choice(k, p=...)`` re-validates and
        # re-cumsums the weights on every call (~50us), which dominates
        # per-join capacity sampling.  Generator.choice with ``p`` is
        # defined as searchsorted over this exact cdf against
        # ``rng.random(n)``, so the paths below are bit-identical --
        # same values, same stream position (locked by the golden tests).
        cdf = self.weights.cumsum()
        cdf /= cdf[-1]
        self._cdf = cdf
        self._cdf_list = cdf.tolist()
        self._class_list = list(zip(self.centers.tolist(), self.jitters.tolist()))

    def _sample_base(self, rng: np.random.Generator, n: int) -> np.ndarray:
        cls = self._cdf.searchsorted(rng.random(n), side="right")
        centers = self.centers[cls]
        jit = self.jitters[cls]
        # == rng.uniform(centers*(1-jit), centers*(1+jit)) bit for bit.
        low = 1.0 - jit
        return centers * (low + rng.random(n) * ((1.0 + jit) - low))

    def block(self, gen: np.random.Generator, n: int) -> np.ndarray:
        # ``_sample_base``'s two passes do not split; their uniforms do.
        return gen.random(n)

    def take(self, next_value: Callable[[], float]) -> float:
        # ``_sample_base`` at n = 1 from two uniforms, class then jitter:
        # bisect_right is searchsorted(side="right"), the same IEEE ops.
        center, jit = self._class_list[bisect_right(self._cdf_list, next_value())]
        low = 1.0 - jit
        return self.scale * (center * (low + next_value() * ((1.0 + jit) - low)))

    @property
    def base_mean(self) -> float:
        """Mean at scale 1 (closed form)."""
        # Uniform jitter is symmetric around the center, so it is unbiased.
        return float(np.dot(self.weights, self.centers))


def default_lifetime_distribution() -> LogNormalDistribution:
    """Session lifetime defaults: log-normal, median 60 time units.

    One time unit ~ one minute; the median Gnutella session in the
    measurement studies the paper draws on is on the order of an hour.
    """
    return LogNormalDistribution(median=60.0, sigma=1.0)


def default_capacity_distribution() -> BandwidthMixture:
    """Capacity (bandwidth, KB/s) defaults: the 4-class access mix."""
    return BandwidthMixture()
