"""Continuous distribution families used in stochastic scheduling models."""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from repro.distributions.base import Distribution
from repro.utils.validation import check_nonnegative, check_positive, check_probability

__all__ = [
    "Exponential",
    "Erlang",
    "HyperExponential",
    "Deterministic",
    "Uniform",
    "Weibull",
    "LogNormal",
    "Pareto",
    "TwoPoint",
]


class Exponential(Distribution):
    """Exponential distribution with rate ``rate`` (mean ``1/rate``).

    The memoryless workhorse of the survey: SEPT/LEPT optimality on parallel
    machines [10, 20] and the preemptive cµ rule are proved under exponential
    processing times.
    """

    def __init__(self, rate: float):
        self.rate = check_positive(rate, "rate")

    @classmethod
    def from_mean(cls, mean: float) -> "Exponential":
        """Construct from the mean instead of the rate."""
        return cls(1.0 / check_positive(mean, "mean"))

    def sample(self, rng, size=None):
        return rng.exponential(1.0 / self.rate, size=size)

    @property
    def mean(self) -> float:
        return 1.0 / self.rate

    @property
    def variance(self) -> float:
        return 1.0 / self.rate**2

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, -np.expm1(-self.rate * x), 0.0)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, self.rate * np.exp(-self.rate * x), 0.0)

    def hazard(self, x):
        x = np.asarray(x, dtype=float)
        return np.full_like(x, self.rate, dtype=float)

    def mean_residual(self, t, **kwargs) -> float:
        return 1.0 / self.rate  # memorylessness


class Erlang(Distribution):
    """Erlang distribution: sum of ``k`` i.i.d. exponentials of rate ``rate``.

    Increasing hazard rate (IHR) for ``k >= 2``; scv = 1/k < 1. The standard
    "less variable than exponential" family.
    """

    def __init__(self, k: int, rate: float):
        if int(k) != k or k < 1:
            raise ValueError(f"k must be a positive integer, got {k!r}")
        self.k = int(k)
        self.rate = check_positive(rate, "rate")

    @classmethod
    def from_mean(cls, mean: float, k: int = 2) -> "Erlang":
        """Erlang-k with the given mean."""
        return cls(k, k / check_positive(mean, "mean"))

    def sample(self, rng, size=None):
        return rng.gamma(self.k, 1.0 / self.rate, size=size)

    @property
    def mean(self) -> float:
        return self.k / self.rate

    @property
    def variance(self) -> float:
        return self.k / self.rate**2

    def cdf(self, x):
        from scipy import stats as sps

        return sps.gamma.cdf(np.asarray(x, dtype=float), self.k, scale=1.0 / self.rate)

    def pdf(self, x):
        from scipy import stats as sps

        return sps.gamma.pdf(np.asarray(x, dtype=float), self.k, scale=1.0 / self.rate)


class HyperExponential(Distribution):
    """Mixture of exponentials: with prob ``probs[i]`` the variable is
    exponential with rate ``rates[i]``.

    Decreasing hazard rate (DHR); scv > 1 unless degenerate. The canonical
    high-variability family — where preemptive policies (Sevcik [35]) gain
    over nonpreemptive ones, and LEPT-style effects appear.
    """

    def __init__(self, probs, rates):
        probs = np.asarray(probs, dtype=float)
        rates = np.asarray(rates, dtype=float)
        if probs.shape != rates.shape or probs.ndim != 1:
            raise ValueError("probs and rates must be 1-D arrays of equal length")
        if np.any(probs < 0) or not math.isclose(float(probs.sum()), 1.0, abs_tol=1e-9):
            raise ValueError("probs must be nonnegative and sum to 1")
        if np.any(rates <= 0):
            raise ValueError("rates must be positive")
        self.probs = probs
        self.rates = rates
        # the cdf `rng.choice(len(probs), p=probs)` searches, right side,
        # with one `rng.random()`; a scalar draw bisects it directly
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        self._cdf = cdf.tolist()

    @classmethod
    def balanced_from_mean_scv(cls, mean: float, scv: float) -> "HyperExponential":
        """Two-phase hyperexponential with balanced means matching a target
        mean and squared coefficient of variation ``scv >= 1``."""
        check_positive(mean, "mean")
        if scv < 1:
            raise ValueError("hyperexponential requires scv >= 1")
        if math.isclose(scv, 1.0):
            p1 = 0.5
        else:
            p1 = 0.5 * (1.0 + math.sqrt((scv - 1.0) / (scv + 1.0)))
        p2 = 1.0 - p1
        # balanced means: p1/r1 == p2/r2 == mean/2
        r1 = 2.0 * p1 / mean
        r2 = 2.0 * p2 / mean
        return cls([p1, p2], [r1, r2])

    def sample(self, rng, size=None):
        if size is None:
            i = bisect_right(self._cdf, rng.random())
            return rng.exponential(1.0 / self.rates[i])
        idx = rng.choice(len(self.probs), p=self.probs, size=size)
        return rng.exponential(1.0 / self.rates[idx])

    @property
    def mean(self) -> float:
        return float(np.sum(self.probs / self.rates))

    @property
    def variance(self) -> float:
        m2 = float(np.sum(2.0 * self.probs / self.rates**2))
        return m2 - self.mean**2

    def cdf(self, x):
        x = np.asarray(x, dtype=float)[..., None]
        vals = np.sum(self.probs * (1.0 - np.exp(-self.rates * np.maximum(x, 0.0))), axis=-1)
        return np.where(x[..., 0] >= 0, vals, 0.0)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)[..., None]
        vals = np.sum(self.probs * self.rates * np.exp(-self.rates * np.maximum(x, 0.0)), axis=-1)
        return np.where(x[..., 0] >= 0, vals, 0.0)


class Deterministic(Distribution):
    """A point mass at ``value`` (deterministic processing time).

    The deterministic special case recovers Smith's classical WSPT rule [37].
    """

    def __init__(self, value: float):
        self.value = check_nonnegative(value, "value")

    def sample(self, rng, size=None):
        if size is None:
            return self.value
        return np.full(size, self.value)

    @property
    def mean(self) -> float:
        return self.value

    @property
    def variance(self) -> float:
        return 0.0

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return (x >= self.value).astype(float)

    def mean_residual(self, t, **kwargs) -> float:
        return max(self.value - t, 0.0)


class Uniform(Distribution):
    """Continuous uniform on ``[low, high]`` — IHR, scv < 1."""

    def __init__(self, low: float, high: float):
        if not 0 <= low < high:
            raise ValueError(f"need 0 <= low < high, got [{low}, {high}]")
        self.low = float(low)
        self.high = float(high)

    def sample(self, rng, size=None):
        return rng.uniform(self.low, self.high, size=size)

    @property
    def mean(self) -> float:
        return 0.5 * (self.low + self.high)

    @property
    def variance(self) -> float:
        return (self.high - self.low) ** 2 / 12.0

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.clip((x - self.low) / (self.high - self.low), 0.0, 1.0)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.low) & (x <= self.high)
        return np.where(inside, 1.0 / (self.high - self.low), 0.0)


class Weibull(Distribution):
    """Weibull with shape ``shape`` and scale ``scale``.

    IHR when shape > 1, DHR when shape < 1, exponential at shape = 1 —
    a one-parameter dial across the hazard classes that decide SEPT vs LEPT
    optimality in Weber's theorems [41].
    """

    def __init__(self, shape: float, scale: float):
        self.shape = check_positive(shape, "shape")
        self.scale = check_positive(scale, "scale")

    @classmethod
    def from_mean(cls, mean: float, shape: float) -> "Weibull":
        """Weibull of given shape scaled to the target mean."""
        scale = check_positive(mean, "mean") / math.gamma(1.0 + 1.0 / shape)
        return cls(shape, scale)

    def sample(self, rng, size=None):
        return self.scale * rng.weibull(self.shape, size=size)

    @property
    def mean(self) -> float:
        return self.scale * math.gamma(1.0 + 1.0 / self.shape)

    @property
    def variance(self) -> float:
        g1 = math.gamma(1.0 + 1.0 / self.shape)
        g2 = math.gamma(1.0 + 2.0 / self.shape)
        return self.scale**2 * (g2 - g1**2)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, -np.expm1(-((np.maximum(x, 0) / self.scale) ** self.shape)), 0.0)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        xm = np.maximum(x, 1e-300)
        val = (
            (self.shape / self.scale)
            * (xm / self.scale) ** (self.shape - 1.0)
            * np.exp(-((xm / self.scale) ** self.shape))
        )
        return np.where(x > 0, val, 0.0)

    def hazard(self, x):
        x = np.asarray(x, dtype=float)
        xm = np.maximum(x, 1e-300)
        return np.where(
            x > 0, (self.shape / self.scale) * (xm / self.scale) ** (self.shape - 1.0), np.nan
        )


class LogNormal(Distribution):
    """Lognormal with parameters ``mu`` and ``sigma`` of the underlying
    normal. Heavy-ish tailed; non-monotone hazard."""

    def __init__(self, mu: float, sigma: float):
        self.mu = float(mu)
        self.sigma = check_positive(sigma, "sigma")

    @classmethod
    def from_mean_scv(cls, mean: float, scv: float) -> "LogNormal":
        """Match a target mean and squared coefficient of variation."""
        check_positive(mean, "mean")
        check_positive(scv, "scv")
        sigma2 = math.log(1.0 + scv)
        mu = math.log(mean) - sigma2 / 2.0
        return cls(mu, math.sqrt(sigma2))

    def sample(self, rng, size=None):
        return rng.lognormal(self.mu, self.sigma, size=size)

    @property
    def mean(self) -> float:
        return math.exp(self.mu + self.sigma**2 / 2.0)

    @property
    def variance(self) -> float:
        return (math.exp(self.sigma**2) - 1.0) * math.exp(2.0 * self.mu + self.sigma**2)

    def cdf(self, x):
        from scipy import stats as sps

        return sps.lognorm.cdf(np.asarray(x, dtype=float), self.sigma, scale=math.exp(self.mu))

    def pdf(self, x):
        from scipy import stats as sps

        return sps.lognorm.pdf(np.asarray(x, dtype=float), self.sigma, scale=math.exp(self.mu))


class Pareto(Distribution):
    """Pareto (Lomax-shifted) on ``[minimum, inf)`` with tail index ``alpha``.

    DHR; infinite variance when alpha <= 2 — the stress test for index
    policies under heavy tails.
    """

    def __init__(self, alpha: float, minimum: float = 1.0):
        self.alpha = check_positive(alpha, "alpha")
        self.minimum = check_positive(minimum, "minimum")

    def sample(self, rng, size=None):
        u = rng.random(size)
        return self.minimum / (1.0 - u) ** (1.0 / self.alpha)

    @property
    def mean(self) -> float:
        if self.alpha <= 1:
            return math.inf
        return self.alpha * self.minimum / (self.alpha - 1.0)

    @property
    def variance(self) -> float:
        if self.alpha <= 2:
            return math.inf
        a, m = self.alpha, self.minimum
        return m**2 * a / ((a - 1.0) ** 2 * (a - 2.0))

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= self.minimum, 1.0 - (self.minimum / np.maximum(x, self.minimum)) ** self.alpha, 0.0)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        xm = np.maximum(x, self.minimum)
        return np.where(
            x >= self.minimum, self.alpha * self.minimum**self.alpha / xm ** (self.alpha + 1.0), 0.0
        )


class TwoPoint(Distribution):
    """Two-point distribution: value ``a`` w.p. ``p``, else value ``b``.

    The Coffman–Hofri–Weiss counterexample [13] uses two-point processing
    times on two parallel machines to break SEPT/LEPT optimality — benchmark
    E5 reproduces that regime.
    """

    def __init__(self, a: float, b: float, p: float):
        self.a = check_nonnegative(a, "a")
        self.b = check_nonnegative(b, "b")
        self.p = check_probability(p, "p")

    def sample(self, rng, size=None):
        if size is None:
            return self.a if rng.random() < self.p else self.b
        u = rng.random(size)
        return np.where(u < self.p, self.a, self.b)

    @property
    def mean(self) -> float:
        return self.p * self.a + (1.0 - self.p) * self.b

    @property
    def variance(self) -> float:
        return self.p * self.a**2 + (1.0 - self.p) * self.b**2 - self.mean**2

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        lo, hi = min(self.a, self.b), max(self.a, self.b)
        p_lo = self.p if self.a <= self.b else 1.0 - self.p
        return np.where(x >= hi, 1.0, np.where(x >= lo, p_lo, 0.0))

    def support(self) -> tuple[float, float]:
        """The two support points ``(a, b)``."""
        return (self.a, self.b)
