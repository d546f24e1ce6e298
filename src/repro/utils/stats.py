"""Statistical output analysis for stochastic simulation.

Provides numerically stable running moments (Welford), confidence
intervals for replication means, and the batch-means method for
steady-state simulations (used by the queueing experiments, where a single
long run must be turned into an interval estimate despite autocorrelation).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "RunningStats",
    "ConfidenceInterval",
    "mean_confidence_interval",
    "BatchMeans",
    "RowAggregate",
    "summarize_rows",
]


#: ``stdtrit_<level>.f8`` holds ``stdtrit(df, 0.5 + level / 2)`` for df
#: 1..999 as little-endian float64, keyed here by that q, the callers' own
#: expression, so a key equals their q exactly (regenerate with the command
#: in ``tests/test_utils.py::TestTQuantileTable``)
_T_TABLES = {0.5 + level / 2: f"stdtrit_{level:.2f}.f8" for level in (0.90, 0.95, 0.99)}


@functools.cache
def _t_table(name: str) -> np.ndarray:
    table = np.fromfile(Path(__file__).with_name(name), dtype="<f8")
    table.flags.writeable = False
    return table


def _t_quantile(df, q):
    """The Student-t quantile ``stdtrit(df, q)``, which is what
    ``scipy.stats.t.ppf(q, df)`` evaluates, for an integer df or an
    integer array of them.

    At the tabulated levels (0.90, 0.95, 0.99) with every df in 1..999 it
    is read from a table of ``stdtrit``'s own outputs, so the bits are the
    same either way; otherwise ``stdtrit`` computes it."""
    name = _T_TABLES.get(q)
    if name is not None:
        table = _t_table(name)
        dfs = np.asarray(df)
        if dfs.dtype.kind in "iu" and np.all((dfs >= 1) & (dfs <= table.size)):
            return table[dfs - 1]
    # imported here, not with this module: under scipy 1.17 ``scipy.special``
    # also loads numpy.f2py, numpy.ma and numpy.testing (0.25-0.3 s and
    # ~16 MB), which only an untabulated level or a df over 999 needs
    # (docs/ARCHITECTURE.md, "Import policy")
    from scipy.special import stdtrit

    return stdtrit(df, q)


class RunningStats:
    """Numerically stable streaming mean/variance (Welford's algorithm).

    Supports scalar observations and optional weights (used for
    time-weighted averages of queue lengths).
    """

    def __init__(self) -> None:
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._wsum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def push(self, x: float, weight: float = 1.0) -> None:
        """Add one observation with the given weight (default 1)."""
        if weight < 0:
            raise ValueError("weight must be nonnegative")
        if weight == 0:
            return
        self._n += 1
        self._wsum += weight
        delta = x - self._mean
        self._mean += (weight / self._wsum) * delta
        self._m2 += weight * delta * (x - self._mean)
        self._min = min(self._min, x)
        self._max = max(self._max, x)

    def extend(self, xs: Iterable[float]) -> None:
        """Add many unweighted observations."""
        for x in xs:
            self.push(x)

    @property
    def count(self) -> int:
        """Number of observations pushed."""
        return self._n

    @property
    def total_weight(self) -> float:
        """Sum of weights."""
        return self._wsum

    @property
    def mean(self) -> float:
        """Weighted mean of observations (nan when empty)."""
        return self._mean if self._n else math.nan

    @property
    def variance(self) -> float:
        """Weighted population variance (nan when empty)."""
        if self._n == 0 or self._wsum == 0:
            return math.nan
        return self._m2 / self._wsum

    @property
    def sample_variance(self) -> float:
        """Unweighted-style sample variance with n-1 correction."""
        if self._n < 2:
            return math.nan
        return self._m2 / self._wsum * self._n / (self._n - 1)

    @property
    def std(self) -> float:
        """Square root of :attr:`variance`."""
        v = self.variance
        return math.sqrt(v) if v == v else math.nan

    @property
    def minimum(self) -> float:
        """Smallest observation seen."""
        return self._min if self._n else math.nan

    @property
    def maximum(self) -> float:
        """Largest observation seen."""
        return self._max if self._n else math.nan

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RunningStats(n={self._n}, mean={self.mean:.6g}, "
            f"std={self.std:.6g})"
        )


@dataclass(frozen=True)
class ConfidenceInterval:
    """A point estimate with a symmetric confidence interval."""

    mean: float
    half_width: float
    level: float
    n: int

    @property
    def lower(self) -> float:
        """Lower endpoint."""
        return self.mean - self.half_width

    @property
    def upper(self) -> float:
        """Upper endpoint."""
        return self.mean + self.half_width

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the interval."""
        return self.lower <= value <= self.upper

    @property
    def relative_half_width(self) -> float:
        """Half width divided by |mean|.

        The 0/0 case — a degenerate interval around an exactly-zero mean,
        as produced by deterministic zero-valued metrics — is defined as 0
        so such metrics can satisfy a relative-precision target; a genuine
        nonzero half-width around a zero mean is ``inf`` (no finite
        relative precision describes it).
        """
        if self.mean == 0:
            return 0.0 if self.half_width == 0 else math.inf
        return abs(self.half_width / self.mean)

    def __str__(self) -> str:
        return f"{self.mean:.6g} ± {self.half_width:.3g} ({self.level:.0%}, n={self.n})"


def mean_confidence_interval(
    samples: Sequence[float] | np.ndarray, level: float = 0.95
) -> ConfidenceInterval:
    """Student-t confidence interval for the mean of i.i.d. replications.

    Parameters
    ----------
    samples:
        Replication outputs (one number per independent replication).
    level:
        Confidence level in (0, 1).
    """
    xs = np.asarray(samples, dtype=float)
    if xs.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    n = xs.size
    if n == 0:
        raise ValueError("need at least one sample")
    if not 0 < level < 1:
        raise ValueError("level must be in (0, 1)")
    m = float(xs.mean())
    if n == 1:
        return ConfidenceInterval(mean=m, half_width=math.inf, level=level, n=1)
    s = float(xs.std(ddof=1))
    t = float(_t_quantile(n - 1, 0.5 + level / 2))
    return ConfidenceInterval(mean=m, half_width=t * s / math.sqrt(n), level=level, n=n)


@dataclass(frozen=True)
class RowAggregate:
    """Column-wise summary statistics over replication rows.

    One replication produces one row — a mapping of metric names to
    floats; a metric may be absent from some rows (scenarios report some
    metrics conditionally).  All per-column statistics use ``counts`` —
    the number of rows actually reporting that metric — for the mean, the
    t-quantile's degrees of freedom, and the ``sqrt(n)`` in the half
    width, so partially-reported metrics get correct (not optimistically
    narrow) intervals.

    Columns appear in ``names`` order; ``matrix`` holds NaN where a row
    did not report the metric.
    """

    names: tuple[str, ...]
    matrix: np.ndarray
    counts: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    half_width: np.ndarray
    minimum: np.ndarray
    maximum: np.ndarray
    level: float

    def index(self, name: str) -> int:
        """Column index of ``name`` (raises ``ValueError`` when absent)."""
        return self.names.index(name)

    def interval(self, name: str) -> ConfidenceInterval:
        """The :class:`ConfidenceInterval` for one metric column."""
        j = self.index(name)
        return ConfidenceInterval(
            mean=float(self.mean[j]),
            half_width=float(self.half_width[j]),
            level=self.level,
            n=int(self.counts[j]),
        )

    @property
    def relative_half_width(self) -> np.ndarray:
        """Per-column relative half width (0/0 defined as 0, x/0 as inf)."""
        out = np.empty(len(self.names))
        for j in range(len(self.names)):
            m, h = self.mean[j], self.half_width[j]
            if m == 0:
                out[j] = 0.0 if h == 0 else math.inf
            else:
                out[j] = abs(h / m)
        return out


def summarize_rows(
    rows: Sequence[Mapping[str, float]], level: float = 0.95
) -> RowAggregate:
    """Aggregate replication rows into per-metric summary statistics.

    Each statistic for a metric reported by ``k <= len(rows)``
    replications is computed over those ``k`` values: the sample standard
    deviation uses ``ddof=1`` with ``k`` observations, and the Student-t
    half width uses ``df = k - 1`` and ``sqrt(k)``.  A metric seen in
    fewer than two rows gets ``std = 0`` and an infinite half width (no
    dispersion estimate exists).
    """
    if not 0 < level < 1:
        raise ValueError(f"level must be in (0, 1), got {level}")
    names = tuple(sorted({k for row in rows for k in row}))
    matrix = np.full((len(rows), len(names)), np.nan)
    for i, row in enumerate(rows):
        for j, name in enumerate(names):
            if name in row:
                matrix[i, j] = row[name]
    present = ~np.isnan(matrix)
    counts = present.sum(axis=0)
    safe = np.maximum(counts, 1)
    sums = np.where(present, matrix, 0.0).sum(axis=0)
    means = np.where(counts > 0, sums / safe, np.nan)
    dev = np.where(present, matrix - means, 0.0)
    m2 = (dev**2).sum(axis=0)
    stds = np.where(counts > 1, np.sqrt(m2 / np.maximum(counts - 1, 1)), 0.0)
    t = _t_quantile(np.maximum(counts - 1, 1), 0.5 + level / 2)
    half = np.where(counts > 1, t * stds / np.sqrt(safe), np.inf)
    mins = np.where(
        counts > 0, np.where(present, matrix, np.inf).min(axis=0, initial=np.inf), np.nan
    )
    maxs = np.where(
        counts > 0,
        np.where(present, matrix, -np.inf).max(axis=0, initial=-np.inf),
        np.nan,
    )
    return RowAggregate(
        names=names,
        matrix=matrix,
        counts=counts,
        mean=means,
        std=stds,
        half_width=half,
        minimum=mins,
        maximum=maxs,
        level=level,
    )


class BatchMeans:
    """Batch-means estimator for a steady-state mean from one long run.

    Observations are grouped into ``n_batches`` contiguous batches after
    discarding a warm-up fraction; the batch averages are treated as
    approximately i.i.d. for the interval estimate. This is the classical
    method for autocorrelated simulation output.
    """

    def __init__(self, n_batches: int = 20, warmup_fraction: float = 0.1):
        if n_batches < 2:
            raise ValueError("need at least 2 batches")
        if not 0 <= warmup_fraction < 1:
            raise ValueError("warmup_fraction must be in [0, 1)")
        self.n_batches = n_batches
        self.warmup_fraction = warmup_fraction
        self._obs: list[float] = []

    def push(self, x: float) -> None:
        """Record one observation."""
        self._obs.append(x)

    def extend(self, xs: Iterable[float]) -> None:
        """Record many observations."""
        self._obs.extend(float(x) for x in xs)

    @property
    def count(self) -> int:
        """Total number of recorded observations."""
        return len(self._obs)

    def batch_means(self) -> np.ndarray:
        """The per-batch averages after warm-up removal."""
        xs = np.asarray(self._obs, dtype=float)
        start = int(len(xs) * self.warmup_fraction)
        xs = xs[start:]
        if len(xs) < self.n_batches:
            raise ValueError(
                f"only {len(xs)} post-warmup observations for "
                f"{self.n_batches} batches"
            )
        usable = len(xs) - (len(xs) % self.n_batches)
        return xs[:usable].reshape(self.n_batches, -1).mean(axis=1)

    def confidence_interval(self, level: float = 0.95) -> ConfidenceInterval:
        """Student-t interval over the batch means."""
        return mean_confidence_interval(self.batch_means(), level=level)
