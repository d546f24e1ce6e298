"""Replication runner: independent replications with confidence intervals.

Two entry points:

* :func:`run_replications` — replications of one experiment, serial or
  with multiprocess fan-out.  Seeds are spawned *before* partitioning, so
  results are bit-identical for every worker count (including 1).
* :func:`run_paired_replications` — several experiments (policies) compared
  under common random numbers: replication ``i`` of every policy sees the
  same random stream, which makes difference estimates far tighter than
  independent runs.

Parallel execution requires the experiment callable to be picklable (a
module-level function, not a lambda or closure); with one worker there is
no such restriction.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.utils.rng import crn_generators, spawn_seed_sequences
from repro.utils.stats import ConfidenceInterval, mean_confidence_interval

__all__ = [
    "ReplicationResult",
    "PairedReplicationResult",
    "run_replications",
    "run_paired_replications",
    "map_seed_chunks",
    "resolve_workers",
]


@dataclass(frozen=True)
class ReplicationResult:
    """Outputs of a replicated experiment: raw per-replication values and the
    derived confidence interval."""

    samples: np.ndarray
    interval: ConfidenceInterval

    @property
    def mean(self) -> float:
        """Point estimate (mean over replications)."""
        return self.interval.mean

    @property
    def half_width(self) -> float:
        """Confidence-interval half width."""
        return self.interval.half_width

    def __str__(self) -> str:
        return str(self.interval)


@dataclass(frozen=True)
class PairedReplicationResult:
    """Common-random-number comparison of several named experiments.

    ``results`` holds the per-experiment replication summaries;
    ``differences`` holds a confidence interval for each ordered pair
    ``(a, b)`` of experiment names over the *paired* per-replication
    differences ``a_i - b_i`` (the CRN estimator).
    """

    results: dict[str, ReplicationResult]
    differences: dict[tuple[str, str], ConfidenceInterval]

    def difference(self, a: str, b: str) -> ConfidenceInterval:
        """The paired-difference interval for ``a - b``."""
        return self.differences[(a, b)]


def resolve_workers(workers: int | None) -> int:
    """Normalise a worker-count request: ``None``/0 → all cores, floor 1."""
    if workers is None or workers <= 0:
        return max(os.cpu_count() or 1, 1)
    return workers


def _result_from_samples(samples: np.ndarray, level: float) -> ReplicationResult:
    return ReplicationResult(
        samples=samples, interval=mean_confidence_interval(samples, level=level)
    )


def _run_chunk(
    experiment: Callable[[np.random.Generator], float],
    seed_sequences: Sequence[np.random.SeedSequence],
) -> list[float]:
    """Worker body: run one experiment over a chunk of pre-spawned seeds."""
    return [float(experiment(np.random.default_rng(ss))) for ss in seed_sequences]


def run_replications(
    experiment: Callable[[np.random.Generator], float],
    n_replications: int,
    *,
    seed: int | None = None,
    level: float = 0.95,
    workers: int | None = 1,
) -> ReplicationResult:
    """Run ``experiment`` on ``n_replications`` independent RNG streams.

    Parameters
    ----------
    experiment:
        Maps a fresh generator to a scalar performance measure.  With
        more than one worker it must be picklable (a module-level
        function).
    n_replications:
        Number of independent replications (streams are spawned from
        ``seed`` via SeedSequence, so they never overlap).
    level:
        Confidence level for the interval over replication means.
    workers:
        Worker processes (``None``/0 = all cores).  The seeds are spawned
        up front and only then partitioned, so replication ``i`` sees the
        identical stream, and the samples are identical, for every
        worker count.
    """
    if n_replications < 1:
        raise ValueError("need at least one replication")
    seeds = spawn_seed_sequences(seed, n_replications)
    rows = map_seed_chunks(_run_chunk, experiment, seeds, workers=workers)
    return _result_from_samples(np.array(rows), level)


def _chunk(items: Sequence, n_chunks: int) -> list[Sequence]:
    """Split ``items`` into at most ``n_chunks`` contiguous, ordered chunks."""
    n_chunks = min(max(n_chunks, 1), len(items)) if items else 1
    bounds = np.linspace(0, len(items), n_chunks + 1).astype(int)
    return [items[a:b] for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def map_seed_chunks(
    worker: Callable,
    payload,
    seeds: Sequence[np.random.SeedSequence],
    *,
    workers: int | None = None,
) -> list:
    """Run ``worker(payload, seed_chunk)`` over chunks of pre-spawned seeds
    and concatenate the per-chunk result lists in seed order.

    This is the single fan-out primitive under every parallel runner in the
    package: seeds are partitioned *after* spawning into contiguous,
    ordered chunks (~4 per worker, so cores stay busy when replication
    costs vary) and results are reassembled in replication order — which
    is what makes every caller's output independent of the worker count.
    With one worker (or one seed) the call degrades to a plain in-process
    loop; otherwise ``worker`` and ``payload`` must be picklable.
    """
    n_workers = resolve_workers(workers)
    if n_workers == 1 or len(seeds) <= 1:
        return list(worker(payload, seeds))
    chunks = _chunk(seeds, n_workers * 4)
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        futures = [pool.submit(worker, payload, c) for c in chunks]
        return [row for f in futures for row in f.result()]


def _run_paired_chunk(
    experiments: Mapping[str, Callable[[np.random.Generator], float]],
    seed_sequences: Sequence[np.random.SeedSequence],
) -> list[list[float]]:
    """Worker body for CRN runs: every experiment replays the same stream."""
    out = []
    for ss in seed_sequences:
        rngs = crn_generators(ss, len(experiments))
        out.append([float(fn(rng)) for fn, rng in zip(experiments.values(), rngs)])
    return out


def run_paired_replications(
    experiments: Mapping[str, Callable[[np.random.Generator], float]],
    n_replications: int,
    *,
    seed: int | None = None,
    level: float = 0.95,
    workers: int | None = None,
) -> PairedReplicationResult:
    """Compare named experiments under common random numbers.

    For each replication one child seed sequence is spawned and *every*
    experiment gets a generator initialised from it (identical streams —
    see :func:`repro.utils.rng.crn_generators`).  Besides the per-experiment
    intervals, a Student-t interval over the paired differences is returned
    for every ordered pair of names, which is the estimator whose variance
    CRN actually shrinks.
    """
    if n_replications < 1:
        raise ValueError("need at least one replication")
    if not experiments:
        raise ValueError("need at least one experiment")
    experiments = dict(experiments)
    seeds = spawn_seed_sequences(seed, n_replications)
    rows = map_seed_chunks(_run_paired_chunk, experiments, seeds, workers=workers)
    matrix = np.asarray(rows, dtype=float)  # (n_replications, n_experiments)
    names = list(experiments)
    results = {
        name: _result_from_samples(matrix[:, j], level) for j, name in enumerate(names)
    }
    differences = {
        (a, b): mean_confidence_interval(matrix[:, i] - matrix[:, j], level=level)
        for i, a in enumerate(names)
        for j, b in enumerate(names)
        if i != j
    }
    return PairedReplicationResult(results=results, differences=differences)
