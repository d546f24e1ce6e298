"""Batched replication runner for registered scenarios.

Executes a scenario's per-replication ``simulate`` function over many
independent seed streams — serially or fanned out across worker processes
— and aggregates every metric into a point estimate with a Student-t
confidence interval.

Determinism contract: the replication seeds are spawned *once* from the
root seed and only then partitioned into chunks, and results are
reassembled in replication order.  The sample matrix — and therefore every
point estimate and interval — is bit-identical for any worker count.

Workers receive ``(scenario_id, params, seeds)`` rather than the scenario
object itself: the id is looked up in the registry inside the worker, so
only plain data crosses the process boundary and scenarios may freely use
lambdas in their check tables.

Backends: replications run through the scenario's event-driven
``simulate`` function or, for scenarios whose registry record holds a
vectorized kernel, through the batched kernel.  The two backends are
bit-for-bit equivalent per replication, so every statistic here is
identical for any ``backend`` choice — and, as before, for any worker
count.  :func:`resolve_backend` maps a request
(``"event"``, ``"vectorized"`` or ``"auto"``) to the backend that runs.

Two optional layers sit on top of the fixed-count loop:

* ``target_precision`` switches to the adaptive sequential controller
  (:mod:`repro.sim.sequential`): replications grow in chunks until every
  requested metric's interval is tight enough, and the achieved ``n`` is
  recorded in the result.
* ``cache_dir`` plugs in the content-addressed sample store
  (:mod:`repro.experiments.store`): cached replications for the same
  ``(scenario, params, seed)`` are reused and only the remainder is
  simulated — both preserve the bit-identical-samples contract.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from repro.experiments.registry import (
    Scenario,
    get_kernel,
    get_scenario,
    has_kernel,
    is_direct_kernel,
    is_registered,
    kernel_ids,
)
from repro.experiments.store import SampleStore
from repro.sim.replication import map_seed_chunks
from repro.sim.sequential import PrecisionTarget, run_sequential_replications
from repro.utils.rng import spawn_seed_sequences
from repro.utils.serialization import jsonable as _jsonable
from repro.utils.stats import summarize_rows

__all__ = [
    "BACKENDS",
    "MissingKernelError",
    "MetricSummary",
    "ScenarioResult",
    "resolve_backend",
    "run_scenario",
    "simulate_scenario_batch",
]

BACKENDS = ("event", "vectorized", "auto")


class MissingKernelError(ValueError):
    """An explicit ``backend="vectorized"`` request for a scenario that has
    no registered vectorized kernel.

    Raised instead of silently running the event engine, so that
    ``--backend vectorized`` always means what it says; request ``auto``
    for the per-scenario fallback behaviour.
    """


def resolve_backend(scenario_id: str, backend: str) -> str:
    """Resolve a requested backend to the one that will actually run.

    ``"auto"`` resolves to ``"vectorized"`` exactly when a kernel is
    registered for ``scenario_id`` and to ``"event"`` otherwise (the
    per-scenario fallback).  ``"vectorized"`` demands a kernel: a scenario
    without one raises :class:`MissingKernelError` naming the scenario
    rather than silently falling back.  ``"event"`` is always honoured
    verbatim.
    """
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    if backend == "event":
        return "event"
    if has_kernel(scenario_id):
        return "vectorized"
    if backend == "vectorized":
        raise MissingKernelError(
            f"scenario {scenario_id!r} has no vectorized kernel; registered "
            f"kernels: {kernel_ids()}. Use backend='auto' to fall back to "
            f"the event engine for uncovered scenarios."
        )
    return "event"


def simulate_scenario_batch(
    scenario_id: str,
    seeds: Sequence[np.random.SeedSequence],
    params: Mapping[str, Any],
) -> list[dict[str, float]]:
    """Run all replications of ``scenario_id`` through its vectorized
    kernel (a ``direct`` kernel, the scenario's ``simulate``, once per
    seed).  Raises ``KeyError`` when no kernel is registered."""
    fn = get_kernel(scenario_id).fn
    if is_direct_kernel(scenario_id):
        return [fn(ss, params) for ss in seeds]
    rows = fn(seeds, params)
    if len(rows) != len(seeds):
        raise RuntimeError(
            f"kernel for {scenario_id} returned {len(rows)} rows for "
            f"{len(seeds)} seeds"
        )
    return rows


@dataclass(frozen=True)
class MetricSummary:
    """Aggregated statistics for one named metric across replications."""

    name: str
    mean: float
    half_width: float
    std: float
    minimum: float
    maximum: float
    level: float
    n: int

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form for JSON serialisation."""
        return {
            "name": self.name,
            "mean": self.mean,
            "half_width": self.half_width,
            "std": self.std,
            "min": self.minimum,
            "max": self.maximum,
            "level": self.level,
            "n": self.n,
        }


@dataclass(frozen=True)
class ScenarioResult:
    """Everything measured for one scenario run."""

    scenario_id: str
    title: str
    claim: str
    verdict: str
    n_replications: int
    seed: int | None
    params: dict[str, Any]
    metrics: dict[str, MetricSummary]
    checks: dict[str, bool]
    elapsed_seconds: float
    # check name -> "ExcType: message" for checks that raised instead of
    # returning; such checks appear as False in ``checks``
    check_errors: dict[str, str] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict, repr=False)
    backend: str = "event"  # the backend that actually ran (never "auto")
    # adaptive-precision bookkeeping: None for fixed-n runs, else the
    # target spec plus whether the achieved n (= n_replications) met it
    precision: dict[str, Any] | None = None
    # replications restored from the sample store instead of simulated
    cached_replications: int = 0

    @property
    def all_checks_pass(self) -> bool:
        """Whether every registered shape check holds for the aggregated
        metrics."""
        return all(self.checks.values())

    def means(self) -> dict[str, float]:
        """Metric name → point estimate."""
        return {name: s.mean for name, s in self.metrics.items()}

    def to_dict(self, *, include_samples: bool = False) -> dict[str, Any]:
        """Plain-dict form for JSON serialisation."""
        out: dict[str, Any] = {
            "scenario_id": self.scenario_id,
            "title": self.title,
            "claim": self.claim,
            "verdict": self.verdict,
            "n_replications": self.n_replications,
            "seed": self.seed,
            "params": _jsonable(self.params),
            "metrics": {k: v.to_dict() for k, v in self.metrics.items()},
            "checks": dict(self.checks),
            "check_errors": dict(self.check_errors),
            "all_checks_pass": self.all_checks_pass,
            "elapsed_seconds": self.elapsed_seconds,
            "backend": self.backend,
            "precision": self.precision,
            "cached_replications": self.cached_replications,
        }
        if include_samples:
            out["samples"] = {k: list(v) for k, v in self.samples.items()}
        return out


def _simulate_chunk(
    payload: tuple,
    seeds: Sequence[np.random.SeedSequence],
) -> list[dict[str, float]]:
    """Worker body: run a chunk of replications for one scenario.

    ``payload`` is ``(scenario_id, None, params, backend)`` for registered
    scenarios — the id is re-resolved inside the worker, so only plain
    data crosses the process boundary and the registry is re-populated by
    the import inside :func:`get_scenario` even under the ``spawn`` start
    method — or ``(scenario_id, simulate_fn, params, backend)`` for ad-hoc
    :class:`Scenario` objects that exist only in the calling process
    (their ``simulate`` must then itself be picklable; ad-hoc scenarios
    always run on the event backend).  ``backend`` is already resolved to
    ``"event"`` or ``"vectorized"``.  A vectorized chunk is one kernel
    call over the chunk's seeds — each replication still consumes only its
    own seed's streams, so chunking cannot change results.
    """
    scenario_id, simulate, params, backend = payload
    if backend == "vectorized" and simulate is None:
        return simulate_scenario_batch(scenario_id, seeds, params)
    if simulate is None:
        simulate = get_scenario(scenario_id).simulate
    return [simulate(ss, params) for ss in seeds]


def _aggregate(
    rows: list[dict[str, float]], level: float
) -> tuple[dict[str, MetricSummary], dict[str, list[float]]]:
    """Vectorised aggregation via :func:`repro.utils.stats.summarize_rows`.

    A metric reported by only ``k < n`` replications is aggregated over
    its ``k`` observations — its ``MetricSummary.n``, t-quantile and
    ``sqrt(n)`` all use ``k``, not the replication count — so intervals
    for partially-reported metrics are never optimistically narrow."""
    agg = summarize_rows(rows, level=level)
    metrics = {
        name: MetricSummary(
            name=name,
            mean=float(agg.mean[j]),
            half_width=float(agg.half_width[j]),
            std=float(agg.std[j]),
            minimum=float(agg.minimum[j]),
            maximum=float(agg.maximum[j]),
            level=level,
            n=int(agg.counts[j]),
        )
        for j, name in enumerate(agg.names)
    }
    samples = {name: agg.matrix[:, j].tolist() for j, name in enumerate(agg.names)}
    return metrics, samples


def run_scenario(
    scenario: Scenario | str,
    *,
    replications: int = 10,
    seed: int | None = 0,
    workers: int | None = 1,
    params: Mapping[str, Any] | None = None,
    level: float = 0.95,
    backend: str = "auto",
    target_precision: PrecisionTarget | float | None = None,
    min_reps: int | None = None,
    max_reps: int | None = None,
    cache_dir: str | os.PathLike | SampleStore | None = None,
) -> ScenarioResult:
    """Run one scenario for a fixed or adaptively chosen replication count.

    Parameters
    ----------
    scenario:
        A :class:`~repro.experiments.registry.Scenario` or its id.
    replications:
        Number of independent replications (ignored when
        ``target_precision`` is given — the controller picks ``n``).
    seed:
        Root seed; replication ``i`` always sees the same stream for a
        given root seed, independent of ``workers``.
    workers:
        Process count for the fan-out; ``None``/0 means all cores, 1 runs
        serially in-process.
    params:
        Overrides merged over the scenario's declared defaults.
    level:
        Confidence level for the per-metric intervals (and the adaptive
        stopping rule); must lie strictly inside (0, 1).
    backend:
        ``"event"``, ``"vectorized"`` or ``"auto"``.  Vectorized kernels
        are bit-for-bit equivalent to the event path (enforced by the
        cross-backend test harness), so ``"auto"`` — use the kernel when
        one exists — never changes results, only wall-clock time.
        Requesting ``"vectorized"`` for a scenario without a kernel (or
        for an ad-hoc, unregistered scenario object) raises
        :class:`MissingKernelError` naming the scenario instead of
        silently running the event engine.
    target_precision:
        Switch to adaptive sequential replication: a
        :class:`~repro.sim.sequential.PrecisionTarget`, or a bare float
        meaning a relative half-width target for every reported metric.
        Replications run in growing chunks until the target is met (or
        ``max_reps`` is hit); the achieved ``n`` is recorded in
        ``n_replications`` and the outcome in ``ScenarioResult.precision``.
        Stopping at ``n`` yields samples bit-identical to a fixed-``n``
        run with the same seed, for any worker count and either backend.
    min_reps, max_reps:
        Bounds for the adaptive controller (defaults
        ``DEFAULT_MIN_REPS``/``DEFAULT_MAX_REPS``); only valid together
        with ``target_precision``.
    cache_dir:
        Directory (or :class:`~repro.experiments.store.SampleStore`) of
        the content-addressed sample store.  Replications already cached
        for this ``(scenario, params, seed)`` are reused and only the
        remainder is simulated; afterwards the grown prefix is written
        back.  Requires a registered scenario and a non-``None`` seed
        (both are part of the content address).
    """
    if replications < 1:
        raise ValueError("need at least one replication")
    if not 0 < level < 1:
        raise ValueError(f"level must be in (0, 1), got {level}")
    if target_precision is None and (min_reps is not None or max_reps is not None):
        raise ValueError("min_reps/max_reps are only valid with target_precision")
    sc = get_scenario(scenario) if isinstance(scenario, str) else scenario
    merged = sc.params(params)
    registered = is_registered(sc)
    if registered:
        resolved = resolve_backend(sc.scenario_id, backend)
    else:
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}")
        if backend == "vectorized":
            raise MissingKernelError(
                f"ad-hoc scenario {sc.scenario_id!r} is not registered and "
                f"has no vectorized kernel; request backend='event' or "
                f"'auto' to run it on the event engine."
            )
        resolved = "event"
    store: SampleStore | None = None
    if cache_dir is not None:
        if not registered:
            raise ValueError(
                f"the sample store caches by scenario id, so ad-hoc scenario "
                f"{sc.scenario_id!r} (not the registered instance) cannot be "
                f"cached; run it without cache_dir"
            )
        if seed is None:
            raise ValueError(
                "seed=None draws fresh OS entropy, so cached samples could "
                "never be reused; pass an integer seed to use cache_dir"
            )
        store = (
            cache_dir if isinstance(cache_dir, SampleStore) else SampleStore(cache_dir)
        )
    # Registered scenarios ship only their id (workers re-resolve it, which
    # survives the spawn start method); ad-hoc Scenario objects ship their
    # simulate callable directly.
    payload = (sc.scenario_id, None if registered else sc.simulate, merged, resolved)

    cached_rows = store.load(sc.scenario_id, merged, seed) if store else None
    cached_rows = cached_rows or []
    precision: dict[str, Any] | None = None
    # elapsed_seconds is reporting-only; it never feeds metrics or seeds
    start = time.perf_counter()  # repro-lint: disable=REP003
    if target_precision is not None:

        def chunk(seed_slice: Sequence[np.random.SeedSequence]) -> list:
            return map_seed_chunks(
                _simulate_chunk, payload, seed_slice, workers=workers
            )

        outcome = run_sequential_replications(
            chunk,
            seed=seed,
            target=target_precision,
            min_reps=min_reps,
            max_reps=max_reps,
            level=level,
            initial_rows=cached_rows,
        )
        rows = outcome.rows
        achieved = outcome.n
        cached_used = achieved - outcome.simulated
        precision = {
            "target": outcome.target.to_dict(),
            "min_reps": outcome.min_reps,
            "max_reps": outcome.max_reps,
            "met": outcome.met,
            "unmet_metrics": list(outcome.unmet_metrics),
            "rounds": outcome.rounds,
        }
    else:
        seeds = spawn_seed_sequences(seed, replications)
        cached_used = min(len(cached_rows), replications)
        rows = cached_rows[:cached_used]
        if cached_used < replications:
            rows = rows + map_seed_chunks(
                _simulate_chunk, payload, seeds[cached_used:], workers=workers
            )
        achieved = replications
    elapsed = time.perf_counter() - start  # repro-lint: disable=REP003
    if store is not None:
        store.save(sc.scenario_id, merged, seed, rows)

    metrics, samples = _aggregate(rows, level)
    outcomes = sc.check_outcomes({k: v.mean for k, v in metrics.items()})
    checks = {name: out.passed for name, out in outcomes.items()}
    check_errors = {
        name: out.error for name, out in outcomes.items() if out.error is not None
    }
    return ScenarioResult(
        scenario_id=sc.scenario_id,
        title=sc.title,
        claim=sc.claim,
        verdict=sc.verdict,
        n_replications=achieved,
        seed=seed,
        params=dict(merged),
        metrics=metrics,
        checks=checks,
        check_errors=check_errors,
        elapsed_seconds=elapsed,
        samples=samples,
        backend=resolved,
        precision=precision,
        cached_replications=cached_used,
    )

