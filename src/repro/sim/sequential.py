"""Adaptive sequential replication control.

Classical fixed-``n`` replication either wastes simulation time (easy,
low-variance scenarios resolved long before ``n``) or under-resolves
(noisy heavy-traffic scenarios still reporting wide intervals at ``n``).
This module implements the classical output-analysis answer — *sequential
stopping on confidence-interval precision*: run replications in growing
chunks and stop as soon as every requested metric's interval half width
meets an absolute or relative target, within ``[min_reps, max_reps]``
bounds.

Determinism contract
--------------------
The controller spawns all ``max_reps`` replication seeds up front, in
order, from the root seed (:func:`repro.utils.rng.spawn_seed_sequences`)
and hands out contiguous prefixes.  Each replication consumes only its
own seed's streams, so

* stopping at ``n`` yields a sample matrix bit-identical to a fixed
  ``n``-replication run with the same root seed,
* the evaluation schedule (and therefore the achieved ``n``) is a pure
  function of the samples — identical for any worker count, for either
  simulation backend, and whether replications were freshly simulated or
  restored from the sample store (``initial_rows``).

The chunk callable receives a contiguous slice of the pre-spawned seed
list; vectorized backends consume such a slice natively as one kernel
call, and parallel runners may subdivide it across workers freely.

Layers above pass through unchanged: ``run_scenario(target_precision=…)``
plugs this controller in per scenario, and a parameter sweep
(:mod:`repro.experiments.sweeps`) applies it per sweep point — each point
stops at its own achieved ``n``, with the same determinism contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.utils.rng import spawn_seed_sequences
from repro.utils.stats import RowAggregate, summarize_rows

__all__ = [
    "DEFAULT_MIN_REPS",
    "DEFAULT_MAX_REPS",
    "PrecisionTarget",
    "SequentialOutcome",
    "run_sequential_replications",
]

DEFAULT_MIN_REPS = 5
DEFAULT_MAX_REPS = 1000

SimulateChunk = Callable[
    [Sequence[np.random.SeedSequence]], Sequence[Mapping[str, float]]
]


@dataclass(frozen=True)
class PrecisionTarget:
    """A confidence-interval precision requirement.

    A metric meets the target when its half width satisfies *any* given
    criterion: ``half_width <= absolute``, or
    ``relative_half_width <= relative`` (the classical "relative precision
    with an absolute floor" combination when both are set; the 0/0
    relative half width of a deterministic zero-valued metric counts as
    0, so such metrics are satisfiable).  ``metrics`` restricts which
    metrics must meet the target; ``None`` means every metric the
    scenario reports.
    """

    relative: float | None = None
    absolute: float | None = None
    metrics: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.relative is None and self.absolute is None:
            raise ValueError(
                "a PrecisionTarget needs a relative and/or absolute half-width "
                "target"
            )
        for label, value in (("relative", self.relative), ("absolute", self.absolute)):
            if value is not None and not 0 < value < math.inf:
                raise ValueError(
                    f"{label} precision target must be > 0 and finite, got {value}"
                )
        if self.metrics is not None:
            object.__setattr__(self, "metrics", tuple(self.metrics))
            if not self.metrics:
                raise ValueError("metrics must be a non-empty tuple or None")

    @classmethod
    def coerce(cls, value: "PrecisionTarget | float") -> "PrecisionTarget":
        """Accept a bare float as a relative half-width target."""
        if isinstance(value, cls):
            return value
        return cls(relative=float(value))

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form for JSON serialisation."""
        return {
            "relative": self.relative,
            "absolute": self.absolute,
            "metrics": list(self.metrics) if self.metrics is not None else None,
        }

    def ratios(self, agg: RowAggregate) -> dict[str, float]:
        """Per-requested-metric ``achieved / allowed`` half-width ratio.

        A ratio ``<= 1`` means the metric meets the target; ``inf`` means
        the metric has no dispersion estimate yet (fewer than two
        observations), can never meet a relative target (nonzero width
        around a zero mean), or was requested but never reported.
        """
        rel = agg.relative_half_width
        out: dict[str, float] = {}
        for name in self.metrics if self.metrics is not None else agg.names:
            if name not in agg.names:
                out[name] = math.inf
                continue
            j = agg.index(name)
            ratio = math.inf
            if self.absolute is not None:
                ratio = min(ratio, agg.half_width[j] / self.absolute)
            if self.relative is not None:
                ratio = min(ratio, rel[j] / self.relative)
            out[name] = float(ratio)
        return out


@dataclass(frozen=True)
class SequentialOutcome:
    """What the sequential controller decided and measured.

    ``rows`` holds exactly ``n`` replication rows — bit-identical to a
    fixed ``n``-replication run from the same root seed.  ``simulated``
    counts the rows freshly produced by this call (``n - simulated`` came
    from ``initial_rows``).
    """

    rows: list[dict[str, float]]
    n: int
    met: bool
    unmet_metrics: tuple[str, ...]
    rounds: int
    simulated: int
    min_reps: int
    max_reps: int
    target: PrecisionTarget = field(repr=False)


def _next_target(n: int, worst_ratio: float, max_reps: int) -> int:
    """The next evaluation point of the growth schedule.

    The half width shrinks like ``1/sqrt(n)``, so the projected
    requirement is ``n * worst_ratio**2`` (plus 10% safety); growth is
    clamped to at most doubling per round — the projection only *damps*
    the final chunk, avoiding overshoot when the target is nearly met.
    """
    if math.isfinite(worst_ratio):
        projected = math.ceil(n * worst_ratio**2 * 1.1)
    else:
        projected = 2 * n
    return min(max_reps, max(n + 1, min(projected, 2 * n)))


def run_sequential_replications(
    simulate_chunk: SimulateChunk,
    *,
    seed: int | np.random.SeedSequence | None,
    target: PrecisionTarget | float,
    min_reps: int | None = None,
    max_reps: int | None = None,
    level: float = 0.95,
    initial_rows: Sequence[Mapping[str, float]] = (),
) -> SequentialOutcome:
    """Run replications in growing chunks until ``target`` is met.

    Parameters
    ----------
    simulate_chunk:
        Maps a contiguous slice of the pre-spawned seed list to one row
        (metric dict) per seed, in order.  Called once per growth round.
    seed:
        Root seed; all ``max_reps`` replication seeds are spawned from it
        up front, so the sample prefix never depends on where the
        controller stops.
    target:
        A :class:`PrecisionTarget`, or a bare float meaning a relative
        half-width target on every reported metric.
    min_reps, max_reps:
        Evaluation starts at ``min_reps`` (default ``DEFAULT_MIN_REPS``)
        and the controller never exceeds ``max_reps`` (default
        ``DEFAULT_MAX_REPS``); at the cap it stops with ``met=False``.
    level:
        Confidence level the stopping rule (and any report built from the
        same rows) uses.
    initial_rows:
        Previously simulated rows for the *same* root seed, in
        replication order (e.g. restored from the sample store).  They
        are trusted verbatim: only seeds beyond ``len(initial_rows)`` are
        simulated, and the evaluation schedule is unchanged, so a resumed
        run stops at the same ``n`` with the same samples as a cold run.
    """
    target = PrecisionTarget.coerce(target)
    min_reps = DEFAULT_MIN_REPS if min_reps is None else int(min_reps)
    max_reps = DEFAULT_MAX_REPS if max_reps is None else int(max_reps)
    if min_reps < 2:
        raise ValueError(
            f"min_reps must be at least 2 (an interval needs two "
            f"replications), got {min_reps}"
        )
    if max_reps < min_reps:
        raise ValueError(f"max_reps ({max_reps}) must be >= min_reps ({min_reps})")
    if not 0 < level < 1:
        raise ValueError(f"level must be in (0, 1), got {level}")

    seeds = spawn_seed_sequences(seed, max_reps)
    rows: list[dict[str, float]] = [dict(r) for r in initial_rows][:max_reps]
    simulated = 0
    rounds = 0
    n_t = min_reps
    while True:
        need = n_t - len(rows)
        if need > 0:
            fresh = list(simulate_chunk(seeds[len(rows) : n_t]))
            if len(fresh) != need:
                raise RuntimeError(
                    f"simulate_chunk returned {len(fresh)} rows for {need} seeds"
                )
            rows.extend(dict(r) for r in fresh)
            simulated += need
        agg = summarize_rows(rows[:n_t], level=level)
        rounds += 1
        ratios = target.ratios(agg)
        unmet = tuple(name for name, r in ratios.items() if not r <= 1.0)
        if not unmet or n_t >= max_reps:
            return SequentialOutcome(
                rows=rows[:n_t],
                n=n_t,
                met=not unmet,
                unmet_metrics=unmet,
                rounds=rounds,
                simulated=simulated,
                min_reps=min_reps,
                max_reps=max_reps,
                target=target,
            )
        n_t = _next_target(n_t, max(ratios.values()), max_reps)
