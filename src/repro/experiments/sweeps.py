"""Declarative parameter sweeps over registered scenarios.

The paper's experiments are fundamentally *sweeps* — traffic-intensity
grids for the heavy-traffic and instability studies, fleet-size and
switchover scalings — yet :func:`~repro.experiments.runner.run_scenario`
runs exactly one parameter point.  This module multiplies a registered
scenario into a *family* of parameter points from a declarative spec:

* :class:`SweepSpec` — which scenario, which parameter axes, and how the
  axes combine (``grid``: cartesian product; ``zip``: lockstep tuples;
  ``list``: explicit points), plus fixed ``base`` overrides applied to
  every point.  Axis names are validated against the scenario's declared
  parameter schema (its ``defaults``) before any simulation runs.
* :func:`run_sweep` — expands the spec into concrete
  :class:`SweepPoint` s and runs each through
  :func:`~repro.experiments.runner.run_scenario`, so every runner
  feature applies per point: the vectorized backend, the adaptive
  sequential controller (``target_precision`` — each point stops at its
  own achieved ``n``), and the content-addressed sample store
  (``cache_dir`` — each point's params address a distinct store entry,
  so a re-run of the same grid loads every point from cache and a grown
  grid only simulates the new points).
* :class:`SweepResult` — the per-point results plus the aggregate views:
  a long-form table keyed by ``(scenario_id, axis values)`` (one row per
  point per metric) and per-axis marginal summaries (metric means
  averaged over the other axes).
* :data:`RUN_DEFAULTS` and :func:`check_run_options` — the runner
  options every entry point shares (``repro-experiments run``,
  ``repro-sweep run`` and daemon submissions), their defaults and their
  one validation; :func:`sweep_run_config` turns them into a sweep
  document's ``config`` block.

Determinism contract
--------------------
Every point derives its replication seeds from the *same* root seed, so
(a) points are common-random-number comparable — replication ``i`` sees
the same streams at every point — and (b) the sweep inherits the runner's
guarantees verbatim: per-point samples are bit-identical whether the grid
is run whole, point by point through :func:`run_scenario`, resumed from
the sample store, or executed on either backend with any worker count.

Typical use::

    from repro.experiments import SweepSpec, run_sweep

    spec = SweepSpec("E1", axes={"n_jobs": [20, 40, 80], "n_brute": [5, 6]})
    sweep = run_sweep(spec, replications=20, seed=0)
    for row in sweep.table():
        print(row["axes"], row["metric"], row["mean"])
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from itertools import product
from typing import Any, Callable, Mapping, Sequence

from repro.experiments.registry import Scenario, get_scenario
from repro.experiments.runner import BACKENDS, ScenarioResult, run_scenario
from repro.experiments.store import SampleStore
from repro.sim.sequential import (
    DEFAULT_MAX_REPS,
    DEFAULT_MIN_REPS,
    PrecisionTarget,
)
from repro.utils.serialization import jsonable

import repro

__all__ = [
    "SWEEP_MODES",
    "SWEEP_SCHEMA",
    "RUN_DEFAULTS",
    "SweepSpec",
    "SweepPoint",
    "SweepResult",
    "run_sweep",
    "check_run_options",
    "sweep_run_config",
]

SWEEP_MODES = ("grid", "zip", "list")
SWEEP_SCHEMA = "repro.sweeps/v1"


@dataclass(frozen=True)
class SweepPoint:
    """One concrete parameter point of an expanded sweep.

    Attributes
    ----------
    index:
        Position in the expanded (unfiltered) point list; stable across
        ``where`` filtering so a filtered run's points can be matched
        against the full grid.
    scenario_id:
        The swept scenario's id.
    axis_values:
        This point's value on every sweep axis, in axis order.
    overrides:
        The parameter overrides handed to the runner: the spec's ``base``
        mapping with ``axis_values`` merged on top.
    """

    index: int
    scenario_id: str
    axis_values: Mapping[str, Any]
    overrides: Mapping[str, Any]

    def matches(self, where: Mapping[str, Any]) -> bool:
        """Whether this point's axis values agree with every ``where``
        entry (values are compared after canonical JSON normalisation, so
        ``(0.6,) == [0.6]`` and numpy scalars equal Python scalars)."""
        return all(
            name in self.axis_values
            and jsonable(self.axis_values[name]) == jsonable(value)
            for name, value in where.items()
        )

    def label(self) -> str:
        """Compact human-readable ``name=value`` form for progress lines."""
        return " ".join(f"{k}={v!r}" for k, v in self.axis_values.items())

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form for JSON serialisation."""
        return {
            "index": self.index,
            "scenario_id": self.scenario_id,
            "axis_values": jsonable(dict(self.axis_values)),
            "overrides": jsonable(dict(self.overrides)),
        }


@dataclass(frozen=True)
class SweepSpec:
    """A declarative sweep: one scenario, several parameter axes.

    Parameters
    ----------
    scenario_id:
        Id of a registered scenario; axis and base names are validated
        against its declared parameter schema (``Scenario.defaults``).
    axes:
        Ordered mapping of parameter name to the sequence of values that
        axis takes (``grid``/``zip`` modes).  Ignored in ``list`` mode.
    mode:
        ``"grid"`` — cartesian product of the axes in declaration order,
        last axis fastest (like nested for-loops); ``"zip"`` — axes of
        equal length advanced in lockstep (point ``i`` takes each axis's
        ``i``-th value); ``"list"`` — the explicit ``points`` mappings
        are the sweep, and the axis names are the union of their keys.
    points:
        Explicit parameter points for ``list`` mode; each mapping may
        cover a different subset of the listed axes (absent names fall
        back to ``base``/defaults for that point).
    base:
        Fixed parameter overrides applied to every point (axis values win
        on conflict — but a name may not be both an axis and a base key).
    """

    scenario_id: str
    axes: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    mode: str = "grid"
    points: Sequence[Mapping[str, Any]] | None = None
    base: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mode not in SWEEP_MODES:
            raise ValueError(
                f"unknown sweep mode {self.mode!r}; choose from {SWEEP_MODES}"
            )
        axes = {str(k): tuple(v) for k, v in dict(self.axes).items()}
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "base", dict(self.base))
        if self.points is not None:
            object.__setattr__(
                self, "points", tuple(dict(p) for p in self.points)
            )
        if self.mode == "list":
            if not self.points:
                raise ValueError("mode='list' needs a non-empty points sequence")
            if axes:
                raise ValueError(
                    "mode='list' takes explicit points; axes must be empty"
                )
        else:
            if self.points is not None:
                raise ValueError(
                    f"explicit points require mode='list' (got {self.mode!r})"
                )
            if not axes:
                raise ValueError(f"mode={self.mode!r} needs at least one axis")
            for name, values in axes.items():
                if not values:
                    raise ValueError(f"axis {name!r} has no values")
            if self.mode == "zip":
                lengths = {name: len(v) for name, v in axes.items()}
                if len(set(lengths.values())) > 1:
                    raise ValueError(
                        f"mode='zip' needs equal-length axes, got {lengths}"
                    )
        clash = sorted(set(self.axis_names) & set(self.base))
        if clash:
            raise ValueError(
                f"parameter(s) {clash} appear both as a sweep axis and in "
                f"base; a name must be one or the other"
            )

    @property
    def axis_names(self) -> tuple[str, ...]:
        """The swept parameter names, in declaration (or first-seen) order."""
        if self.mode == "list":
            names: dict[str, None] = {}
            for point in self.points or ():
                for name in point:
                    names.setdefault(str(name))
            return tuple(names)
        return tuple(self.axes)

    def resolve(self) -> Scenario:
        """Look up the scenario and validate every swept/base name against
        its parameter schema; raises ``KeyError`` naming the offender."""
        sc = get_scenario(self.scenario_id)
        known = set(sc.defaults)
        for kind, names in (("axis", self.axis_names), ("base", tuple(self.base))):
            for name in names:
                if name not in known:
                    raise KeyError(
                        f"sweep {kind} {name!r} is not a parameter of "
                        f"{sc.scenario_id}; known: {sorted(known)}"
                    )
        return sc

    def expand(self) -> list[SweepPoint]:
        """Expand into concrete :class:`SweepPoint` s (validates first).

        ``grid`` enumerates the cartesian product in row-major order
        (first axis slowest), ``zip`` pairs the axes elementwise, and
        ``list`` passes the explicit points through in order.
        """
        sc = self.resolve()
        combos: list[dict[str, Any]]
        if self.mode == "list":
            combos = [dict(p) for p in self.points or ()]
        elif self.mode == "zip":
            n = len(next(iter(self.axes.values())))
            combos = [
                {name: values[i] for name, values in self.axes.items()}
                for i in range(n)
            ]
        else:
            combos = [
                dict(zip(self.axes, values))
                for values in product(*self.axes.values())
            ]
        return [
            SweepPoint(
                index=i,
                scenario_id=sc.scenario_id,
                axis_values=combo,
                overrides={**self.base, **combo},
            )
            for i, combo in enumerate(combos)
        ]

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form for JSON serialisation."""
        return {
            "scenario_id": self.scenario_id,
            "mode": self.mode,
            "axes": jsonable({k: list(v) for k, v in self.axes.items()}),
            "points": (
                jsonable([dict(p) for p in self.points])
                if self.points is not None
                else None
            ),
            "base": jsonable(dict(self.base)),
        }

    @classmethod
    def from_dict(cls, obj: Mapping[str, Any]) -> "SweepSpec":
        """Rebuild a spec from its :meth:`to_dict` form.

        The inverse used by the serving layer to accept
        ``repro.sweeps/v1``-shaped submissions over the wire; unknown
        keys raise so a malformed document fails loudly instead of
        silently dropping configuration.
        """
        if not isinstance(obj, Mapping):
            raise ValueError(f"sweep spec must be a mapping, got {type(obj).__name__}")
        known = {"scenario_id", "mode", "axes", "points", "base"}
        unknown = sorted(set(obj) - known)
        if unknown:
            raise ValueError(f"sweep spec has unknown key(s) {unknown}")
        if "scenario_id" not in obj:
            raise ValueError("sweep spec needs a scenario_id")
        scenario_id = obj["scenario_id"]
        if not isinstance(scenario_id, str):
            raise ValueError("sweep spec scenario_id must be a string")
        axes = obj.get("axes") or {}
        base = obj.get("base") or {}
        points = obj.get("points")
        if not isinstance(axes, Mapping):
            raise ValueError("sweep spec axes must be a mapping of name -> values")
        if not isinstance(base, Mapping):
            raise ValueError("sweep spec base must be a mapping")
        if points is not None and (
            isinstance(points, (str, Mapping))
            or not all(isinstance(p, Mapping) for p in points)
        ):
            raise ValueError("sweep spec points must be a sequence of mappings")
        return cls(
            scenario_id,
            axes=axes,
            mode=obj.get("mode", "grid"),
            points=points,
            base=base,
        )


@dataclass(frozen=True)
class SweepResult:
    """Everything measured for one sweep: per-point results + aggregates.

    ``points[i]`` and ``results[i]`` correspond; ``where`` records any
    point filter that was applied (empty mapping = the full grid ran).
    """

    spec: SweepSpec
    points: tuple[SweepPoint, ...]
    results: tuple[ScenarioResult, ...]
    elapsed_seconds: float
    where: Mapping[str, Any] = field(default_factory=dict)

    @property
    def all_checks_pass(self) -> bool:
        """Whether every point passes all of its scenario's shape checks."""
        return all(r.all_checks_pass for r in self.results)

    @property
    def total_replications(self) -> int:
        """Replications across all points (cached + freshly simulated)."""
        return sum(r.n_replications for r in self.results)

    @property
    def cached_replications(self) -> int:
        """Replications restored from the sample store across all points."""
        return sum(r.cached_replications for r in self.results)

    def table(self) -> list[dict[str, Any]]:
        """The long-form result table: one row per (point, metric).

        Each row is keyed by ``(scenario_id, axes)`` — the point's axis
        values under ``"axes"`` — and carries that metric's aggregated
        statistics, plus the point-level bookkeeping (``n_replications``,
        ``cached_replications``, ``backend``, ``all_checks_pass``).
        """
        rows = []
        for point, res in zip(self.points, self.results):
            for name in sorted(res.metrics):
                m = res.metrics[name]
                rows.append(
                    {
                        "scenario_id": res.scenario_id,
                        "point": point.index,
                        "axes": jsonable(dict(point.axis_values)),
                        "metric": name,
                        "mean": m.mean,
                        "half_width": m.half_width,
                        "std": m.std,
                        "min": m.minimum,
                        "max": m.maximum,
                        "n": m.n,
                        "n_replications": res.n_replications,
                        "cached_replications": res.cached_replications,
                        "backend": res.backend,
                        "all_checks_pass": res.all_checks_pass,
                    }
                )
        return rows

    def axis_summary(self, axis: str) -> list[dict[str, Any]]:
        """Marginal summary along one axis: for each distinct value (in
        first-seen order), every metric's mean averaged over the points
        taking that value (i.e. over the other axes)."""
        if axis not in self.spec.axis_names:
            raise KeyError(
                f"unknown axis {axis!r}; sweep axes: {list(self.spec.axis_names)}"
            )
        groups: dict[str, dict[str, Any]] = {}
        for point, res in zip(self.points, self.results):
            if axis not in point.axis_values:
                continue  # list-mode point not covering this axis
            value = point.axis_values[axis]
            key = repr(jsonable(value))
            row = groups.setdefault(
                key, {"value": jsonable(value), "n_points": 0, "metrics": {}}
            )
            row["n_points"] += 1
            for name, m in res.metrics.items():
                row["metrics"].setdefault(name, []).append(m.mean)
        out = []
        for row in groups.values():
            out.append(
                {
                    "value": row["value"],
                    "n_points": row["n_points"],
                    "metrics": {
                        name: sum(vals) / len(vals)
                        for name, vals in sorted(row["metrics"].items())
                    },
                }
            )
        return out

    def to_document(
        self,
        *,
        config: Mapping[str, Any] | None = None,
        include_samples: bool = False,
    ) -> dict[str, Any]:
        """The versioned sweep JSON document (schema ``repro.sweeps/v1``).

        Bundles the spec, the per-point scenario results, the long-form
        table, and the per-axis marginal summaries; ``config`` records
        the run configuration for reproducibility.  Non-finite floats are
        mapped to ``null`` (strict RFC 8259) by the JSON serialiser in
        :mod:`repro.experiments.report`.
        """
        return {
            "schema": SWEEP_SCHEMA,
            "generated_by": f"repro {repro.__version__}",
            "spec": self.spec.to_dict(),
            "where": jsonable(dict(self.where)),
            "config": dict(config or {}),
            "n_points": len(self.points),
            "all_checks_pass": self.all_checks_pass,
            "total_replications": self.total_replications,
            "cached_replications": self.cached_replications,
            "elapsed_seconds": self.elapsed_seconds,
            "points": [
                {
                    **point.to_dict(),
                    "result": res.to_dict(include_samples=include_samples),
                }
                for point, res in zip(self.points, self.results)
            ],
            "table": self.table(),
            "axis_summaries": {
                axis: self.axis_summary(axis) for axis in self.spec.axis_names
            },
        }


def run_sweep(
    spec: SweepSpec,
    *,
    replications: int = 10,
    seed: int | None = 0,
    workers: int | None = 1,
    level: float = 0.95,
    backend: str = "auto",
    target_precision: PrecisionTarget | float | None = None,
    min_reps: int | None = None,
    max_reps: int | None = None,
    cache_dir: str | os.PathLike | SampleStore | None = None,
    where: Mapping[str, Any] | None = None,
    progress: Callable[[SweepPoint, ScenarioResult], None] | None = None,
) -> SweepResult:
    """Expand ``spec`` and run every point through the scenario runner.

    All keyword arguments after ``spec`` are per-point runner
    configuration with :func:`~repro.experiments.runner.run_scenario`
    semantics: ``backend`` selects the simulation backend for every
    point, ``target_precision``/``min_reps``/``max_reps`` switch each
    point to the adaptive sequential controller (each point stops at its
    own achieved ``n``), and ``cache_dir`` plugs in the sample store —
    because the store keys on ``(scenario_id, params, seed)``, every
    point addresses its own entry, so re-running a sweep against the
    same store loads every point from cache.

    Parameters
    ----------
    spec:
        The declarative sweep (validated and expanded before any
        simulation runs).
    where:
        Optional point filter: keep only points whose axis values match
        every entry (compared after canonical JSON normalisation).
        Filtering changes *which* points run, never their samples.
    progress:
        Optional callback invoked with ``(point, result)`` as each point
        completes (the CLI uses it for its per-point status line).

    Returns
    -------
    SweepResult
        Per-point results in point order, plus the aggregate table and
        per-axis summary views.
    """
    points = spec.expand()
    if where:
        unknown = sorted(set(where) - set(spec.axis_names))
        if unknown:
            raise KeyError(
                f"where filter names non-axis parameter(s) {unknown}; "
                f"sweep axes: {list(spec.axis_names)}"
            )
        points = [p for p in points if p.matches(where)]
        if not points:
            raise ValueError(
                f"where filter {dict(where)!r} matches no point of the sweep"
            )
    # elapsed_seconds is reporting-only; it never feeds metrics or seeds
    start = time.perf_counter()  # repro-lint: disable=REP003
    results = []
    for point in points:
        result = run_scenario(
            point.scenario_id,
            replications=replications,
            seed=seed,
            workers=workers,
            params=point.overrides,
            level=level,
            backend=backend,
            target_precision=target_precision,
            min_reps=min_reps,
            max_reps=max_reps,
            cache_dir=cache_dir,
        )
        results.append(result)
        if progress is not None:
            progress(point, result)
    elapsed = time.perf_counter() - start  # repro-lint: disable=REP003
    return SweepResult(
        spec=spec,
        points=tuple(points),
        results=tuple(results),
        elapsed_seconds=elapsed,
        where=dict(where or {}),
    )


#: The runner options shared by ``repro-experiments run``, ``repro-sweep
#: run`` and daemon submissions, with their defaults: every CLI flag
#: default reads from here, and a submission's empty ``run`` block means
#: what the one-shot CLI would have done.
RUN_DEFAULTS: dict[str, Any] = {
    "replications": 10,
    "seed": 0,
    "workers": 1,
    "backend": "auto",
    "level": 0.95,
    "target_precision": None,
    "min_reps": None,
    "max_reps": None,
}


def _integer(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_run_options(
    run: Mapping[str, Any], *, name: Callable[[str], str] = "run.{}".format
) -> dict[str, Any]:
    """Validate runner options and fill in their defaults.

    The one check behind every boundary: the CLIs map its ``ValueError``
    to exit status 2 and the daemon to an HTTP 400, so an option one of
    them accepts never fails later inside the runner.  ``name`` spells an
    option key the way the caller's user wrote it (``run.min_reps`` by
    default, ``--min-reps`` for a CLI); the error message names the
    offending option that way.  Returns the mapping with every
    :data:`RUN_DEFAULTS` key present.
    """
    if not isinstance(run, Mapping):
        raise ValueError(f"run must be a mapping, got {type(run).__name__}")
    unknown = sorted(set(run) - set(RUN_DEFAULTS))
    if unknown:
        raise ValueError(
            f"run has unknown option(s) {unknown}; known: {sorted(RUN_DEFAULTS)}"
        )
    merged = {**RUN_DEFAULTS, **run}

    def check(key: str, ok: Callable[[Any], bool], rule: str) -> None:
        if not ok(merged[key]):
            raise ValueError(f"{name(key)} must be {rule} (got {merged[key]!r})")

    check("replications", lambda v: _integer(v) and v >= 1, "an integer >= 1")
    check("seed", lambda v: _integer(v) and v >= 0, "an integer >= 0")
    check("workers", lambda v: _integer(v) and v >= 0,
          "an integer >= 0, 0 meaning all cores")
    check("backend", lambda v: v in BACKENDS, f"one of {BACKENDS}")
    check("level", lambda v: _number(v) and 0 < v < 1,
          "a number strictly between 0 and 1, e.g. 0.95")
    check("target_precision",
          lambda v: v is None or (_number(v) and 0 < v < math.inf),
          "a finite number > 0")
    for key in ("min_reps", "max_reps"):
        if merged[key] is not None and merged["target_precision"] is None:
            raise ValueError(f"{name(key)} requires {name('target_precision')}")
        check(key, lambda v: v is None or (_integer(v) and v >= 2),
              "an integer >= 2")
    if merged["target_precision"] is not None:
        lo = DEFAULT_MIN_REPS if merged["min_reps"] is None else merged["min_reps"]
        hi = DEFAULT_MAX_REPS if merged["max_reps"] is None else merged["max_reps"]
        if hi < lo:
            raise ValueError(
                f"{name('max_reps')} ({hi}) must be >= {name('min_reps')} ({lo})"
            )
    return merged


def sweep_run_config(
    *,
    replications: int,
    seed: int | None,
    workers: int | None,
    backend: str,
    resolved_backends: Sequence[str],
    level: float,
    target_precision: float | None,
    min_reps: int | None,
    max_reps: int | None,
    cache_dir: Any,
) -> dict[str, Any]:
    """The ``config`` mapping embedded in a sweep document.

    One shared constructor — used by the ``repro-sweep`` CLI and the
    serving daemon (:mod:`repro.serve`) — so documents produced by both
    paths carry an identical ``config`` block (same keys, same order) and
    the serving layer's byte-identity contract can hold.
    """
    return {
        "replications": replications,
        "seed": seed,
        "workers": workers,
        "backend_requested": backend,
        "resolved_backends": sorted(set(resolved_backends)),
        "level": level,
        "target_precision": target_precision,
        "min_reps": min_reps,
        "max_reps": max_reps,
        "cache_dir": (
            os.fspath(cache_dir)
            if isinstance(cache_dir, (str, os.PathLike))
            else None
            if cache_dir is None
            else type(cache_dir).__name__
        ),
    }
