"""Declarative registry of reproduction scenarios.

A :class:`Scenario` is one paper claim packaged as a runnable experiment:
a per-replication ``simulate`` function, default parameters, the claim text
it validates, and *shape checks* — named predicates over the measured
metrics that encode "who wins, by what order" rather than absolute numbers.

This module is the one id-keyed table: each id maps to one record
holding the scenario, its optional vectorized kernel, its pack
provenance and its owner.  Scenarios reach it through *scenario packs*
(:mod:`repro.experiments.packs`): each built-in family pack — and any
third-party pack installed under the ``repro.scenario_packs`` entry-point
group — declares its scenarios (and optional vectorized kernels) in a
:class:`~repro.experiments.packs.ScenarioPack` manifest whose registration
writes one record per scenario.  Ad-hoc scenarios may also be registered
directly via :func:`register`.  Everything downstream (the replication
runner, the CLIs, the report generator, the benchmarks) discovers
experiments by id through :func:`get_scenario` / :func:`list_scenarios`,
and kernels through :func:`has_kernel` / :func:`get_kernel`, instead of
hard-coding workloads.  Packs are discovered on the first lookup.

The per-replication contract is::

    def simulate(ss: np.random.SeedSequence, params: Mapping[str, Any]) -> dict[str, float]

``ss`` is a dedicated child seed sequence for this replication; the
scenario derives whatever streams it needs from it (independent streams
via ``spawn``, or common-random-number streams via
:func:`repro.utils.rng.crn_generators` when comparing policies on the same
draws).  The return value maps metric names to floats; boolean facts are
encoded as 0.0/1.0 so every metric aggregates uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.utils.rng import as_seed_sequence
from repro.utils.schema import schema_errors

__all__ = [
    "Scenario",
    "CheckOutcome",
    "ParamValidationError",
    "VectorizedKernel",
    "register",
    "is_registered",
    "get_scenario",
    "list_scenarios",
    "scenario_ids",
    "pack_info",
    "has_kernel",
    "get_kernel",
    "is_direct_kernel",
    "kernel_ids",
]

SimulateFn = Callable[[np.random.SeedSequence, Mapping[str, Any]], "dict[str, float]"]
CheckFn = Callable[[Mapping[str, float]], bool]
BatchSimulateFn = Callable[
    [Sequence[np.random.SeedSequence], Mapping[str, Any]], "list[dict[str, float]]"
]

class ParamValidationError(ValueError):
    """Parameter values that violate a scenario's declared JSON schema.

    A subclass of :class:`ValueError` so existing ``except ValueError``
    funnels (e.g. the sweep CLI's) keep converting it to a clean exit-2
    user error.
    """


@dataclass(frozen=True)
class CheckOutcome:
    """The result of evaluating one shape check: pass/fail plus the
    exception summary when the check itself raised."""

    passed: bool
    error: str | None = None


def _fingerprint(fn: Callable) -> tuple:
    """Identity of a simulate callable that survives module re-imports.

    ``importlib.reload`` (and importing the same pack file under two
    module names) creates a *new* function object from the *same* source
    location, so object identity is the wrong equality; the qualname plus
    code location is stable across those re-imports while still telling
    genuinely different functions apart."""
    code = getattr(fn, "__code__", None)
    if code is None:
        return (id(fn),)
    return (fn.__qualname__, code.co_filename, code.co_firstlineno)


@dataclass(frozen=True)
class VectorizedKernel:
    """A scenario's vectorized kernel: the batch simulate function plus
    a note on its strategy.

    A kernel is one of two kinds, and which is read off the function
    (:func:`is_direct_kernel`), never declared.  A *batched* kernel is a
    separate function: ``fn(seeds, params)`` runs all replications of the
    scenario at once and returns one metric dict per seed, bit-for-bit
    equal to what the scenario's ``simulate`` returns for that seed (the
    rules a kernel follows to keep that are listed in
    :mod:`repro.sim.vectorized`).  A *direct* kernel is the scenario's
    own ``simulate`` (the kernel decorator stacked on it), used when
    nothing is worth batching: the runner calls it once per seed, and the
    scenario still runs on (and ``auto`` still resolves to) the
    vectorized backend.
    """

    fn: BatchSimulateFn | SimulateFn
    note: str = ""


@dataclass(frozen=True)
class Scenario:
    """One registered experiment: a paper claim plus the code measuring it.

    Attributes
    ----------
    scenario_id:
        Canonical id (``"E1"`` … ``"E19"`` for the survey claims).
    title:
        One-line human title shown in listings and report headings.
    claim:
        The paper claim this scenario reproduces (verbatim-ish, with the
        survey's reference numbers).
    verdict:
        The expected outcome summary written into generated reports.
    simulate:
        Per-replication measurement function (see module docstring).
    defaults:
        Default parameter values; CLI/benchmark overrides are merged on top.
    checks:
        Named shape predicates over a metrics mapping.  They are evaluated
        on aggregated means by the runner and may equally be applied to a
        single replication's metrics by tests/benchmarks.
    tags:
        Free-form labels (subsystem names, ``"exact"`` vs ``"simulation"``)
        used for subset selection.
    schema:
        Optional JSON-schema fragment (see :mod:`repro.utils.schema`) for
        the merged parameter mapping.  When present, :meth:`params`
        validates every merged mapping against it and registration
        validates the declared defaults.
    """

    scenario_id: str
    title: str
    claim: str
    verdict: str
    simulate: SimulateFn
    defaults: Mapping[str, Any] = field(default_factory=dict)
    checks: Mapping[str, CheckFn] = field(default_factory=dict)
    tags: tuple[str, ...] = ()
    schema: Mapping[str, Any] | None = None

    def params(self, overrides: Mapping[str, Any] | None = None) -> dict[str, Any]:
        """Defaults merged with ``overrides``; unknown keys are rejected
        and, when the scenario declares a schema, the merged mapping is
        validated against it (:class:`ParamValidationError` on failure)."""
        merged = dict(self.defaults)
        for key, value in (overrides or {}).items():
            if key not in merged:
                raise KeyError(
                    f"{self.scenario_id} has no parameter {key!r}; "
                    f"known: {sorted(merged)}"
                )
            merged[key] = value
        self.validate_params(merged)
        return merged

    def validate_params(self, params: Mapping[str, Any]) -> None:
        """Validate a full parameter mapping against the declared schema.

        A scenario without a schema accepts anything (the unknown-key
        check in :meth:`params` still applies); with one, every violation
        is reported in a single :class:`ParamValidationError` naming the
        scenario and the offending parameter path."""
        if self.schema is None:
            return
        errors = schema_errors(params, self.schema, path="")
        if errors:
            raise ParamValidationError(
                f"invalid parameters for scenario {self.scenario_id}: "
                + "; ".join(errors)
                + ". Fix the value(s) or drop the override(s) to use the "
                f"declared defaults {dict(self.defaults)!r}."
            )

    def run_once(
        self,
        seed: int | np.random.SeedSequence | None = None,
        overrides: Mapping[str, Any] | None = None,
    ) -> dict[str, float]:
        """Run a single replication with the given seed and overrides."""
        return self.simulate(as_seed_sequence(seed), self.params(overrides))

    def check_outcomes(
        self, metrics: Mapping[str, float]
    ) -> dict[str, CheckOutcome]:
        """Evaluate every shape check, capturing per-check exceptions.

        A check that raises *any* exception — a ``KeyError`` for a metric
        absent from ``metrics``, but equally a ``ZeroDivisionError`` or
        ``TypeError`` on degenerate metric values — counts as failed with
        the exception summarised in :attr:`CheckOutcome.error`, instead of
        aborting the whole (possibly multi-scenario) run."""
        out = {}
        for name, fn in self.checks.items():
            try:
                out[name] = CheckOutcome(passed=bool(fn(metrics)))
            except Exception as exc:
                out[name] = CheckOutcome(
                    passed=False, error=f"{type(exc).__name__}: {exc}"
                )
        return out


@dataclass(frozen=True)
class _Record:
    """Everything the registry knows about one id."""

    scenario: Scenario
    # human-readable owner ("module 'x'" / "pack 'bandits' (builtin)"),
    # named in genuine-collision errors so the loser knows who holds the id
    owner: str
    kernel: VectorizedKernel | None = None
    # (pack name, pack version) for scenarios registered through a pack
    pack: tuple[str, str] | None = None


_REGISTRY: dict[str, _Record] = {}


def register(
    sc: Scenario,
    *,
    owner: str | None = None,
    kernel: VectorizedKernel | None = None,
    pack: tuple[str, str] | None = None,
) -> Scenario:
    """Add a scenario — with its optional kernel and pack provenance — to
    the registry.

    Re-registering an *identical* ``(id, simulate)`` pair — the same
    function object, or the same function re-created by a module re-import
    — is an idempotent no-op returning the already-registered scenario.
    A genuine collision (same id, different simulate function, or a
    different kernel function) raises, naming the module or pack that owns
    the existing entry.  ``owner`` is the human-readable label recorded
    for such errors; it defaults to the simulate function's module.
    ``pack`` is the ``(name, version)`` pair :func:`pack_info` reports;
    :func:`~repro.experiments.packs.register_pack` passes it.
    """
    key = sc.scenario_id.upper()
    existing = _REGISTRY.get(key)
    if existing is not None:
        same_kernel = kernel is None or (
            existing.kernel is not None
            and _fingerprint(existing.kernel.fn) == _fingerprint(kernel.fn)
        )
        if same_kernel and (
            _fingerprint(existing.scenario.simulate) == _fingerprint(sc.simulate)
        ):
            return existing.scenario
        raise ValueError(
            f"scenario {sc.scenario_id!r} already registered by "
            f"{existing.owner}; pick a different scenario id for the new "
            f"registration"
        )
    if sc.schema is not None:
        errors = schema_errors(sc.defaults, sc.schema, path="")
        if errors:
            raise ValueError(
                f"scenario {sc.scenario_id!r} declares defaults that violate "
                f"its own param schema: " + "; ".join(errors)
            )
    _REGISTRY[key] = _Record(
        scenario=sc,
        owner=owner or f"module {getattr(sc.simulate, '__module__', '?')!r}",
        kernel=kernel,
        pack=pack,
    )
    return sc


def pack_info(scenario_id: str) -> tuple[str, str]:
    """The ``(pack name, pack version)`` provenance of a scenario.

    Scenarios registered outside any pack (ad-hoc :func:`register` uses)
    report ``("unpackaged", <package version>)`` so cache keys built on
    provenance still invalidate on package upgrades.
    """
    record = _lookup(scenario_id)
    if record is not None and record.pack is not None:
        return record.pack
    import repro

    return ("unpackaged", repro.__version__)


_DISCOVERY_STARTED = False


def _ensure_loaded() -> None:
    # The built-in scenarios live in the family packs under
    # repro.experiments.packs (plus any entry-point packs); defer their
    # discovery so registry <-> packs does not cycle and ad-hoc Scenario
    # objects can be registered first.  The flag is set before discovery,
    # so a lookup made during it sees the packs registered so far instead
    # of recursing, and reset if discovery fails, so the next lookup
    # re-raises the real error rather than answering from a half-filled
    # table (pack registration is idempotent, so the retry is safe).
    global _DISCOVERY_STARTED
    if _DISCOVERY_STARTED:
        return
    _DISCOVERY_STARTED = True
    try:
        from repro.experiments.packs import load_packs

        load_packs()
    except BaseException:
        _DISCOVERY_STARTED = False
        raise


def _lookup(scenario_id: str) -> _Record | None:
    _ensure_loaded()
    return _REGISTRY.get(scenario_id.upper())


def is_registered(sc: Scenario) -> bool:
    """Whether ``sc`` is the instance the registry holds under its id.

    The parallel runner uses this to decide whether a worker process can
    re-resolve the scenario by id (registered) or must receive the
    ``simulate`` callable directly (ad-hoc object)."""
    record = _lookup(sc.scenario_id)
    return record is not None and record.scenario is sc


def get_scenario(scenario_id: str) -> Scenario:
    """Look up a scenario by id (case-insensitive)."""
    record = _lookup(scenario_id)
    if record is None:
        raise KeyError(
            f"unknown scenario {scenario_id!r}; available: {scenario_ids()}"
        )
    return record.scenario


def _sort_key(sid: str) -> tuple:
    # E2 before E10: split the id into its alpha prefix and numeric suffix.
    head = sid.rstrip("0123456789")
    tail = sid[len(head):]
    return (head, int(tail) if tail else -1)


def scenario_ids() -> list[str]:
    """All registered ids in natural order (E1, E2, …, E10, …)."""
    _ensure_loaded()
    return sorted(_REGISTRY, key=_sort_key)


def list_scenarios(tags: tuple[str, ...] | None = None) -> list[Scenario]:
    """All registered scenarios, optionally filtered to those bearing
    every tag in ``tags``."""
    _ensure_loaded()
    out = [_REGISTRY[k].scenario for k in scenario_ids()]
    if tags:
        wanted = set(tags)
        out = [sc for sc in out if wanted <= set(sc.tags)]
    return out


def has_kernel(scenario_id: str) -> bool:
    """Whether a vectorized kernel is registered for ``scenario_id``."""
    record = _lookup(scenario_id)
    return record is not None and record.kernel is not None


def get_kernel(scenario_id: str) -> VectorizedKernel:
    """Look up the kernel for ``scenario_id`` (case-insensitive)."""
    record = _lookup(scenario_id)
    if record is None or record.kernel is None:
        raise KeyError(
            f"no vectorized kernel for {scenario_id!r}; available: {kernel_ids()}"
        )
    return record.kernel


def is_direct_kernel(scenario_id: str) -> bool:
    """Whether the kernel for ``scenario_id`` is the scenario's own
    ``simulate`` (run once per seed) rather than a batch function.
    Raises ``KeyError`` when no kernel is registered."""
    return get_kernel(scenario_id).fn is get_scenario(scenario_id).simulate


def kernel_ids() -> list[str]:
    """All scenario ids with a registered kernel, in natural order."""
    return [sid for sid in scenario_ids() if _REGISTRY[sid].kernel is not None]
