"""Experiment registry and parallel replication runner — the public API
for reproducing the survey's claims.

This package turns the E1–E19 benchmark workloads into first-class,
discoverable objects:

* :mod:`repro.experiments.registry` — the declarative
  :class:`~repro.experiments.registry.Scenario` registry, the one
  id-keyed table: each scenario bundles a per-replication ``simulate``
  function with the paper claim it validates, default parameters, and
  named *shape checks*; its record also holds the scenario's optional
  vectorized kernel, its pack provenance and its owner.
* :mod:`repro.experiments.packs` — scenario *packs*: named, versioned
  manifests bundling scenarios (with per-parameter JSON schemas) and
  their vectorized kernels.  The built-in catalogue (E1–E19, A1–A3)
  ships as five family packs; third-party packs register through the
  ``repro.scenario_packs`` entry-point group without touching core.
  Packs are discovered lazily, on the first registry or kernel lookup,
  so importing this package imports none of the family pack modules.
* :mod:`repro.experiments.runner` — batched replications with multiprocess
  fan-out over spawned seed streams and vectorised aggregation; results
  are bit-identical for every worker count.  It also picks the simulation
  backend (``backend="event" | "vectorized" | "auto"``): a scenario's
  vectorized kernel runs all its replications at once, bit-for-bit
  equivalent to the event-driven path.
* :mod:`repro.experiments.store` — the content-addressed, resumable
  sample store: per-replication sample matrices keyed by
  ``(scenario, canonical params, root seed)``, so re-runs (more
  replications, tighter precision targets) reuse the cached prefix and
  simulate only the remainder (``cache_dir=`` on the runner, ``--cache-dir``
  on the CLI).
* :mod:`repro.experiments.sweeps` — declarative parameter sweeps: a
  :class:`~repro.experiments.sweeps.SweepSpec` (grid/zip/list of
  parameter axes over one registered scenario, validated against its
  param schema) expands into concrete points that each run through
  :func:`run_scenario` — per-point sample-store cache entries, adaptive
  precision, and backend choice all apply — and aggregate into a
  long-form table plus per-axis marginal summaries.  It also owns the
  runner options every entry point shares: their defaults
  (:data:`~repro.experiments.sweeps.RUN_DEFAULTS`) and their one check
  (:func:`~repro.experiments.sweeps.check_run_options`).
* :mod:`repro.experiments.report` — structured JSON documents and the
  Markdown claim-vs-measured report (and the sweep-report renderers).
* :mod:`repro.experiments.cli` — the ``repro-experiments`` console
  script, and the runner flags it shares with ``repro-sweep run`` and
  ``repro-serve submit``.
* :mod:`repro.experiments.sweep_cli` — the ``repro-sweep`` console
  script, and the sweep-spec flags it shares with ``repro-serve submit``.

Adaptive precision: pass ``target_precision=`` (``--target-precision``) to
replace the fixed replication count with the sequential controller in
:mod:`repro.sim.sequential`, which grows the count until every metric's
confidence interval is tight enough and records the achieved ``n``.

Typical use::

    from repro.experiments import get_scenario, run_scenario

    result = run_scenario("E1", replications=200, workers=4, seed=0)
    assert result.all_checks_pass
    print(result.metrics["fifo_ratio"].mean)
"""

from repro.experiments.packs import (
    PackError,
    ScenarioPack,
    discovered_packs,
    load_packs,
    register_pack,
)
from repro.experiments.registry import (
    CheckOutcome,
    ParamValidationError,
    Scenario,
    get_scenario,
    has_kernel,
    kernel_ids,
    list_scenarios,
    pack_info,
    register,
    scenario_ids,
)
from repro.experiments.runner import (
    BACKENDS,
    MetricSummary,
    MissingKernelError,
    ScenarioResult,
    resolve_backend,
    run_scenario,
)
from repro.experiments.report import (
    canonical_sweep_document,
    generate_markdown,
    generate_sweep_markdown,
    load_results,
    results_to_document,
    results_to_json,
    sweep_to_json,
)
from repro.experiments.store import MemoryStore, SampleStore, StoreBackend
from repro.experiments.sweeps import (
    RUN_DEFAULTS,
    SweepPoint,
    SweepResult,
    SweepSpec,
    check_run_options,
    run_sweep,
    sweep_run_config,
)
from repro.sim.sequential import PrecisionTarget

__all__ = [
    "Scenario",
    "register",
    "get_scenario",
    "list_scenarios",
    "scenario_ids",
    "ScenarioPack",
    "PackError",
    "register_pack",
    "load_packs",
    "discovered_packs",
    "pack_info",
    "ParamValidationError",
    "CheckOutcome",
    "BACKENDS",
    "MissingKernelError",
    "has_kernel",
    "kernel_ids",
    "resolve_backend",
    "MetricSummary",
    "ScenarioResult",
    "run_scenario",
    "canonical_sweep_document",
    "generate_markdown",
    "generate_sweep_markdown",
    "load_results",
    "results_to_document",
    "results_to_json",
    "sweep_to_json",
    "MemoryStore",
    "SampleStore",
    "StoreBackend",
    "SweepPoint",
    "SweepResult",
    "SweepSpec",
    "RUN_DEFAULTS",
    "check_run_options",
    "run_sweep",
    "sweep_run_config",
    "PrecisionTarget",
]
