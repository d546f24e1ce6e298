"""Scenario packs: pluggable packages of scenarios and kernels.

A :class:`ScenarioPack` is a *manifest*: a pack name, a version, a docs
link, and — declared through its :meth:`~ScenarioPack.scenario` and
:meth:`~ScenarioPack.kernel` decorators — the scenarios it ships (simulate
function, claim, default parameters, param JSON schema, shape checks) and
their optional vectorized kernels.  Discovery is two-stage and deferred
until the first registry lookup:

1. **Built-in packs** — the family modules listed in
   :data:`BUILTIN_PACK_MODULES` (bandits / queueing networks / polling /
   flowshop+batch / restless), which carry the survey's 22 scenarios;
2. **Entry-point packs** — every entry in the ``repro.scenario_packs``
   entry-point group (``name = module:PACK``), so a third-party package
   installs new workload families without touching any core module.  A
   broken third-party pack is reported as a warning and skipped rather
   than taking down the registry.

Registration is idempotent (re-importing a pack module is a no-op) and
validated: the manifest must be well-formed, every kernel id must name a
scenario of the same pack, and each scenario's defaults must satisfy its
own declared schema — violations raise :class:`PackError` with the pack
and scenario named.

Pack provenance feeds the sample store: cached samples are keyed on
``(pack name, pack version)`` (see :mod:`repro.experiments.store`), so
bumping one pack's version invalidates exactly that pack's cache entries
and nobody else's.
"""

from __future__ import annotations

import importlib
import warnings
from typing import Any, Callable, Mapping

from repro.experiments.registry import (
    CheckFn,
    Scenario,
    SimulateFn,
    VectorizedKernel,
    register,
)

__all__ = [
    "ScenarioPack",
    "PackError",
    "register_pack",
    "load_packs",
    "discovered_packs",
    "BUILTIN_PACK_MODULES",
    "ENTRY_POINT_GROUP",
]

#: Modules carrying the built-in family packs, imported in this order.
BUILTIN_PACK_MODULES = (
    "repro.experiments.packs.flowshop",
    "repro.experiments.packs.bandits",
    "repro.experiments.packs.restless",
    "repro.experiments.packs.queueing",
    "repro.experiments.packs.polling",
)

#: Entry-point group third-party packs register under (``name = module:PACK``).
ENTRY_POINT_GROUP = "repro.scenario_packs"


class PackError(ValueError):
    """A malformed scenario-pack manifest (bad metadata, duplicate or
    dangling ids, defaults violating the declared schema)."""


class ScenarioPack:
    """A named, versioned manifest of scenarios and their kernels.

    Parameters
    ----------
    name:
        The pack's identity — stable across versions; part of every cache
        key of the pack's scenarios.
    version:
        The pack's version string.  Bump it when any scenario's simulate
        output changes: cached samples of *this pack only* are invalidated.
    docs:
        A documentation link (URL or repo-relative path) surfaced by
        ``repro-experiments packs``.
    schemas:
        Optional mapping of scenario id → param JSON schema, an
        alternative to passing ``schema=`` per scenario declaration.
    """

    def __init__(
        self,
        name: str,
        version: str,
        *,
        docs: str = "",
        schemas: Mapping[str, Mapping[str, Any]] | None = None,
    ) -> None:
        self.name = name
        self.version = version
        self.docs = docs
        self._schemas = {k.upper(): dict(v) for k, v in (schemas or {}).items()}
        self.scenarios: dict[str, Scenario] = {}
        self.kernels: dict[str, VectorizedKernel] = {}

    def __repr__(self) -> str:
        return (
            f"ScenarioPack({self.name!r}, {self.version!r}, "
            f"scenarios={sorted(self.scenarios)})"
        )

    def scenario(
        self,
        scenario_id: str,
        *,
        title: str,
        claim: str,
        verdict: str,
        defaults: Mapping[str, Any] | None = None,
        checks: Mapping[str, CheckFn] | None = None,
        tags: tuple[str, ...] = (),
        schema: Mapping[str, Any] | None = None,
    ) -> Callable[[SimulateFn], SimulateFn]:
        """Decorator declaring one scenario of this pack.

        The keywords are the :class:`~repro.experiments.registry.Scenario`
        fields; the scenario is collected into the manifest and reaches
        the global registry when the pack is registered.  Returns the
        simulate function unchanged (so it stays picklable)."""
        key = scenario_id.upper()
        if schema is None:
            schema = self._schemas.get(key)

        def decorate(fn: SimulateFn) -> SimulateFn:
            if key in self.scenarios:
                raise PackError(
                    f"pack {self.name!r} declares scenario {scenario_id!r} twice"
                )
            self.scenarios[key] = Scenario(
                scenario_id=scenario_id,
                title=title,
                claim=claim,
                verdict=verdict,
                simulate=fn,
                defaults=dict(defaults or {}),
                checks=dict(checks or {}),
                tags=tuple(tags),
                schema=dict(schema) if schema is not None else None,
            )
            return fn

        return decorate

    def kernel(self, scenario_id: str, *, note: str = "") -> Callable:
        """Decorator declaring the vectorized kernel for one of this
        pack's scenarios (see
        :class:`~repro.experiments.registry.VectorizedKernel` for the
        contract).  Stacked on the scenario's own ``simulate`` it declares
        a direct kernel; on a separate batch function, a batched one.
        Returns the function unchanged (so it stays picklable)."""
        key = scenario_id.upper()

        def decorate(fn):
            if key in self.kernels:
                raise PackError(
                    f"pack {self.name!r} declares a kernel for {scenario_id!r} twice"
                )
            self.kernels[key] = VectorizedKernel(fn=fn, note=note)
            return fn

        return decorate

    def validate(self) -> None:
        """Check manifest well-formedness; raises :class:`PackError`.

        Enforced: non-empty string name/version, every kernel id names a
        scenario of this pack, and each scenario's defaults satisfy its
        own declared schema (so a pack cannot ship unrunnable defaults).
        """
        if not self.name or not isinstance(self.name, str):
            raise PackError(f"pack name must be a non-empty string, got {self.name!r}")
        if not self.version or not isinstance(self.version, str):
            raise PackError(
                f"pack {self.name!r}: version must be a non-empty string, "
                f"got {self.version!r}"
            )
        dangling = sorted(set(self.kernels) - set(self.scenarios))
        if dangling:
            raise PackError(
                f"pack {self.name!r} declares kernel(s) for {dangling} but no "
                f"matching scenario(s); a kernel must accompany its scenario"
            )
        from repro.utils.schema import schema_errors

        for key, sc in self.scenarios.items():
            if sc.schema is None:
                continue
            if not isinstance(sc.schema, Mapping):
                raise PackError(
                    f"pack {self.name!r} scenario {sc.scenario_id!r}: schema "
                    f"must be a mapping, got {type(sc.schema).__name__}"
                )
            errors = schema_errors(sc.defaults, sc.schema, path="")
            if errors:
                raise PackError(
                    f"pack {self.name!r} scenario {sc.scenario_id!r}: defaults "
                    f"violate the declared param schema: " + "; ".join(errors)
                )


# pack name -> (pack, source) for everything registered so far
_DISCOVERED: dict[str, tuple[ScenarioPack, str]] = {}
_LOADED = False


def register_pack(pack: ScenarioPack, *, source: str = "direct") -> ScenarioPack:
    """Validate a pack and write one registry record per scenario: the
    scenario, its kernel (if the pack declares one), the pack's name and
    version, and the pack as owner.

    Idempotent for identical content (re-importing a pack module, or the
    same pack reachable both as a built-in and an entry point, is a
    no-op); a genuine id collision raises naming the owning pack.
    ``source`` labels where the pack came from (``"builtin"``,
    ``"entry-point"``, or ``"direct"``) for the CLI listing.
    """
    if not isinstance(pack, ScenarioPack):
        raise PackError(
            f"expected a ScenarioPack, got {type(pack).__name__}; entry "
            f"points must resolve to a ScenarioPack instance"
        )
    pack.validate()
    owner = f"pack {pack.name!r} ({source})"
    for key, sc in pack.scenarios.items():
        register(
            sc,
            owner=owner,
            kernel=pack.kernels.get(key),
            pack=(pack.name, pack.version),
        )
    _DISCOVERED[pack.name] = (pack, source)
    return pack


def load_packs() -> None:
    """Discover and register every pack: built-ins first, then the
    ``repro.scenario_packs`` entry-point group.

    Idempotent — the first call does the work, later calls return
    immediately.  A failing *built-in* pack raises (the repo is broken);
    a failing *entry-point* pack emits a warning and is skipped, so one
    broken third-party install cannot take the whole registry down.
    """
    global _LOADED
    if _LOADED:
        return
    for module_name in BUILTIN_PACK_MODULES:
        module = importlib.import_module(module_name)
        register_pack(module.PACK, source="builtin")
    from importlib.metadata import entry_points

    for ep in entry_points(group=ENTRY_POINT_GROUP):
        if ep.name in _DISCOVERED:
            continue
        try:
            obj = ep.load()
            pack = obj() if callable(obj) and not isinstance(obj, ScenarioPack) else obj
            register_pack(pack, source="entry-point")
        except Exception as exc:
            warnings.warn(
                f"scenario pack entry point {ep.name!r} ({ep.value}) failed "
                f"to load and was skipped: {type(exc).__name__}: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
    _LOADED = True


def discovered_packs() -> list[tuple[ScenarioPack, str]]:
    """Every registered pack with its discovery source, built-ins first
    (in :data:`BUILTIN_PACK_MODULES` order), then by registration order."""
    load_packs()
    return list(_DISCOVERED.values())
