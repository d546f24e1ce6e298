"""Contract rules: pack manifests, docstrings, and bench-metric gating.

These rules check, statically from the AST, the cross-artifact promises
the runtime only discovers late (or not at all):

* ``REP010`` — every ``@PACK.scenario`` declaration's param-schema
  ``properties`` key set exactly equals its ``defaults`` keys (the
  runtime validates only one direction: defaults must *satisfy* the
  schema; a property nobody defaults is dead weight the sweep CLI will
  happily advertise);
* ``REP011`` — every ``@PACK.kernel`` id has a matching
  ``@PACK.scenario`` in the same module (the runtime raises only when
  the pack is registered — after an import somebody may never trigger);
* ``REP012`` — public definitions in ``repro.experiments``,
  ``repro.sim``, ``repro.bench``, and pack modules carry docstrings
  (``repro-lint --select REP012`` runs it alone);
* ``REP013`` — bench metric specs that declare a ``direction`` also
  declare a ``tolerance`` or ``floor``, so the regression gate never
  silently falls back to its default slack.

Anything the rules cannot resolve statically (computed schemas, spread
defaults) is skipped, never guessed.
"""

from __future__ import annotations

import ast
from typing import Iterator, Mapping

from repro.lint.engine import Diagnostic, ModuleContext, dotted_name, register_rule

__all__: list[str] = []

_DOCSTRING_PACKAGES = ("repro.experiments", "repro.sim", "repro.bench",
                       "repro.serve")


# ---------------------------------------------------------------------------
# static pack-manifest model (shared by REP010/REP011)
# ---------------------------------------------------------------------------


def _module_assigns(tree: ast.Module) -> dict[str, ast.AST]:
    """Module-level ``NAME = <expr>`` assignments, name -> value node."""
    out: dict[str, ast.AST] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    out[target.id] = node.value
        elif (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and node.value is not None
        ):
            out[node.target.id] = node.value
    return out


def _as_dict(node: ast.AST | None, assigns: Mapping[str, ast.AST]) -> ast.Dict | None:
    """``node`` as a dict literal, following one module-level name hop."""
    if isinstance(node, ast.Name):
        node = assigns.get(node.id)
    return node if isinstance(node, ast.Dict) else None


def _const_keys(node: ast.Dict) -> set[str] | None:
    """The dict literal's string keys — ``None`` if any key is dynamic."""
    keys: set[str] = set()
    for key in node.keys:
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            keys.add(key.value)
        else:
            return None
    return keys


def _dict_value(node: ast.Dict, name: str) -> ast.AST | None:
    """The value node stored under string key ``name``, if present."""
    for key, value in zip(node.keys, node.values):
        if isinstance(key, ast.Constant) and key.value == name:
            return value
    return None


def _keyword(call: ast.Call, name: str) -> ast.AST | None:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


class _PackModel:
    """The statically visible pack declarations of one module."""

    def __init__(self, ctx: ModuleContext) -> None:
        self.assigns = _module_assigns(ctx.tree)
        #: pack variable name -> ``schemas=`` dict literal (or None)
        self.packs: dict[str, ast.Dict | None] = {}
        #: (pack var, scenario id) pairs declared via ``@var.scenario``
        self.scenario_ids: set[tuple[str, str]] = set()
        #: scenario decorator calls as (pack var, id, call node)
        self.scenarios: list[tuple[str, str, ast.Call]] = []
        #: kernel decorator calls as (pack var, id, call node)
        self.kernels: list[tuple[str, str, ast.Call]] = []

        for name, value in self.assigns.items():
            if isinstance(value, ast.Call):
                target = ctx.resolve(value.func) or dotted_name(value.func) or ""
                if target == "ScenarioPack" or target.endswith(".ScenarioPack"):
                    self.packs[name] = _as_dict(
                        _keyword(value, "schemas"), self.assigns
                    )

        if not self.packs:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in node.decorator_list:
                if not (
                    isinstance(dec, ast.Call)
                    and isinstance(dec.func, ast.Attribute)
                    and isinstance(dec.func.value, ast.Name)
                    and dec.func.value.id in self.packs
                ):
                    continue
                if not (
                    dec.args
                    and isinstance(dec.args[0], ast.Constant)
                    and isinstance(dec.args[0].value, str)
                ):
                    continue
                pack_var = dec.func.value.id
                sid = dec.args[0].value.upper()
                if dec.func.attr == "scenario":
                    self.scenario_ids.add((pack_var, sid))
                    self.scenarios.append((pack_var, sid, dec))
                elif dec.func.attr == "kernel":
                    self.kernels.append((pack_var, sid, dec))

    def schema_for(self, pack_var: str, sid: str, dec: ast.Call) -> ast.Dict | None:
        """The scenario's schema dict: the ``schema=`` kwarg, else the
        pack's ``schemas={...}`` entry for this id (case-insensitive)."""
        explicit = _as_dict(_keyword(dec, "schema"), self.assigns)
        if explicit is not None:
            return explicit
        table = self.packs.get(pack_var)
        if table is None:
            return None
        for key, value in zip(table.keys, table.values):
            if (
                isinstance(key, ast.Constant)
                and isinstance(key.value, str)
                and key.value.upper() == sid
            ):
                return _as_dict(value, self.assigns)
        return None


@register_rule(
    "REP010",
    "@PACK.scenario param-schema properties must exactly equal defaults keys",
)
def check_schema_defaults_parity(ctx: ModuleContext) -> Iterator[Diagnostic]:
    """Statically compare each scenario's schema ``properties`` keys with
    its ``defaults`` keys; unresolvable declarations are skipped."""
    model = _PackModel(ctx)
    for pack_var, sid, dec in model.scenarios:
        schema = model.schema_for(pack_var, sid, dec)
        if schema is None:
            continue
        props_node = _as_dict(_dict_value(schema, "properties"), model.assigns)
        if props_node is None:
            continue
        props = _const_keys(props_node)
        defaults_node = _keyword(dec, "defaults")
        if defaults_node is None:
            defaults: set[str] | None = set()
        else:
            defaults_dict = _as_dict(defaults_node, model.assigns)
            defaults = None if defaults_dict is None else _const_keys(defaults_dict)
        if props is None or defaults is None:
            continue
        if props != defaults:
            parts = []
            if props - defaults:
                parts.append(
                    f"schema-only propert{_ies(props - defaults)} "
                    f"{sorted(props - defaults)}"
                )
            if defaults - props:
                parts.append(
                    f"default-only key{_s(defaults - props)} "
                    f"{sorted(defaults - props)}"
                )
            yield ctx.diag(
                dec,
                "REP010",
                f"scenario {sid!r}: param-schema properties must exactly "
                f"equal the defaults keys; {'; '.join(parts)}",
            )


def _s(items: set[str]) -> str:
    return "" if len(items) == 1 else "s"


def _ies(items: set[str]) -> str:
    return "y" if len(items) == 1 else "ies"


@register_rule(
    "REP011",
    "every @PACK.kernel id needs a matching @PACK.scenario in the same module",
)
def check_kernel_has_scenario(ctx: ModuleContext) -> Iterator[Diagnostic]:
    """Flag kernels declared for scenario ids their own module never
    declares — the runtime would only notice at pack registration."""
    model = _PackModel(ctx)
    for pack_var, sid, dec in model.kernels:
        if (pack_var, sid) not in model.scenario_ids:
            yield ctx.diag(
                dec,
                "REP011",
                f"kernel {sid!r} has no matching @{pack_var}.scenario in "
                f"this module",
            )


# ---------------------------------------------------------------------------
# docstring coverage (REP012)
# ---------------------------------------------------------------------------


def _has_doc(node: ast.AST) -> bool:
    return bool((ast.get_docstring(node) or "").strip())


@register_rule(
    "REP012",
    "public definitions in repro.experiments/sim/bench/serve and pack modules "
    "need docstrings",
)
def check_docstrings(ctx: ModuleContext) -> Iterator[Diagnostic]:
    """The docstring-coverage gate as a lint rule: module, public
    top-level functions/classes, and public methods of public classes."""
    if not (ctx.in_package(*_DOCSTRING_PACKAGES) or ctx.is_pack_module):
        return
    if not _has_doc(ctx.tree):
        yield ctx.diag(ctx.tree, "REP012", "module has no docstring")
    for node in ctx.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_") and not _has_doc(node):
                yield ctx.diag(
                    node,
                    "REP012",
                    f"public function {node.name}() has no docstring",
                )
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            if not _has_doc(node):
                yield ctx.diag(
                    node, "REP012", f"public class {node.name} has no docstring"
                )
            for member in node.body:
                if (
                    isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not member.name.startswith("_")
                    and not _has_doc(member)
                ):
                    yield ctx.diag(
                        member,
                        "REP012",
                        f"public method {node.name}.{member.name}() has no "
                        f"docstring",
                    )


# ---------------------------------------------------------------------------
# bench metric gating (REP013)
# ---------------------------------------------------------------------------


@register_rule(
    "REP013",
    "bench metrics with a direction must declare a tolerance or floor",
)
def check_metric_slack(ctx: ModuleContext) -> Iterator[Diagnostic]:
    """Flag metric-spec dict literals (``value`` + ``direction`` keys)
    that leave the regression gate's slack implicit."""
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Dict):
            continue
        keys = _const_keys(node)
        if keys is None:
            continue
        if "direction" in keys and "value" in keys and not keys & {
            "tolerance",
            "floor",
        }:
            yield ctx.diag(
                node,
                "REP013",
                "metric spec declares a direction but neither a tolerance "
                "nor a floor; make the regression gate's slack explicit",
            )
