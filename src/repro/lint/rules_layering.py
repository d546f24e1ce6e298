"""Project-scoped rules REP020-REP022: layering, cycles, registration.

These rules see the whole run at once through
:class:`repro.lint.project.ProjectContext`:

* ``REP020`` — an import that points *up* the layering table (a substrate
  importing a domain, a domain importing the experiments interface).
  Every import counts, including function-local lazy imports: laziness
  changes *when* the dependency binds, not *that* it exists.
* ``REP021`` — an import cycle among the scanned modules, over
  module-scope imports only (a function-local import is the sanctioned
  idiom for breaking an import-time cycle).  The diagnostic names the
  full cycle path and anchors at the first import statement of its
  lexicographically-first member.
* ``REP022`` — a module-level ``simulate_*``/``batch_*``/``direct_*``
  function in a pack module that is neither decorated with
  ``@PACK.scenario``/``@PACK.kernel`` nor passed to such a registration
  call anywhere in the scanned set: a kernel the experiment registry can
  never run.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import Diagnostic, register_project_rule
from repro.lint.project import (
    ProjectContext,
    layer_of,
    shortest_cycle,
    strongly_connected_components,
)

__all__ = ["check_layering", "check_cycles", "check_unregistered_kernels"]


@register_project_rule(
    "REP020",
    "import points up the layering table (substrates -> domains/sim -> interface)",
)
def check_layering(project: ProjectContext) -> Iterator[Diagnostic]:
    for edge in project.edges():
        source = layer_of(edge.ctx.module_name)
        if source is None:
            continue  # scripts/tests/examples sit outside the layered packages
        # `from pkg import sub` points at the submodule when one is named
        targets = [edge.target, *edge.submodule_candidates]
        worst: tuple[int, str, str] | None = None
        worst_name = ""
        for target in targets:
            info = layer_of(target)
            if info is not None and (worst is None or info[0] > worst[0]):
                worst = info
                worst_name = target
        if worst is None or worst[0] <= source[0]:
            continue
        yield edge.ctx.diag(
            edge.node,
            "REP020",
            f"upward import: {edge.ctx.module_name} ({source[1]} layer) "
            f"imports {worst_name} ({worst[1]} layer); "
            f"dependencies must point down the layering table",
        )


@register_project_rule(
    "REP021",
    "module-scope import cycle among scanned modules",
)
def check_cycles(project: ProjectContext) -> Iterator[Diagnostic]:
    graph = project.import_graph(top_level_only=True)
    for component in strongly_connected_components(graph):
        if len(component) == 1:
            member = component[0]
            if member not in graph.get(member, ()):
                continue  # trivial SCC, no self-import
        cycle = shortest_cycle(graph, component)
        anchor = project.find_import_node(cycle[0], cycle[1])
        if anchor is None:  # pragma: no cover - cycle implies an edge exists
            continue
        ctx, node = anchor
        yield ctx.diag(
            node,
            "REP021",
            f"import cycle: {' -> '.join(cycle)}; break it with a "
            f"function-local import or by moving the shared code down a layer",
        )


def _registration_decorated(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Whether ``fn`` carries a ``@<pack>.scenario(...)``/``@<pack>.kernel(...)``
    decorator (with or without the call parentheses)."""
    for deco in fn.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Attribute) and target.attr in ("scenario", "kernel"):
            return True
    return False


def _registered_names(project: ProjectContext) -> set[str]:
    """Function names passed by name into any ``.scenario(...)``/
    ``.kernel(...)`` call in the scanned set (direct-registration style,
    ``pack.scenario(...)(simulate_x)`` or ``pack.kernel(..., fn=batch_x)``)."""
    names: set[str] = set()
    for ctx in project.modules.values():
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            # unwrap `pack.scenario(...)(fn)` — the outer call's func is a Call
            chain = func.func if isinstance(func, ast.Call) else func
            if not (
                isinstance(chain, ast.Attribute)
                and chain.attr in ("scenario", "kernel")
            ):
                continue
            for arg in [*node.args, *[kw.value for kw in node.keywords]]:
                if isinstance(arg, ast.Name):
                    names.add(arg.id)
    return names


@register_project_rule(
    "REP022",
    "simulate_/batch_/direct_ function in a pack module never registered with any pack",
)
def check_unregistered_kernels(project: ProjectContext) -> Iterator[Diagnostic]:
    registered: set[str] | None = None  # computed lazily, only if a candidate exists
    for ctx in project.pack_modules():
        for stmt in ctx.tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not stmt.name.startswith(("simulate_", "batch_", "direct_")):
                continue
            if _registration_decorated(stmt):
                continue
            if registered is None:
                registered = _registered_names(project)
            if stmt.name in registered:
                continue
            yield ctx.diag(
                stmt,
                "REP022",
                f"function {stmt.name!r} looks like a pack kernel but is never "
                f"registered via @pack.scenario/@pack.kernel in any scanned module",
            )
