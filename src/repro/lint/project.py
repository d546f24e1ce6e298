"""Whole-program context: the module graph the REP020 family checks.

A :class:`ProjectContext` is built once per lint run from every parsed
file.  It resolves intra-``repro`` imports into a module graph and holds
the declarative layering table the ARCHITECTURE diagram promises:

* **substrates** (``repro.core``, ``repro.distributions``,
  ``repro.markov``, ``repro.mdp``, ``repro.utils``) may import only each
  other;
* **domains/sim** (``repro.batch``, ``repro.bandits``,
  ``repro.queueing``, ``repro.sim``) may additionally import substrates;
* **interface** (``repro.experiments``, ``repro.bench``, ``repro.lint``,
  and the ``repro`` root package) sits on top and may import anything.

An import *toward a higher layer* is an upward import (``REP020``)
wherever it appears — even function-local lazy imports are structural
dependencies.  Import *cycles* (``REP021``) are checked over module-scope
imports only: a function-local import is the sanctioned idiom for
breaking an import-time cycle, so it must not re-trigger the diagnostic
it exists to avoid.

Edges are resolved textually (``from repro.sim.replication import run_replications``
→ ``repro.sim.replication``), never by executing imports; module names come
from :attr:`repro.lint.engine.ModuleContext.module_name`, so fixture
trees under ``tmp/repro/...`` participate exactly like the real package.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.lint.engine import ModuleContext

__all__ = [
    "LAYER_TABLE",
    "ImportEdge",
    "ProjectContext",
    "layer_of",
]

#: The declarative layering table, bottom layer first.  The meta-test in
#: ``tests/test_lint_program.py`` asserts this table and the layering
#: table in ``docs/ARCHITECTURE.md`` name exactly the same packages, so
#: the diagram and the gate cannot drift apart.
LAYER_TABLE: tuple[tuple[str, tuple[str, ...]], ...] = (
    (
        "substrates",
        (
            "repro.core",
            "repro.distributions",
            "repro.markov",
            "repro.mdp",
            "repro.utils",
        ),
    ),
    (
        "domains/sim",
        ("repro.bandits", "repro.batch", "repro.queueing", "repro.sim"),
    ),
    (
        "interface",
        ("repro", "repro.bench", "repro.experiments", "repro.lint",
         "repro.serve"),
    ),
)

# package -> (layer index, layer name), longest-prefix matched
_PACKAGE_LAYER: dict[str, tuple[int, str]] = {
    package: (index, name)
    for index, (name, packages) in enumerate(LAYER_TABLE)
    for package in packages
}


def layer_of(module_name: str) -> tuple[int, str, str] | None:
    """``(layer index, layer name, package)`` for a dotted module name,
    by longest-prefix match against the layering table — ``None`` for
    modules outside every layered package (tests, scripts, examples)."""
    best: tuple[int, str, str] | None = None
    for package, (index, name) in _PACKAGE_LAYER.items():
        if module_name == package or module_name.startswith(package + "."):
            if best is None or len(package) > len(best[2]):
                best = (index, name, package)
    return best


@dataclass(frozen=True)
class ImportEdge:
    """One import statement, resolved: the importing module's context,
    the dotted target module, the AST node (for positions), and whether
    the statement executes at module import time (``top_level``)."""

    ctx: "ModuleContext"
    node: ast.stmt
    target: str
    top_level: bool
    #: additional candidates when ``from pkg import name`` may name a
    #: submodule — the cycle graph tries these against the scanned set
    submodule_candidates: tuple[str, ...] = ()


def _resolve_from(ctx: "ModuleContext", node: ast.ImportFrom) -> str | None:
    """The absolute dotted module an ``ImportFrom`` targets, resolving
    relative imports against the importing module's own dotted name."""
    if node.level == 0:
        return node.module
    parts = ctx.module_name.split(".")
    # `from . import x` inside pkg.mod drops 1 segment to pkg; each extra
    # level drops one more.  Underflow (level deeper than the path) is
    # unresolvable — return None rather than guess.
    if node.level > len(parts):
        return None
    base = parts[: len(parts) - node.level]
    if node.module:
        base.append(node.module)
    return ".".join(base) if base else None


def _iter_imports(
    ctx: "ModuleContext",
) -> Iterator[ImportEdge]:
    """Every import statement of one module, with top-level-ness tracked
    lexically (an import inside any function body is not top-level)."""

    def visit(node: ast.AST, top: bool) -> Iterator[ImportEdge]:
        for child in ast.iter_child_nodes(node):
            child_top = top and not isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            )
            if isinstance(child, ast.Import):
                for alias in child.names:
                    yield ImportEdge(ctx, child, alias.name, top)
            elif isinstance(child, ast.ImportFrom):
                module = _resolve_from(ctx, child)
                if module:
                    subs = tuple(
                        f"{module}.{alias.name}"
                        for alias in child.names
                        if alias.name != "*"
                    )
                    yield ImportEdge(ctx, child, module, top, subs)
            else:
                yield from visit(child, child_top)

    yield from visit(ctx.tree, True)


class ProjectContext:
    """Everything the project-scoped rules need about the whole run:
    the parsed modules, the dotted-name index, and the import edges."""

    def __init__(self, contexts: Sequence["ModuleContext"]):
        #: path -> context, in scan order
        self.modules: dict[str, "ModuleContext"] = {
            ctx.path: ctx for ctx in contexts
        }
        #: dotted module name -> context (first scanned wins on collision,
        #: which keeps fixture trees deterministic)
        self.by_name: dict[str, "ModuleContext"] = {}
        for ctx in contexts:
            self.by_name.setdefault(ctx.module_name, ctx)
        self._edges: list[ImportEdge] | None = None

    def edges(self) -> list[ImportEdge]:
        """All import edges of all modules, in scan order."""
        if self._edges is None:
            self._edges = [
                edge for ctx in self.modules.values() for edge in _iter_imports(ctx)
            ]
        return self._edges

    def import_graph(self, *, top_level_only: bool = True) -> dict[str, list[str]]:
        """Module graph restricted to the scanned set: dotted name ->
        sorted imported dotted names.  ``from pkg import sub`` resolves to
        the ``pkg.sub`` module when that module is in the scanned set,
        else to ``pkg`` itself (when scanned) — package ``__init__``
        hub edges are never invented beyond what the text names."""
        graph: dict[str, list[str]] = {name: [] for name in self.by_name}
        for edge in self.edges():
            if top_level_only and not edge.top_level:
                continue
            source = edge.ctx.module_name
            targets: set[str] = set()
            for candidate in edge.submodule_candidates:
                if candidate in self.by_name:
                    targets.add(candidate)
            if not targets and edge.target in self.by_name:
                targets.add(edge.target)
            for target in targets:
                if target != source and target not in graph[source]:
                    graph[source].append(target)
        return {name: sorted(targets) for name, targets in graph.items()}

    def pack_modules(self) -> list["ModuleContext"]:
        """The scanned modules that define a scenario pack."""
        return [ctx for ctx in self.modules.values() if ctx.is_pack_module]

    def find_import_node(
        self, source: str, target: str
    ) -> tuple["ModuleContext", ast.stmt] | None:
        """The first top-level import statement in module ``source`` that
        resolves to ``target`` — the anchor for cycle diagnostics."""
        ctx = self.by_name.get(source)
        if ctx is None:
            return None
        for edge in self.edges():
            if edge.ctx is not ctx or not edge.top_level:
                continue
            if edge.target == target or target in edge.submodule_candidates:
                return ctx, edge.node
        return None


def strongly_connected_components(
    graph: dict[str, Iterable[str]]
) -> list[list[str]]:
    """Tarjan's SCC algorithm, iterative and deterministic (nodes are
    visited in sorted order, components reported in discovery order)."""
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []
    counter = 0

    for root in sorted(graph):
        if root in index:
            continue
        work: list[tuple[str, Iterator[str]]] = [(root, iter(sorted(graph.get(root, ()))))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, children = work[-1]
            advanced = False
            for child in children:
                if child not in graph:
                    continue
                if child not in index:
                    index[child] = lowlink[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(sorted(graph.get(child, ())))))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(sorted(component))
    return components


def shortest_cycle(graph: dict[str, Iterable[str]], members: list[str]) -> list[str]:
    """A concrete cycle path inside one SCC, starting from its
    lexicographically-first member: ``[a, b, ..., a]``.  BFS keeps the
    reported path shortest and deterministic."""
    start = members[0]
    member_set = set(members)
    if start in graph.get(start, ()):  # self-import
        return [start, start]
    parents: dict[str, str] = {}
    frontier = [start]
    seen = {start}
    while frontier:
        nxt: list[str] = []
        for node in frontier:
            for child in sorted(graph.get(node, ())):
                if child not in member_set:
                    continue
                if child == start:
                    path = [node]
                    while path[-1] != start:
                        path.append(parents[path[-1]])
                    return [*reversed(path), start]
                if child not in seen:
                    seen.add(child)
                    parents[child] = node
                    nxt.append(child)
        frontier = nxt
    return [start, start]  # unreachable for a genuine SCC
