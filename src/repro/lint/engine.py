"""The ``repro-lint`` analysis engine: contexts, diagnostics, rule registry.

One linted file becomes one :class:`ModuleContext` — the parsed AST plus
the resolved import table and the scope flags the rules key off (is this
module under ``repro.sim``?  does it define a scenario pack?).  A *rule*
is a plain function registered under a stable ``REPNNN`` id via
:func:`register_rule`; it comes in two scopes:

* **module** rules map one :class:`ModuleContext` to diagnostics — the
  per-file pattern and dataflow checks;
* **project** rules (:func:`register_project_rule`) map the whole-run
  :class:`repro.lint.project.ProjectContext` to diagnostics — layering,
  import cycles, and cross-file pack-registration checks.

:func:`lint_paths` drives both: it collects files, runs module rules per
file and project rules once over the module graph, filters everything
through the suppression comments (:mod:`repro.lint.suppress`), and —
when given a cache path — reuses previous results for unchanged files
(:mod:`repro.lint.cache`), with warm and cold runs guaranteed to emit
bit-identical diagnostics.

Unparseable or unreadable files never raise: they degrade to a single
``REP000`` diagnostic naming ``file:line:col`` (the same convention as
:class:`repro.bench.record.BenchRecordError`), so one corrupt file cannot
take down a whole lint run.  A rule that itself crashes on a file is a
bug in the linter and raises :class:`LintError` naming the file and rule.
"""

from __future__ import annotations

import ast
import hashlib
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.lint.suppress import suppressed_rules

__all__ = [
    "PARSE_RULE_ID",
    "Diagnostic",
    "LintError",
    "LintReport",
    "ModuleContext",
    "Rule",
    "active_rules",
    "all_rules",
    "collect_files",
    "dotted_name",
    "lint_file",
    "lint_paths",
    "register_project_rule",
    "register_rule",
]

#: Pseudo-rule id for files the engine cannot read or parse.  Always
#: active: ``--select``/``--ignore`` never hide a broken file.
PARSE_RULE_ID = "REP000"


class LintError(ValueError):
    """An internal linter failure (a rule crashed on a file) or a
    misconfigured run (unknown rule id, nonexistent path)."""


@dataclass(frozen=True)
class Diagnostic:
    """One finding: ``path:line:col`` plus the rule id and message."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def format(self) -> str:
        """The canonical one-line rendering, ``path:line:col: REPNNN msg``."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"


@dataclass(frozen=True)
class Rule:
    """A registered check: a stable id, a one-line summary, a function
    from its context to diagnostics, and the scope that decides which
    context it receives (``"module"`` or ``"project"``)."""

    rule_id: str
    summary: str
    check: Callable[..., Iterable[Diagnostic]]
    scope: str = "module"


# rule id -> Rule, in registration order (dicts preserve it)
_RULES: dict[str, Rule] = {}


def _register(rule_id: str, summary: str, scope: str):
    def decorate(fn: Callable[..., Iterable[Diagnostic]]):
        if rule_id in _RULES:
            raise LintError(f"lint rule {rule_id!r} is already registered")
        _RULES[rule_id] = Rule(rule_id=rule_id, summary=summary, check=fn, scope=scope)
        return fn

    return decorate


def register_rule(rule_id: str, summary: str):
    """Decorator registering a module-scoped check under ``rule_id``.

    Ids must be unique and of the form ``REPNNN``; re-registering an id
    raises :class:`LintError` (rules are module-level singletons).
    """
    return _register(rule_id, summary, "module")


def register_project_rule(rule_id: str, summary: str):
    """Decorator registering a project-scoped check under ``rule_id``.

    The check receives the run's
    :class:`repro.lint.project.ProjectContext` once, after every file is
    parsed, and yields diagnostics anchored anywhere in the scanned set.
    """
    return _register(rule_id, summary, "project")


def all_rules() -> dict[str, Rule]:
    """Every registered rule, id -> :class:`Rule` (registration order)."""
    _load_rule_modules()
    return dict(_RULES)


def active_rules(
    select: Sequence[str] | None = None, ignore: Sequence[str] | None = None
) -> list[Rule]:
    """The rules a run should execute after ``--select``/``--ignore``.

    ``select`` keeps exactly the named ids (default: all), ``ignore``
    then removes ids; an unknown id in either raises :class:`LintError`
    naming the known rules.
    """
    rules = all_rules()
    for name, given in (("--select", select), ("--ignore", ignore)):
        unknown = sorted(set(given or ()) - set(rules))
        if unknown:
            raise LintError(
                f"{name}: unknown rule id(s) {', '.join(unknown)}; "
                f"known rules: {', '.join(sorted(rules))}"
            )
    chosen = set(select) if select else set(rules)
    chosen -= set(ignore or ())
    return [rule for rid, rule in rules.items() if rid in chosen]


def _load_rule_modules() -> None:
    """Import the bundled rule modules (idempotent; they self-register)."""
    from repro.lint import (  # noqa: F401
        rules_contract,
        rules_determinism,
        rules_layering,
        rules_seedflow,
    )


def dotted_name(node: ast.AST) -> str | None:
    """The dotted source text of a ``Name``/``Attribute`` chain, e.g.
    ``"np.random.seed"`` — ``None`` for anything more exotic."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _import_table(tree: ast.Module) -> dict[str, str]:
    """Local name -> the dotted module/object it was imported as.

    ``import numpy as np`` maps ``np -> numpy``; ``from numpy.random
    import default_rng as rng`` maps ``rng -> numpy.random.default_rng``.
    Only top-level and function-local imports reachable by a plain walk
    are recorded, which covers the repo's lazy-import house style.
    """
    table: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                table[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
                if alias.asname is None and "." in alias.name:
                    # `import numpy.random` binds `numpy`, resolving to itself
                    table[alias.name.split(".")[0]] = alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                table[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return table


class ModuleContext:
    """Everything the rules need to know about one parsed file."""

    def __init__(self, path: str, text: str, tree: ast.Module) -> None:
        self.path = path
        self.text = text
        self.tree = tree
        #: local name -> dotted import source (see :func:`_import_table`)
        self.imports: Mapping[str, str] = _import_table(tree)
        self._module_name: str | None = None
        self._is_pack: bool | None = None
        self._suppressed: dict[int, frozenset[str]] | None = None

    @property
    def module_name(self) -> str:
        """The dotted module guess from the file path: the segments from
        the last ``repro`` path component down (``repro.sim.replication``).
        Files outside a ``repro`` package get a clean fallback dotted
        name from the trailing run of identifier-shaped path components
        (``scripts/foo.py`` -> ``scripts.foo``), never the bare stem of
        an unrelated path segment."""
        if self._module_name is None:
            parts = Path(self.path).with_suffix("").parts
            if "repro" in parts:
                sub = list(parts[len(parts) - 1 - parts[::-1].index("repro") :])
            else:
                sub = []
                for part in reversed(parts):
                    if not part.isidentifier():
                        break
                    sub.insert(0, part)
                if not sub:
                    sub = [Path(self.path).stem]
            if len(sub) > 1 and sub[-1] == "__init__":
                sub.pop()
            self._module_name = ".".join(sub)
        return self._module_name

    def in_package(self, *packages: str) -> bool:
        """Whether this module lives in (or under) one of ``packages``
        (dotted names like ``"repro.sim"``)."""
        name = self.module_name
        return any(name == p or name.startswith(p + ".") for p in packages)

    @property
    def is_pack_module(self) -> bool:
        """Whether this module defines a scenario pack (it instantiates
        or imports :class:`repro.experiments.packs.ScenarioPack`)."""
        if self._is_pack is None:
            self._is_pack = any(
                source == "repro.experiments.packs.ScenarioPack"
                for source in self.imports.values()
            ) or any(
                isinstance(node, ast.Call)
                and (self.resolve(node.func) or "").endswith(
                    "repro.experiments.packs.ScenarioPack"
                )
                for node in ast.walk(self.tree)
            )
        return self._is_pack

    @property
    def suppressed(self) -> dict[int, frozenset[str]]:
        """Line -> suppressed rule ids for this file (cached)."""
        if self._suppressed is None:
            self._suppressed = suppressed_rules(self.text)
        return self._suppressed

    def resolve(self, node: ast.AST) -> str | None:
        """The import-resolved dotted name of a ``Name``/``Attribute``
        chain: with ``import numpy as np``, ``np.random.seed`` resolves
        to ``"numpy.random.seed"``.  ``None`` when the chain's head is
        not a recorded import (locals, attributes of call results)."""
        dotted = dotted_name(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        source = self.imports.get(head)
        if source is None:
            return None
        return f"{source}.{rest}" if rest else source

    def diag(self, node: ast.AST, rule_id: str, message: str) -> Diagnostic:
        """A :class:`Diagnostic` anchored at ``node``'s position."""
        return Diagnostic(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=rule_id,
            message=message,
        )


@dataclass
class LintReport:
    """The result of one :func:`lint_paths` run.

    Iterable as the historical ``(diagnostics, n_files)`` pair, so
    ``diags, n = lint_paths(...)`` keeps working; the cache statistics
    live alongside as attributes.  ``n_reanalyzed`` counts files whose
    module rules actually ran (cache misses); on a warm run over an
    unchanged tree it is 0 and ``project_reanalyzed`` is False, yet the
    diagnostics are bit-identical to the cold run's.
    """

    diagnostics: list[Diagnostic]
    n_files: int
    n_reanalyzed: int = 0
    project_reanalyzed: bool = False
    rules: list[Rule] = field(default_factory=list)

    def __iter__(self) -> Iterator:
        yield self.diagnostics
        yield self.n_files


def _filter_suppressed(
    diags: Iterable[Diagnostic], suppressed: Mapping[int, frozenset[str]]
) -> list[Diagnostic]:
    out = []
    for d in diags:
        per_line = suppressed.get(d.line)
        if per_line and (d.rule_id in per_line or "ALL" in per_line):
            continue
        out.append(d)
    return out


def _parse(path: str, data: bytes | None = None) -> "ModuleContext | Diagnostic":
    """Parse one file into a context, degrading to a ``REP000``
    diagnostic on read/decode/syntax failure."""
    try:
        if data is None:
            data = Path(path).read_bytes()
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return Diagnostic(path, 1, 1, PARSE_RULE_ID, f"cannot read file: {exc}")
    try:
        tree = ast.parse(text, filename=path)
    except SyntaxError as exc:
        return Diagnostic(
            path,
            exc.lineno or 1,
            exc.offset or 1,
            PARSE_RULE_ID,
            f"syntax error: {exc.msg}",
        )
    return ModuleContext(path, text, tree)


def _run_module_rules(ctx: ModuleContext, rules: Sequence[Rule]) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for rule in rules:
        if rule.scope != "module":
            continue
        try:
            out.extend(rule.check(ctx))
        except Exception as exc:
            raise LintError(
                f"{ctx.path}: internal error in rule {rule.rule_id}: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
    return sorted(
        _filter_suppressed(out, ctx.suppressed),
        key=lambda d: (d.line, d.col, d.rule_id),
    )


def lint_file(path: str, rules: Sequence[Rule]) -> list[Diagnostic]:
    """All surviving module-rule diagnostics for one file.

    Read/parse failures degrade to one ``REP000`` diagnostic naming
    ``file:line:col`` instead of a traceback; suppression comments
    (``# repro-lint: disable=REP001``) are applied before returning.
    Project-scoped rules need the whole file set — use
    :func:`lint_paths` to run them.
    """
    ctx = _parse(path)
    if isinstance(ctx, Diagnostic):
        return [ctx]
    return _run_module_rules(ctx, rules)


def collect_files(paths: Sequence[str]) -> list[str]:
    """Expand files and directories into a sorted, deduplicated list of
    ``.py`` files (``__pycache__`` and dot-directories are skipped).
    A nonexistent path raises :class:`LintError`."""
    seen: dict[str, None] = {}
    for raw in paths:
        p = Path(raw)
        if p.is_file():
            seen.setdefault(str(p))
        elif p.is_dir():
            for sub in sorted(p.rglob("*.py")):
                parts = sub.parts
                if "__pycache__" in parts or any(
                    part.startswith(".") and part not in (".", "..")
                    for part in parts
                ):
                    continue
                seen.setdefault(str(sub))
        else:
            raise LintError(f"path does not exist: {raw}")
    return list(seen)


def _run_project_rules(
    contexts: Sequence[ModuleContext], rules: Sequence[Rule]
) -> list[Diagnostic]:
    """Run the project-scoped rules once over the whole parsed set and
    filter each diagnostic through its own file's suppressions."""
    from repro.lint.project import ProjectContext

    project = ProjectContext(contexts)
    raw: list[Diagnostic] = []
    for rule in rules:
        if rule.scope != "project":
            continue
        try:
            raw.extend(rule.check(project))
        except Exception as exc:
            raise LintError(
                f"internal error in project rule {rule.rule_id}: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
    by_path = {ctx.path: ctx for ctx in contexts}
    out: list[Diagnostic] = []
    for diag in raw:
        ctx = by_path.get(diag.path)
        suppressed = ctx.suppressed if ctx is not None else {}
        out.extend(_filter_suppressed([diag], suppressed))
    return sorted(out, key=lambda d: (d.path, d.line, d.col, d.rule_id))


def lint_paths(
    paths: Sequence[str],
    *,
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
    extra_files: Sequence[str] = (),
    cache_path: str | None = None,
) -> LintReport:
    """Lint every ``.py`` file under ``paths`` (plus ``extra_files``).

    Returns a :class:`LintReport` — iterable as the historical
    ``(diagnostics, n_files_scanned)`` pair — with diagnostics sorted by
    ``(path, line, col, rule id)``.  Module rules run per file; project
    rules (layering, cycles, cross-file pack registration) run once over
    the whole parsed set.

    With ``cache_path`` set, per-file results are keyed on the file's
    content hash and the project pass on the hash of the whole file
    list, both under a ruleset fingerprint (see :mod:`repro.lint.cache`);
    unchanged inputs are never re-analyzed, and cached diagnostics are
    replayed verbatim so warm and cold runs are bit-identical.  This is
    the library entry point the CLI, the docstring-gate shim, and the
    meta-tests all share.
    """
    from repro.lint.cache import LintCache

    files = collect_files(paths)
    known = {os.path.abspath(f) for f in files}
    for extra in extra_files:
        if os.path.abspath(extra) not in known:
            files.append(extra)
            known.add(os.path.abspath(extra))
    rules = active_rules(select, ignore)
    has_project_rules = any(rule.scope == "project" for rule in rules)
    cache = LintCache.open(cache_path, rules) if cache_path else None

    digests: dict[str, str | None] = {}
    file_diags: dict[str, list[Diagnostic]] = {}
    contexts: dict[str, ModuleContext | None] = {}
    raw_bytes: dict[str, bytes] = {}
    n_reanalyzed = 0

    for path in files:
        try:
            data = Path(path).read_bytes()
        except OSError as exc:
            digests[path] = None
            contexts[path] = None
            file_diags[path] = [
                Diagnostic(path, 1, 1, PARSE_RULE_ID, f"cannot read file: {exc}")
            ]
            continue
        raw_bytes[path] = data
        digest = hashlib.sha256(data).hexdigest()
        digests[path] = digest
        cached = cache.file_diagnostics(path, digest) if cache else None
        if cached is not None:
            file_diags[path] = cached
            continue
        n_reanalyzed += 1
        ctx = _parse(path, data)
        if isinstance(ctx, Diagnostic):
            contexts[path] = None
            file_diags[path] = [ctx]
        else:
            contexts[path] = ctx
            file_diags[path] = _run_module_rules(ctx, rules)

    project_diags: list[Diagnostic] = []
    project_reanalyzed = False
    project_digest = hashlib.sha256(
        "\n".join(
            f"{path}\x00{digests[path] or 'unreadable'}" for path in sorted(files)
        ).encode("utf-8")
    ).hexdigest()
    if has_project_rules:
        cached = cache.project_diagnostics(project_digest) if cache else None
        if cached is not None:
            project_diags = cached
        else:
            project_reanalyzed = True
            for path in files:
                if path not in contexts and path in raw_bytes:
                    parsed = _parse(path, raw_bytes[path])
                    contexts[path] = parsed if isinstance(parsed, ModuleContext) else None
            parsed_set = [contexts[p] for p in files if contexts.get(p) is not None]
            project_diags = _run_project_rules(parsed_set, rules)

    if cache is not None:
        cache.store(
            {p: (digests[p], file_diags[p]) for p in files if digests[p] is not None},
            (project_digest, project_diags) if has_project_rules else None,
        )

    merged = sorted(
        [d for path in files for d in file_diags[path]] + project_diags,
        key=lambda d: (d.path, d.line, d.col, d.rule_id),
    )
    return LintReport(
        diagnostics=merged,
        n_files=len(files),
        n_reanalyzed=n_reanalyzed,
        project_reanalyzed=project_reanalyzed,
        rules=rules,
    )
