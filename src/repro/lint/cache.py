"""Incremental lint cache: content-hash keyed, bit-identical replay.

The whole-program analyzer re-parses every file and rebuilds the module
graph on each run; in CI that cost is paid twice (cold gate + warm
rerun).  This cache makes the warm run re-analyze *zero* unchanged files
while guaranteeing the emitted diagnostics are byte-identical to a cold
run — cached entries store the final, post-suppression diagnostics, so
replay is verbatim.

Keying:

* every entry lives under a **ruleset fingerprint** — the active rule
  ids, a hash over the linter's own sources, and the Python version —
  so editing any rule, changing ``--select``/``--ignore``, or switching
  interpreters invalidates everything at once;
* per-file entries are keyed ``path -> sha256(content)``;
* the single project-pass entry is keyed on a digest over the sorted
  ``(path, content hash)`` list, because project rules (layering,
  cycles, registration) can change when *any* file changes.

The cache file is written atomically — serialize next to the target and
``os.replace`` into place, the convention of
:func:`repro.utils.serialization.atomic_write` — and is pruned to the current run's file set
so it cannot grow without bound.  A missing, corrupt, or
wrong-fingerprint cache silently degrades to a cold run: the cache can
make a run faster, never different.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Mapping, Sequence

from repro.lint.engine import Diagnostic, Rule

__all__ = ["DEFAULT_CACHE_PATH", "SCHEMA", "LintCache", "ruleset_fingerprint"]

SCHEMA = "repro.lint-cache/v1"

#: Default cache location, relative to the working directory (gitignored).
DEFAULT_CACHE_PATH = ".repro-lint-cache.json"


def _canonical_json(payload: object) -> str:
    # repro.utils.serialization imports numpy; the linter must stay
    # stdlib-only (tests/test_import_budget.py), so its two conventions are
    # restated in this module: canonical_json here and atomic_write in
    # LintCache.store.
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def ruleset_fingerprint(rules: Sequence[Rule]) -> str:
    """A digest that changes when the effective ruleset could change:
    the active rule ids, the linter's own source files, and the Python
    minor version (AST shapes differ across versions)."""
    h = hashlib.sha256()
    h.update(SCHEMA.encode())
    h.update(",".join(sorted(r.rule_id for r in rules)).encode())
    h.update(f"py{sys.version_info.major}.{sys.version_info.minor}".encode())
    lint_dir = Path(__file__).resolve().parent
    for source in sorted(lint_dir.glob("*.py")):
        h.update(source.name.encode())
        try:
            h.update(source.read_bytes())
        except OSError:  # pragma: no cover - unreadable own source
            h.update(b"?")
    return h.hexdigest()


def _diag_to_json(d: Diagnostic) -> dict:
    return {
        "path": d.path,
        "line": d.line,
        "col": d.col,
        "rule": d.rule_id,
        "message": d.message,
    }


def _diag_from_json(obj: dict) -> Diagnostic:
    return Diagnostic(
        path=obj["path"],
        line=obj["line"],
        col=obj["col"],
        rule_id=obj["rule"],
        message=obj["message"],
    )


class LintCache:
    """One loaded cache file, scoped to a ruleset fingerprint."""

    def __init__(self, path: str, fingerprint: str, files: dict, project: dict):
        self.path = path
        self.fingerprint = fingerprint
        self._files = files  # path -> {"hash": ..., "diagnostics": [...]}
        self._project = project  # {"hash": ..., "diagnostics": [...]} or {}

    @classmethod
    def open(cls, path: str, rules: Sequence[Rule]) -> "LintCache":
        """Load ``path`` if it exists and matches the current fingerprint;
        any mismatch or corruption yields an empty cache (a cold run)."""
        fingerprint = ruleset_fingerprint(rules)
        files: dict = {}
        project: dict = {}
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
            if (
                isinstance(payload, dict)
                and payload.get("schema") == SCHEMA
                and payload.get("fingerprint") == fingerprint
            ):
                files = dict(payload.get("files") or {})
                project = dict(payload.get("project") or {})
        except (OSError, ValueError):
            pass  # missing or corrupt cache: degrade to a cold run
        return cls(path, fingerprint, files, project)

    def file_diagnostics(self, path: str, digest: str) -> list[Diagnostic] | None:
        """The cached diagnostics for ``path`` at content hash ``digest``,
        or ``None`` on a miss (file changed or never seen)."""
        entry = self._files.get(path)
        if not isinstance(entry, dict) or entry.get("hash") != digest:
            return None
        try:
            return [_diag_from_json(d) for d in entry["diagnostics"]]
        except (KeyError, TypeError):
            return None

    def project_diagnostics(self, digest: str) -> list[Diagnostic] | None:
        """The cached project-pass diagnostics for the whole-run digest,
        or ``None`` when any scanned file changed."""
        if self._project.get("hash") != digest:
            return None
        try:
            return [_diag_from_json(d) for d in self._project["diagnostics"]]
        except (KeyError, TypeError):
            return None

    def store(
        self,
        files: Mapping[str, tuple[str, Sequence[Diagnostic]]],
        project: tuple[str, Sequence[Diagnostic]] | None,
    ) -> None:
        """Atomically persist this run's results, pruned to its file set.

        Serialize next to the target and ``os.replace`` into place (the
        :func:`~repro.utils.serialization.atomic_write` convention), so a crashed run can never
        leave a half-written cache behind.  Failure to write is silent —
        caching is an optimization, not an output.
        """
        payload = {
            "schema": SCHEMA,
            "fingerprint": self.fingerprint,
            "files": {
                path: {
                    "hash": digest,
                    "diagnostics": [_diag_to_json(d) for d in diags],
                }
                for path, (digest, diags) in sorted(files.items())
            },
            "project": (
                {
                    "hash": project[0],
                    "diagnostics": [_diag_to_json(d) for d in project[1]],
                }
                if project is not None
                else {}
            ),
        }
        target = Path(self.path)
        try:
            fd, tmp = tempfile.mkstemp(
                prefix=target.name + ".", dir=str(target.parent) or "."
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    fh.write(_canonical_json(payload))
                    fh.write("\n")
                os.replace(tmp, target)
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError:
            pass  # read-only checkout etc.: skip caching, never fail the run
