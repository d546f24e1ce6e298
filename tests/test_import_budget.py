"""The import budget: what an entry point loads before it does any work.

A 4-replication E1 run simulates for ~10 ms; importing any scipy module
costs several times that.  The policy (docs/ARCHITECTURE.md, "Import
policy") is: only ``numpy`` at module scope, every scipy module imported
inside the function that uses it, and ``repro`` itself lazy.  The checks
here are deterministic (module sets, source lines and bits, never
timings).
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

HEAVY = ("numpy", "scipy", "scipy.special", "scipy.stats", "scipy.optimize")
NO_SCIPY = {"scipy", "scipy.special", "scipy.stats", "scipy.optimize"}

#: entry module -> heavy modules it may not leave in ``sys.modules``
BUDGET = {
    "repro": {"numpy", "scipy"},
    "repro.experiments.cli": NO_SCIPY,
    "repro.experiments.sweep_cli": NO_SCIPY,
    "repro.serve.cli": NO_SCIPY,
    "repro.lint.cli": NO_SCIPY | {"numpy"},
}


def _run_python(code: str):
    """Run ``code`` in a fresh interpreter with ``src`` on the path and
    return what it printed as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _loaded_after_import(module: str) -> set[str]:
    return set(_run_python(
        f"import json, sys, {module}\n"
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))\n"
    ))


@pytest.mark.parametrize("module", sorted(BUDGET))
def test_entry_module_stays_within_its_import_budget(module):
    over = _loaded_after_import(module) & BUDGET[module]
    assert not over, (
        f"import {module} loads {sorted(over)}; see "
        f"`python -X importtime -c 'import {module}'` for the importer"
    )


def _scipy_module(node: ast.stmt) -> list[str]:
    """The scipy modules an import statement loads (``from scipy import
    stats`` loads ``scipy.stats``)."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names if a.name.split(".")[0] == "scipy"]
    if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
        if node.module == "scipy":
            return [f"scipy.{a.name}" for a in node.names]
        if node.module.split(".")[0] == "scipy":
            return [node.module]
    return []


def _module_scope_statements(tree: ast.Module):
    """Every statement that runs on import: the module body and the bodies
    of its classes and compound statements, but not function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for field in ("body", "orelse", "finalbody", "handlers"):
            stack.extend(getattr(node, field, []))


def module_scope_scipy_imports(root: Path) -> list[str]:
    """``path:line: module`` for each scipy import that runs when its
    module is imported (paths relative to ``root``'s parent, so
    ``repro/utils/stats.py``)."""
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in _module_scope_statements(tree):
            for name in _scipy_module(node):
                found.append((path.relative_to(root.parent), node.lineno, name))
    return [f"{path}:{line}: {name}" for path, line, name in sorted(found)]


def test_no_module_scope_scipy_import():
    offenders = module_scope_scipy_imports(SRC / "repro")
    assert not offenders, (
        "import these inside the functions that use them:\n"
        + "\n".join(offenders)
    )


def test_scope_check_flags_module_and_class_scope_but_not_functions(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import numpy as np\n"
        "from scipy.special import stdtrit\n"
        "from scipy import stats\n"
        "try:\n"
        "    import scipy.optimize\n"
        "except ImportError:\n"
        "    pass\n"
        "class A:\n"
        "    from scipy.linalg import expm\n"
        "    def f(self):\n"
        "        from scipy.optimize import linprog\n"
        "def g():\n"
        "    from scipy import stats\n"
    )
    found = module_scope_scipy_imports(tmp_path)
    assert [line.split(":", 1)[1] for line in found] == [
        "2: scipy.special",
        "3: scipy.stats",
        "5: scipy.optimize",
        "9: scipy.linalg",
    ]


def test_daemon_loads_no_scipy_at_a_tabulated_level():
    # at the tabulated levels the t-quantile is read from stdtrit's own
    # table, so a daemon serving them never loads scipy; an untabulated
    # level imports stdtrit; either way the intervals are stdtrit's, bit
    # for bit
    loaded, halves = _run_python(textwrap.dedent("""
        import json, math, sys, tempfile
        from repro.serve.testing import ServerHarness

        def scipy_loaded():
            return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

        loaded, docs = [], []
        with tempfile.TemporaryDirectory() as store, \\
                ServerHarness(store=store) as harness:
            client = harness.client()
            client.health()
            loaded.append(scipy_loaded())
            for reps, level in ((4, 0.95), (7, 0.99), (2, 0.8)):
                job = client.submit({
                    "schema": "repro.serve/v1",
                    "spec": {"scenario_id": "E1", "axes": {"n_jobs": [6]},
                             "mode": "grid"},
                    "run": {"replications": reps, "seed": 0, "level": level},
                })
                docs.append(json.loads(client.fetch(job["job_id"], wait=True,
                                                    timeout=120)))
                loaded.append(scipy_loaded())
        from scipy.special import stdtrit
        halves = []
        for doc in docs:
            for m in doc["points"][0]["result"]["metrics"].values():
                t = float(stdtrit(m["n"] - 1, 0.5 + m["level"] / 2))
                expected = t * m["std"] / math.sqrt(m["n"])
                halves.append([m["level"], m["half_width"], expected])
        print(json.dumps([loaded, halves]))
    """))
    health, at_95, at_99, at_80 = loaded
    assert health == at_95 == at_99 == []
    assert "scipy.special" in at_80
    assert {level for level, _, _ in halves} == {0.95, 0.99, 0.8}
    assert all(
        float(got).hex() == float(expected).hex() for _, got, expected in halves
    ), halves


def test_cli_run_at_the_default_level_loads_no_scipy(tmp_path):
    loaded = _run_python(textwrap.dedent(f"""
        import json, sys
        from repro.experiments.cli import main

        rc = main(["run", "E1", "--replications", "4", "--no-cache",
                   "--quiet", "--json", {str(tmp_path / "e1.json")!r}])
        assert rc == 0, rc
        print(json.dumps(sorted(m for m in sys.modules
                                if m.split(".")[0] == "scipy")))
    """))
    assert loaded == []
    doc = json.loads((tmp_path / "e1.json").read_text(encoding="utf-8"))
    assert {m["level"] for r in doc["results"] for m in r["metrics"].values()} == {
        0.95
    }
