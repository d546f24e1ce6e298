"""Whole-program lint analysis: layering, seed-flow, cache, JSON output.

Companion to ``tests/test_lint.py`` (engine + per-file rule fixtures):
this file covers the project-scoped REP02x family, the dataflow-powered
REP03x family, the incremental cache's zero-reanalysis/bit-identity
contract, the ``repro.lint/v1`` JSON document, the module-name fallback
for files outside a ``repro`` package, the meta-test pinning
``LAYER_TABLE`` to the ARCHITECTURE diagram, and the two acceptance
injections (upward import, seed-arithmetic stream derivation).
"""

import ast
import json
import re
import textwrap
from pathlib import Path

import pytest

from repro.lint import LintReport, ModuleContext, lint_paths
from repro.lint.cli import DEFAULT_PATHS
from repro.lint.cli import main as lint_main
from repro.lint.project import LAYER_TABLE, layer_of
from repro.lint.suppress import suppressed_rules

REPO = Path(__file__).parent.parent


def _write(tmp_path: Path, text: str, *, name: str = "mod.py", subdir: str = "") -> Path:
    target = tmp_path / subdir / name if subdir else tmp_path / name
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(text))
    return target


def _lint(path: Path, select=None, ignore=None):
    diags, _ = lint_paths([str(path)], select=select, ignore=ignore)
    return diags


# ---------------------------------------------------------------------------
# module-name derivation (satellite: clean fallback outside repro packages)
# ---------------------------------------------------------------------------


class TestModuleNameFallback:
    def _ctx(self, path: str) -> ModuleContext:
        return ModuleContext(path, "", ast.parse(""))

    def test_repro_package_scope_unchanged(self):
        assert self._ctx("x/src/repro/sim/engine.py").module_name == "repro.sim.engine"
        assert self._ctx("src/repro/__init__.py").module_name == "repro"

    def test_scripts_get_dotted_fallback(self):
        ctx = self._ctx("scripts/check_bench_regression.py")
        assert ctx.module_name == "scripts.check_bench_regression"

    def test_fallback_stops_at_non_identifier_component(self):
        ctx = self._ctx("/tmp/some-dir/pkg/mod.py")
        assert ctx.module_name == "pkg.mod"

    def test_bare_non_identifier_stem_survives(self):
        assert self._ctx("weird-name.py").module_name == "weird-name"

    def test_fallback_names_sit_outside_every_layer(self):
        assert layer_of("scripts.check_bench_regression") is None
        assert layer_of("examples.demo_pack.repro_demo_pack") is None

    def test_default_paths_include_scripts(self):
        assert DEFAULT_PATHS == ("src", "benchmarks", "scripts")


# ---------------------------------------------------------------------------
# REP020: upward imports
# ---------------------------------------------------------------------------


class TestREP020Layering:
    def test_substrate_importing_interface_flagged(self, tmp_path):
        path = _write(
            tmp_path,
            '''
            """Doc."""
            from repro.experiments.runner import run_scenario
            ''',
            subdir="repro/utils",
        )
        (diag,) = _lint(path, select=["REP020"])
        assert diag.rule_id == "REP020"
        assert "repro.utils.mod" in diag.message
        assert "repro.experiments.runner" in diag.message
        assert "substrates" in diag.message and "interface" in diag.message

    def test_domain_importing_interface_flagged_even_lazily(self, tmp_path):
        path = _write(
            tmp_path,
            '''
            """Doc."""
            def late():
                """Doc."""
                from repro.experiments.packs import load_packs
                return load_packs
            ''',
            subdir="repro/sim",
        )
        (diag,) = _lint(path, select=["REP020"])
        assert diag.rule_id == "REP020"
        assert diag.line == 5  # the lazy import line, not the def

    def test_downward_and_same_layer_imports_clean(self, tmp_path):
        path = _write(
            tmp_path,
            '''
            """Doc."""
            from repro.core import index_rules
            from repro.sim.engine import EventCalendar
            import repro.utils.rng
            ''',
            subdir="repro/experiments",
        )
        assert _lint(path, select=["REP020"]) == []

    def test_files_outside_layers_never_flagged(self, tmp_path):
        path = _write(
            tmp_path,
            '''
            """Doc."""
            from repro.experiments.runner import run_scenario
            ''',
            subdir="scripts",
        )
        assert _lint(path, select=["REP020"]) == []


# ---------------------------------------------------------------------------
# REP021: import cycles
# ---------------------------------------------------------------------------


class TestREP021Cycles:
    def test_two_module_cycle_flagged_naming_both(self, tmp_path):
        _write(
            tmp_path,
            '"""Doc."""\nfrom repro.core.b import y\nx = 1\n',
            name="a.py",
            subdir="repro/core",
        )
        _write(
            tmp_path,
            '"""Doc."""\nfrom repro.core.a import x\ny = 2\n',
            name="b.py",
            subdir="repro/core",
        )
        diags = _lint(tmp_path / "repro", select=["REP021"])
        assert len(diags) == 1
        (diag,) = diags
        assert "repro.core.a -> repro.core.b -> repro.core.a" in diag.message
        # anchored at the first import of the lexicographically-first member
        assert diag.path.endswith("a.py") and diag.line == 2

    def test_function_local_import_breaks_the_cycle(self, tmp_path):
        _write(
            tmp_path,
            '"""Doc."""\nfrom repro.core.b import y\nx = 1\n',
            name="a.py",
            subdir="repro/core",
        )
        _write(
            tmp_path,
            '''
            """Doc."""
            def get_x():
                """Doc."""
                from repro.core.a import x
                return x
            y = 2
            ''',
            name="b.py",
            subdir="repro/core",
        )
        assert _lint(tmp_path / "repro", select=["REP021"]) == []

    def test_relative_imports_participate(self, tmp_path):
        _write(
            tmp_path,
            '"""Doc."""\nfrom .b import y\nx = 1\n',
            name="a.py",
            subdir="repro/core",
        )
        _write(
            tmp_path,
            '"""Doc."""\nfrom .a import x\ny = 2\n',
            name="b.py",
            subdir="repro/core",
        )
        diags = _lint(tmp_path / "repro", select=["REP021"])
        assert len(diags) == 1 and "repro.core.a" in diags[0].message


# ---------------------------------------------------------------------------
# REP022: unregistered pack kernels
# ---------------------------------------------------------------------------

PACK_HEADER = '''
"""Doc."""
import numpy as np
from repro.experiments.packs import ScenarioPack

PACK = ScenarioPack("demo", "1.0.0")
'''


class TestREP022UnregisteredKernels:
    def test_unregistered_simulate_flagged(self, tmp_path):
        path = _write(
            tmp_path,
            PACK_HEADER
            + textwrap.dedent('''
            def simulate_orphan(ss, params):
                """Doc."""
                return {}

            def direct_orphan(seeds, params):
                """Doc."""
                return []
            '''),
        )
        diags = _lint(path, select=["REP022"])
        assert [d.rule_id for d in diags] == ["REP022", "REP022"]
        assert "simulate_orphan" in diags[0].message
        assert "direct_orphan" in diags[1].message

    def test_decorated_and_directly_registered_clean(self, tmp_path):
        path = _write(
            tmp_path,
            PACK_HEADER
            + textwrap.dedent('''
            @PACK.scenario(id="D1", defaults={}, schema={})
            def simulate_d1(ss, params):
                """Doc."""
                return {}

            def batch_d1(seeds, params):
                """Doc."""
                return []

            PACK.kernel(id="D1", mode="lockstep")(batch_d1)
            '''),
        )
        assert _lint(path, select=["REP022"]) == []

    def test_registration_seen_across_files(self, tmp_path):
        _write(
            tmp_path,
            PACK_HEADER
            + textwrap.dedent('''
            def simulate_shared(ss, params):
                """Doc."""
                return {}
            '''),
            name="defs.py",
        )
        _write(
            tmp_path,
            '''
            """Doc."""
            from defs import simulate_shared
            from repro.experiments.packs import ScenarioPack

            PACK = ScenarioPack("demo", "1.0.0")
            PACK.scenario(id="D1", defaults={}, schema={})(simulate_shared)
            ''',
            name="reg.py",
        )
        assert _lint(tmp_path, select=["REP022"]) == []

    def test_non_pack_modules_exempt(self, tmp_path):
        path = _write(
            tmp_path,
            '''
            """Doc."""
            def simulate_domain_model(rng, params):
                """A legitimate domain simulator, not a pack kernel."""
                return {}
            ''',
            subdir="repro/queueing",
        )
        assert _lint(path, select=["REP022"]) == []


# ---------------------------------------------------------------------------
# REP030: seed arithmetic into RNG sinks
# ---------------------------------------------------------------------------


class TestREP030SeedArithmetic:
    def test_direct_arithmetic_flagged(self, tmp_path):
        path = _write(
            tmp_path,
            '''
            """Doc."""
            import numpy as np

            def streams(seed, n):
                """Doc."""
                return [np.random.default_rng(seed + i) for i in range(n)]
            ''',
        )
        (diag,) = _lint(path, select=["REP030"])
        assert diag.rule_id == "REP030" and diag.line == 7

    def test_one_hop_through_local_flagged(self, tmp_path):
        path = _write(
            tmp_path,
            '''
            """Doc."""
            from numpy.random import default_rng

            def stream(seed, k):
                """Doc."""
                derived = seed * 1000 + k
                return default_rng(derived)
            ''',
        )
        (diag,) = _lint(path, select=["REP030"])
        assert diag.line == 8

    def test_conditional_expression_takes_worse_branch(self, tmp_path):
        path = _write(
            tmp_path,
            '''
            """Doc."""
            import numpy as np

            def stream(seed, i):
                """Doc."""
                return np.random.default_rng(None if seed is None else seed + i)
            ''',
        )
        (diag,) = _lint(path, select=["REP030"])
        assert diag.line == 7

    def test_spawn_call_seed_argument_flagged_too(self, tmp_path):
        path = _write(
            tmp_path,
            '''
            """Doc."""
            from repro.utils.rng import spawn_generators

            def streams(seed, i, n):
                """Doc."""
                return spawn_generators(seed + i, n)
            ''',
        )
        (diag,) = _lint(path, select=["REP030"])
        assert diag.line == 7

    def test_plain_seed_and_spawn_idiom_clean(self, tmp_path):
        path = _write(
            tmp_path,
            '''
            """Doc."""
            import numpy as np
            from repro.utils.rng import spawn_seed_sequences

            def good(seed, n):
                """Doc."""
                rng = np.random.default_rng(seed)
                children = spawn_seed_sequences(seed, n)
                return rng, children
            ''',
        )
        assert _lint(path, select=["REP030"]) == []

    def test_arithmetic_on_counts_not_confused_with_seeds(self, tmp_path):
        path = _write(
            tmp_path,
            '''
            """Doc."""
            from repro.utils.rng import spawn_seed_sequences

            def good(seed, n):
                """Doc."""
                return spawn_seed_sequences(seed, n + 1)
            ''',
        )
        assert _lint(path, select=["REP030"]) == []


# ---------------------------------------------------------------------------
# REP031: cross-replication stream sharing
# ---------------------------------------------------------------------------


class TestREP031SharedStream:
    def test_generator_from_before_loop_flagged(self, tmp_path):
        path = _write(
            tmp_path,
            '''
            """Doc."""
            import numpy as np

            def run(seed, n_replications):
                """Doc."""
                rng = np.random.default_rng(seed)
                out = []
                for r in range(n_replications):
                    out.append(rng.normal())
                return out
            ''',
        )
        (diag,) = _lint(path, select=["REP031"])
        assert diag.rule_id == "REP031" and "'rng'" in diag.message
        assert diag.line == 10  # the draw site inside the loop

    def test_generator_parameter_drawn_in_loop_flagged(self, tmp_path):
        path = _write(
            tmp_path,
            '''
            """Doc."""
            def run(rng, n_replications):
                """Doc."""
                return [sample(rng) for _ in range(n_replications)]
            ''',
        )
        (diag,) = _lint(path, select=["REP031"])
        assert "'rng'" in diag.message

    def test_per_replication_spawn_clean(self, tmp_path):
        path = _write(
            tmp_path,
            '''
            """Doc."""
            from repro.utils.rng import spawn_generators

            def run(seed, n_replications):
                """Doc."""
                return [rng.normal() for rng in spawn_generators(seed, n_replications)]
            ''',
        )
        assert _lint(path, select=["REP031"]) == []

    def test_generator_rebound_inside_loop_clean(self, tmp_path):
        path = _write(
            tmp_path,
            '''
            """Doc."""
            import numpy as np
            from repro.utils.rng import spawn_seed_sequences

            def run(seed, n_replications):
                """Doc."""
                out = []
                for ss in spawn_seed_sequences(seed, n_replications):
                    rng = np.random.default_rng(ss)
                    out.append(rng.normal())
                return out
            ''',
        )
        assert _lint(path, select=["REP031"]) == []

    def test_non_replication_loop_clean(self, tmp_path):
        path = _write(
            tmp_path,
            '''
            """Doc."""
            import numpy as np

            def run(seed, jobs):
                """One replication drawing many samples is the normal case."""
                rng = np.random.default_rng(seed)
                return [rng.exponential(j) for j in jobs]
            ''',
        )
        assert _lint(path, select=["REP031"]) == []


# ---------------------------------------------------------------------------
# REP032: paired-arm generator reuse
# ---------------------------------------------------------------------------


class TestREP032PairedReuse:
    def test_same_generator_in_both_arms_flagged(self, tmp_path):
        path = _write(
            tmp_path,
            '''
            """Doc."""
            import numpy as np

            def paired_gap(seed):
                """Doc."""
                rng = np.random.default_rng(seed)
                return simulate_a(rng) - simulate_b(rng)
            ''',
        )
        (diag,) = _lint(path, select=["REP032"])
        assert diag.rule_id == "REP032" and "'rng'" in diag.message

    def test_same_generator_twice_in_one_call_flagged(self, tmp_path):
        path = _write(
            tmp_path,
            '''
            """Doc."""
            import numpy as np

            def paired(seed):
                """Doc."""
                rng = np.random.default_rng(seed)
                return compare(rng, rng)
            ''',
        )
        (diag,) = _lint(path, select=["REP032"])
        assert "passed twice" in diag.message

    def test_distinct_crn_streams_clean(self, tmp_path):
        path = _write(
            tmp_path,
            '''
            """Doc."""
            from repro.utils.rng import crn_generators

            def paired_gap(seed):
                """Doc."""
                rng_a, rng_b = crn_generators(seed, 2)
                return simulate_a(rng_a) - simulate_b(rng_b)
            ''',
        )
        assert _lint(path, select=["REP032"]) == []

    def test_method_draws_on_one_generator_clean(self, tmp_path):
        path = _write(
            tmp_path,
            '''
            """Doc."""
            import numpy as np

            def delta(seed):
                """Sequential draws from one stream are not CRN pairing."""
                rng = np.random.default_rng(seed)
                return rng.normal() - rng.normal()
            ''',
        )
        assert _lint(path, select=["REP032"]) == []


# ---------------------------------------------------------------------------
# the incremental cache
# ---------------------------------------------------------------------------

DIRTY = '''
"""Doc."""
import numpy as np

def streams(seed, n):
    """Doc."""
    return [np.random.default_rng(seed + i) for i in range(n)]
'''


class TestLintCache:
    def test_warm_run_reanalyzes_zero_files_bit_identically(self, tmp_path):
        _write(tmp_path, DIRTY, name="dirty.py", subdir="tree")
        _write(tmp_path, '"""Doc."""\nX = 1\n', name="clean.py", subdir="tree")
        cache = tmp_path / "cache.json"
        cold = lint_paths([str(tmp_path / "tree")], cache_path=str(cache))
        assert isinstance(cold, LintReport)
        assert cold.n_reanalyzed == 2 and cold.project_reanalyzed
        warm = lint_paths([str(tmp_path / "tree")], cache_path=str(cache))
        assert warm.n_reanalyzed == 0 and not warm.project_reanalyzed
        assert warm.diagnostics == cold.diagnostics
        assert [d.format() for d in warm.diagnostics] == [
            d.format() for d in cold.diagnostics
        ]

    def test_editing_one_file_reanalyzes_only_it(self, tmp_path):
        a = _write(tmp_path, '"""Doc."""\nX = 1\n', name="a.py", subdir="tree")
        _write(tmp_path, '"""Doc."""\nY = 2\n', name="b.py", subdir="tree")
        cache = tmp_path / "cache.json"
        lint_paths([str(tmp_path / "tree")], cache_path=str(cache))
        a.write_text('"""Doc."""\nX = 3\n')
        report = lint_paths([str(tmp_path / "tree")], cache_path=str(cache))
        # one module-rule miss; the project pass must rerun (any file change
        # can change layering/cycle/registration results)
        assert report.n_reanalyzed == 1 and report.project_reanalyzed

    def test_select_change_invalidates_fingerprint(self, tmp_path):
        _write(tmp_path, DIRTY, name="dirty.py", subdir="tree")
        cache = tmp_path / "cache.json"
        lint_paths([str(tmp_path / "tree")], cache_path=str(cache))
        report = lint_paths(
            [str(tmp_path / "tree")], select=["REP030"], cache_path=str(cache)
        )
        assert report.n_reanalyzed == 1  # fingerprint miss: full re-analysis

    def test_corrupt_cache_degrades_to_cold_run(self, tmp_path):
        _write(tmp_path, DIRTY, name="dirty.py", subdir="tree")
        cache = tmp_path / "cache.json"
        first = lint_paths([str(tmp_path / "tree")], cache_path=str(cache))
        cache.write_text("{not json")
        again = lint_paths([str(tmp_path / "tree")], cache_path=str(cache))
        assert again.n_reanalyzed == 1
        assert again.diagnostics == first.diagnostics
        # and the cache heals: the next run is warm again
        healed = lint_paths([str(tmp_path / "tree")], cache_path=str(cache))
        assert healed.n_reanalyzed == 0

    def test_cli_warm_stdout_byte_identical(self, tmp_path, monkeypatch, capsys):
        _write(tmp_path, DIRTY, name="dirty.py", subdir="src")
        monkeypatch.chdir(tmp_path)
        assert lint_main([]) == 1
        cold = capsys.readouterr()
        assert ", 1 re-analyzed" in cold.err
        assert lint_main([]) == 1
        warm = capsys.readouterr()
        assert ", 0 re-analyzed" in warm.err
        assert warm.out == cold.out
        assert (tmp_path / ".repro-lint-cache.json").exists()

    def test_no_cache_flag_disables_caching(self, tmp_path, monkeypatch, capsys):
        _write(tmp_path, '"""Doc."""\nX = 1\n', name="a.py", subdir="src")
        monkeypatch.chdir(tmp_path)
        assert lint_main(["--no-cache"]) == 0
        assert not (tmp_path / ".repro-lint-cache.json").exists()
        assert "re-analyzed" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# JSON output (repro.lint/v1)
# ---------------------------------------------------------------------------


class TestJsonOutput:
    def test_document_shape_and_findings(self, tmp_path, capsys):
        path = _write(tmp_path, DIRTY, name="dirty.py")
        assert lint_main(["--output", "json", "--no-cache", str(path)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.lint/v1"
        assert doc["n_findings"] == len(doc["findings"]) == 1
        (finding,) = doc["findings"]
        assert finding["rule"] == "REP030"
        assert finding["path"] == str(path) and finding["line"] == 7
        assert "REP030" in doc["rules"] and "REP001" in doc["rules"]

    def test_clean_tree_emits_empty_findings_exit_0(self, tmp_path, capsys):
        path = _write(tmp_path, '"""Doc."""\nX = 1\n')
        assert lint_main(["--output", "json", "--no-cache", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["findings"] == [] and doc["n_findings"] == 0

    def test_canonical_encoding_no_volatile_stats(self, tmp_path, capsys):
        path = _write(tmp_path, '"""Doc."""\nX = 1\n')
        lint_main(["--output", "json", "--no-cache", str(path)])
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert out.strip() == json.dumps(doc, sort_keys=True, separators=(",", ":"))
        assert "re-analyzed" not in out and "n_reanalyzed" not in out


# ---------------------------------------------------------------------------
# the layering meta-test + acceptance injections
# ---------------------------------------------------------------------------


class TestLayeringMetaTest:
    def test_layer_table_matches_architecture_doc(self):
        # the ARCHITECTURE.md layering table and LAYER_TABLE must name
        # exactly the same layers and packages, in the same order
        text = (REPO / "docs" / "ARCHITECTURE.md").read_text()
        section = text.split("| layer | packages |")[1]
        rows = []
        for line in section.splitlines():
            line = line.strip()
            if not line.startswith("|"):
                if rows:
                    break
                continue
            cells = [c.strip() for c in line.strip("|").split("|")]
            if len(cells) != 2 or set(cells[0]) <= {"-"}:
                continue
            packages = tuple(re.findall(r"`([\w.]+)`", cells[1]))
            rows.append((cells[0], packages))
        documented = tuple(
            (layer, tuple(sorted(packages))) for layer, packages in rows
        )
        enforced = tuple(
            (layer, tuple(sorted(packages))) for layer, packages in LAYER_TABLE
        )
        assert documented == enforced

    def test_layering_has_no_suppressed_exception(self):
        # the table holds with no exception: no line under src/repro may
        # silence REP020 (by name or through disable=all)
        offenders = [
            f"{path.relative_to(REPO)}:{line}"
            for path in sorted((REPO / "src" / "repro").rglob("*.py"))
            for line, rules in suppressed_rules(path.read_text()).items()
            if rules & {"REP020", "ALL"}
        ]
        assert offenders == []

    def test_every_repro_package_is_layered(self):
        # any new top-level repro.<pkg> must be added to the table
        src = REPO / "src" / "repro"
        for child in sorted(src.iterdir()):
            if child.is_dir() and (child / "__init__.py").exists():
                assert layer_of(f"repro.{child.name}") is not None, child.name


class TestAcceptanceInjections:
    def test_injected_upward_import_fails_gate(self, tmp_path, capsys):
        # acceptance criterion: an upward import added to repro/utils/
        # exits 1 naming rule, file, and line
        source = (REPO / "src" / "repro" / "utils" / "rng.py").read_text()
        bad = source + "\nfrom repro.experiments.runner import run_scenario\n"
        target = tmp_path / "repro" / "utils" / "rng.py"
        target.parent.mkdir(parents=True)
        target.write_text(bad)
        expected_line = bad.count("\n")
        assert lint_main(["--no-cache", str(target)]) == 1
        out = capsys.readouterr().out
        assert f"{target}:{expected_line}:1: REP020" in out

    def test_injected_seed_arithmetic_loop_fails_gate(self, tmp_path, capsys):
        # acceptance criterion: a smuggled default_rng(seed + i) loop in a
        # pack module exits 1 naming rule, file, and line
        source = (
            REPO / "src" / "repro" / "experiments" / "packs" / "polling.py"
        ).read_text()
        bad = source + (
            "\n\ndef _hacked_streams(seed, n_replications):\n"
            '    """Doc."""\n'
            "    return [np.random.default_rng(seed + i)"
            " for i in range(n_replications)]\n"
        )
        target = tmp_path / "repro" / "experiments" / "packs" / "polling.py"
        target.parent.mkdir(parents=True)
        target.write_text(bad)
        expected_line = bad.count("\n")  # the return line is the last one
        assert lint_main(["--no-cache", str(target)]) == 1
        out = capsys.readouterr().out
        assert f"{target}:{expected_line}:" in out and "REP030" in out

    def test_committed_tree_clean_under_full_ruleset(self):
        report = lint_paths(
            [str(REPO / "src"), str(REPO / "benchmarks"), str(REPO / "scripts")],
            extra_files=[str(REPO / "examples" / "demo_pack" / "repro_demo_pack.py")],
        )
        diags, n_files = report
        assert diags == [], "\n".join(d.format() for d in diags)
        assert n_files > 100 and report.rules and len(report.rules) >= 14
