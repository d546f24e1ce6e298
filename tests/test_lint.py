"""Tests for ``repro-lint``: the engine, every rule, suppression
semantics, ``--select``/``--ignore``, exit codes 0/1/2, the degraded
``REP000`` path for unparseable files, and the meta-test that the
committed tree lints clean (including the acceptance injections: a
``np.random.seed`` call and a schema/defaults mismatch in a pack module
must each exit 1 naming the rule, file, and line)."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    PARSE_RULE_ID,
    LintError,
    active_rules,
    all_rules,
    collect_files,
    lint_paths,
    suppressed_rules,
)
from repro.lint.cli import main as lint_main

REPO = Path(__file__).parent.parent

RULE_IDS = (
    "REP001",
    "REP002",
    "REP003",
    "REP004",
    "REP010",
    "REP011",
    "REP012",
    "REP013",
    "REP020",
    "REP021",
    "REP022",
    "REP030",
    "REP031",
    "REP032",
)


def _write(tmp_path: Path, text: str, *, name: str = "mod.py", subdir: str = "") -> Path:
    target = tmp_path / subdir / name if subdir else tmp_path / name
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(text))
    return target


def _lint(path: Path, select=None, ignore=None):
    diags, _ = lint_paths([str(path)], select=select, ignore=ignore)
    return diags


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------


class TestEngine:
    def test_rule_catalogue(self):
        rules = all_rules()
        assert tuple(sorted(rules)) == RULE_IDS
        assert all(rule.summary for rule in rules.values())

    def test_active_rules_select_and_ignore(self):
        assert {r.rule_id for r in active_rules(["REP001", "REP004"])} == {
            "REP001",
            "REP004",
        }
        assert {r.rule_id for r in active_rules(None, ["REP012"])} == set(
            RULE_IDS
        ) - {"REP012"}
        assert {r.rule_id for r in active_rules(["REP001"], ["REP001"])} == set()

    def test_unknown_rule_id_raises_naming_known(self):
        with pytest.raises(LintError, match="REP999") as err:
            active_rules(["REP999"])
        assert "REP001" in str(err.value)

    def test_collect_files_skips_pycache_and_sorts(self, tmp_path):
        _write(tmp_path, '"""a."""\n', name="b.py", subdir="pkg")
        _write(tmp_path, '"""a."""\n', name="a.py", subdir="pkg")
        cache = tmp_path / "pkg" / "__pycache__"
        cache.mkdir()
        (cache / "a.cpython-311.py").write_text("bad syntax ((((")
        files = collect_files([str(tmp_path)])
        assert [Path(f).name for f in files] == ["a.py", "b.py"]

    def test_collect_files_missing_path_raises(self, tmp_path):
        with pytest.raises(LintError, match="does not exist"):
            collect_files([str(tmp_path / "nope")])

    def test_diagnostic_format(self, tmp_path):
        path = _write(tmp_path, '"""Doc."""\nimport numpy as np\nnp.random.seed(0)\n')
        (diag,) = _lint(path, select=["REP001"])
        assert diag.format() == f"{path}:3:1: REP001 " + diag.message
        assert diag.line == 3 and diag.col == 1


# ---------------------------------------------------------------------------
# determinism rules
# ---------------------------------------------------------------------------


class TestREP001GlobalRng:
    def test_np_random_seed_and_legacy_fns_flagged(self, tmp_path):
        path = _write(
            tmp_path,
            '''
            """Doc."""
            import numpy as np

            np.random.seed(0)
            x = np.random.rand(3)
            y = np.random.randint(10)
            ''',
        )
        diags = _lint(path, select=["REP001"])
        assert [d.line for d in diags] == [5, 6, 7]
        assert all(d.rule_id == "REP001" for d in diags)
        assert "numpy.random.seed" in diags[0].message

    def test_stdlib_random_module_and_from_import_flagged(self, tmp_path):
        path = _write(
            tmp_path,
            '''
            """Doc."""
            import random
            from random import shuffle

            random.random()
            random.seed(3)
            shuffle([1, 2])
            ''',
        )
        diags = _lint(path, select=["REP001"])
        assert [d.line for d in diags] == [6, 7, 8]
        assert "random.shuffle" in diags[-1].message

    def test_generator_construction_allowed(self, tmp_path):
        path = _write(
            tmp_path,
            '''
            """Doc."""
            import numpy as np

            rng = np.random.default_rng(0)
            gen = np.random.Generator(np.random.PCG64(7))
            ss = np.random.SeedSequence(5)
            vals = rng.random(3)       # method on a Generator: fine
            ''',
        )
        assert _lint(path, select=["REP001"]) == []

    def test_numpy_random_alias_import_flagged(self, tmp_path):
        path = _write(
            tmp_path,
            '''
            """Doc."""
            from numpy import random as npr

            npr.rand(2)
            ''',
        )
        (diag,) = _lint(path, select=["REP001"])
        assert diag.line == 5 and "numpy.random.rand" in diag.message

    def test_unrelated_names_not_flagged(self, tmp_path):
        # a local object that happens to be called .seed() is not the
        # global state; nor is an unimported name `random`
        path = _write(
            tmp_path,
            '''
            """Doc."""
            sampler.seed(3)
            my.random.thing(1)
            ''',
        )
        assert _lint(path, select=["REP001"]) == []


class TestREP002UnseededDefaultRng:
    def test_bare_and_none_flagged(self, tmp_path):
        path = _write(
            tmp_path,
            '''
            """Doc."""
            import numpy as np
            from numpy.random import default_rng

            a = np.random.default_rng()
            b = default_rng()
            c = default_rng(None)
            ''',
        )
        diags = _lint(path, select=["REP002"])
        assert [d.line for d in diags] == [6, 7, 8]

    def test_seeded_forms_allowed(self, tmp_path):
        path = _write(
            tmp_path,
            '''
            """Doc."""
            import numpy as np

            a = np.random.default_rng(0)
            b = np.random.default_rng(ss)
            c = np.random.default_rng(seed=4)
            ''',
        )
        assert _lint(path, select=["REP002"]) == []


class TestREP003ClockSources:
    SOURCE = '''
        """Doc."""
        import os
        import time
        import uuid
        from datetime import datetime

        def simulate_thing(ss, params):
            """Doc."""
            t = time.time()
            d = datetime.now()
            e = os.urandom(8)
            u = uuid.uuid4()
            return {"m": t}
        '''

    def test_flagged_inside_repro_sim(self, tmp_path):
        path = _write(tmp_path, self.SOURCE, subdir="repro/sim")
        diags = _lint(path, select=["REP003"])
        assert [d.line for d in diags] == [10, 11, 12, 13]
        assert "time.time" in diags[0].message
        assert "datetime.datetime.now" in diags[1].message

    def test_flagged_inside_repro_experiments(self, tmp_path):
        path = _write(tmp_path, self.SOURCE, subdir="repro/experiments/packs")
        assert len(_lint(path, select=["REP003"])) == 4

    def test_not_flagged_outside_scope(self, tmp_path):
        # same source in a non-repro, non-pack module: out of scope
        path = _write(tmp_path, self.SOURCE, subdir="tools")
        assert _lint(path, select=["REP003"]) == []
        # repro.bench may read clocks (bench timestamps are not results)
        path = _write(tmp_path, self.SOURCE, subdir="repro/bench")
        assert _lint(path, select=["REP003"]) == []

    def test_pack_modules_in_scope_wherever_they_live(self, tmp_path):
        path = _write(
            tmp_path,
            '''
            """Doc."""
            import time
            from repro.experiments.packs import ScenarioPack

            PACK = ScenarioPack(name="p", version="1.0")
            t0 = time.time()
            ''',
            subdir="examples/some_pack",
        )
        (diag,) = _lint(path, select=["REP003"])
        assert diag.line == 7

    def test_perf_counter_flagged_in_scope(self, tmp_path):
        # the runner's reporting-only timers carry explicit suppressions;
        # new unsuppressed timers inside the scope must be caught
        path = _write(
            tmp_path,
            '"""Doc."""\nimport time\nt = time.perf_counter()\n',
            subdir="repro/experiments",
        )
        assert len(_lint(path, select=["REP003"])) == 1


class TestREP004SetIteration:
    def test_flagged_in_simulate_and_batch_functions(self, tmp_path):
        path = _write(
            tmp_path,
            '''
            """Doc."""

            def simulate_x(ss, params):
                """Doc."""
                total = 0
                for v in {3, 1, 2}:
                    total += v
                vals = [v for v in set((1, 2))]
                return {"m": total}

            def batch_x(seeds, params):
                """Doc."""
                return [{"m": sum(x for x in {1, 2})}]

            def direct_x(seeds, params):
                """Doc."""
                return [{"m": v} for v in {1, 2}]
            ''',
        )
        diags = _lint(path, select=["REP004"])
        assert [d.line for d in diags] == [7, 9, 14, 18]

    def test_other_functions_and_safe_forms_not_flagged(self, tmp_path):
        path = _write(
            tmp_path,
            '''
            """Doc."""

            def helper():
                """Doc."""
                return [v for v in {1, 2}]   # not a kernel/simulate fn

            def simulate_y(ss, params):
                """Doc."""
                ordered = [v for v in sorted({3, 1})]   # sorted: fine
                member = 2 in {1, 2}                    # membership: fine
                return {"m": float(len(ordered))}
            ''',
        )
        assert _lint(path, select=["REP004"]) == []


# ---------------------------------------------------------------------------
# contract rules
# ---------------------------------------------------------------------------


def _pack_source(body: str) -> str:
    # dedent the body before prepending the flush header, otherwise the
    # mixed indentation defeats textwrap.dedent in _write
    return (
        '"""Doc."""\nfrom repro.experiments.packs import ScenarioPack\n\n'
        + textwrap.dedent(body)
    )


class TestREP010SchemaDefaultsParity:
    def test_parity_passes(self, tmp_path):
        path = _write(
            tmp_path,
            _pack_source('''
            PACK = ScenarioPack(name="p", version="1.0", schemas={
                "X1": {"type": "object",
                       "properties": {"rate": {"type": "number"}},
                       "additionalProperties": False},
            })

            @PACK.scenario("X1", title="t", claim="c", verdict="v",
                           defaults={"rate": 1.0})
            def simulate_x1(ss, params):
                """Doc."""
                return {"m": 1.0}
            '''),
        )
        assert _lint(path, select=["REP010"]) == []

    def test_schema_only_property_flagged(self, tmp_path):
        path = _write(
            tmp_path,
            _pack_source('''
            _SCHEMAS = {
                "X1": {"type": "object",
                       "properties": {"rate": {"type": "number"},
                                      "extra": {"type": "integer"}},
                       "additionalProperties": False},
            }

            PACK = ScenarioPack(name="p", version="1.0", schemas=_SCHEMAS)

            @PACK.scenario("X1", title="t", claim="c", verdict="v",
                           defaults={"rate": 1.0})
            def simulate_x1(ss, params):
                """Doc."""
                return {"m": 1.0}
            '''),
        )
        (diag,) = _lint(path, select=["REP010"])
        assert "X1" in diag.message and "extra" in diag.message

    def test_default_only_key_flagged_via_schema_kwarg(self, tmp_path):
        path = _write(
            tmp_path,
            _pack_source('''
            PACK = ScenarioPack(name="p", version="1.0")

            @PACK.scenario("X2", title="t", claim="c", verdict="v",
                           defaults={"n": 3, "ghost": 1},
                           schema={"type": "object",
                                   "properties": {"n": {"type": "integer"}}})
            def simulate_x2(ss, params):
                """Doc."""
                return {"m": 1.0}
            '''),
        )
        (diag,) = _lint(path, select=["REP010"])
        assert "X2" in diag.message and "ghost" in diag.message

    def test_unresolvable_schema_skipped(self, tmp_path):
        path = _write(
            tmp_path,
            _pack_source('''
            def _build():
                """Doc."""
                return {"type": "object", "properties": {}}

            PACK = ScenarioPack(name="p", version="1.0")

            @PACK.scenario("X3", title="t", claim="c", verdict="v",
                           defaults={"n": 3}, schema=_build())
            def simulate_x3(ss, params):
                """Doc."""
                return {"m": 1.0}
            '''),
        )
        assert _lint(path, select=["REP010"]) == []


class TestREP011KernelScenarioPairing:
    def test_dangling_kernel_flagged(self, tmp_path):
        path = _write(
            tmp_path,
            _pack_source('''
            PACK = ScenarioPack(name="p", version="1.0")

            @PACK.scenario("X1", title="t", claim="c", verdict="v")
            def simulate_x1(ss, params):
                """Doc."""
                return {"m": 1.0}

            @PACK.kernel("X1")
            def batch_x1(seeds, params):
                """Doc."""
                return [{"m": 1.0}]

            @PACK.kernel("X9")
            def batch_x9(seeds, params):
                """Doc."""
                return [{"m": 1.0}]
            '''),
        )
        (diag,) = _lint(path, select=["REP011"])
        assert "X9" in diag.message and "@PACK.scenario" in diag.message


class TestREP012Docstrings:
    def test_gaps_flagged_in_scope(self, tmp_path):
        path = _write(
            tmp_path,
            '''
            def public_fn(x):
                return x

            def _private_fn(x):
                return x

            class PublicClass:
                def method(self):
                    return 1

                def _private(self):
                    return 2
            ''',
            subdir="repro/bench",
        )
        diags = _lint(path, select=["REP012"])
        messages = [d.message for d in diags]
        assert "module has no docstring" in messages[0]
        assert diags[0].line == 1
        assert any("public_fn" in m for m in messages)
        assert any("PublicClass" in m and "class" in m for m in messages)
        assert any("PublicClass.method" in m for m in messages)
        assert not any("_private" in m for m in messages)
        assert len(diags) == 4

    def test_documented_module_clean(self, tmp_path):
        path = _write(
            tmp_path,
            '''
            """Doc."""

            def public_fn(x):
                """Doc."""
                return x
            ''',
            subdir="repro/sim",
        )
        assert _lint(path, select=["REP012"]) == []

    def test_out_of_scope_module_skipped(self, tmp_path):
        path = _write(tmp_path, "def no_doc(x):\n    return x\n", subdir="tools")
        assert _lint(path, select=["REP012"]) == []


class TestREP013MetricSlack:
    def test_direction_without_slack_flagged(self, tmp_path):
        path = _write(
            tmp_path,
            '''
            """Doc."""
            BAD = {"value": 1.0, "direction": "higher"}
            ''',
        )
        (diag,) = _lint(path, select=["REP013"])
        assert diag.line == 3 and "tolerance" in diag.message

    def test_slack_or_no_direction_clean(self, tmp_path):
        path = _write(
            tmp_path,
            '''
            """Doc."""
            A = {"value": 1.0, "direction": "higher", "floor": 1.0}
            B = {"value": 1.0, "direction": "lower", "tolerance": 0.3}
            C = {"value": 1.0, "unit": "s"}
            D = {"direction": "north"}   # not a metric spec: no value
            ''',
        )
        assert _lint(path, select=["REP013"]) == []


# ---------------------------------------------------------------------------
# suppressions
# ---------------------------------------------------------------------------


class TestSuppressions:
    def test_trailing_whole_line_and_all(self, tmp_path):
        path = _write(
            tmp_path,
            '''
            """Doc."""
            import numpy as np

            np.random.seed(0)  # repro-lint: disable=REP001
            # repro-lint: disable=REP001
            np.random.seed(1)
            np.random.seed(2)  # repro-lint: disable=all
            np.random.seed(3)  # repro-lint: disable=REP002
            np.random.seed(4)  # repro-lint: disable=rep001, REP003
            ''',
        )
        diags = _lint(path, select=["REP001"])
        # only the wrong-rule suppression on line 9 leaks through
        assert [d.line for d in diags] == [9]

    def test_directive_in_string_literal_ignored(self, tmp_path):
        path = _write(
            tmp_path,
            '''
            """Doc."""
            import numpy as np

            MSG = "# repro-lint: disable=REP001"
            np.random.seed(0)
            ''',
        )
        assert [d.line for d in _lint(path, select=["REP001"])] == [6]

    def test_suppressed_rules_mapping(self):
        text = (
            "x = 1  # repro-lint: disable=REP001,REP002\n"
            "# repro-lint: disable=all\n"
            "y = 2\n"
        )
        sup = suppressed_rules(text)
        assert sup[1] == frozenset({"REP001", "REP002"})
        assert sup[3] == frozenset({"ALL"})


# ---------------------------------------------------------------------------
# unparseable files (REP000)
# ---------------------------------------------------------------------------


class TestParseErrorDegradation:
    def test_syntax_error_is_one_diagnostic_not_a_traceback(self, tmp_path):
        path = _write(tmp_path, '"""Doc."""\ndef broken(:\n    pass\n')
        diags = _lint(path)
        assert len(diags) == 1
        assert diags[0].rule_id == PARSE_RULE_ID
        assert diags[0].line == 2
        assert "syntax error" in diags[0].message

    def test_undecodable_file_is_one_diagnostic(self, tmp_path):
        path = tmp_path / "binary.py"
        path.write_bytes(b"\xff\xfe\x00bad")
        diags = _lint(path)
        assert len(diags) == 1
        assert diags[0].rule_id == PARSE_RULE_ID
        assert "cannot read" in diags[0].message

    def test_rep000_reported_even_under_select(self, tmp_path):
        path = _write(tmp_path, "def broken(:\n")
        diags = _lint(path, select=["REP012"])
        assert [d.rule_id for d in diags] == [PARSE_RULE_ID]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_exit_0_on_clean_file(self, tmp_path, capsys):
        path = _write(tmp_path, '"""Doc."""\nX = 1\n')
        assert lint_main([str(path)]) == 0
        assert "clean" in capsys.readouterr().err

    def test_exit_1_with_diagnostics_on_stdout(self, tmp_path, capsys):
        path = _write(tmp_path, '"""Doc."""\nimport numpy as np\nnp.random.seed(0)\n')
        assert lint_main([str(path)]) == 1
        out = capsys.readouterr()
        assert f"{path}:3:1: REP001" in out.out
        assert "1 finding(s)" in out.err

    def test_exit_2_on_unknown_rule_and_missing_path(self, tmp_path, capsys):
        path = _write(tmp_path, '"""Doc."""\n')
        assert lint_main(["--select", "REP999", str(path)]) == 2
        assert "unknown rule" in capsys.readouterr().err
        assert lint_main([str(tmp_path / "gone")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_select_and_ignore(self, tmp_path, capsys):
        path = _write(
            tmp_path,
            '''
            import numpy as np
            np.random.seed(0)
            ''',
            subdir="repro/sim",
        )
        assert lint_main(["--select", "REP012", str(path)]) == 1
        out = capsys.readouterr().out
        assert "REP012" in out and "REP001" not in out
        assert lint_main(["--ignore", "REP012,REP001", str(path)]) == 0

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULE_IDS:
            assert rule_id in out

    def test_default_paths(self, tmp_path, monkeypatch, capsys):
        _write(tmp_path, '"""Doc."""\nX = 1\n', subdir="src")
        monkeypatch.chdir(tmp_path)
        assert lint_main([]) == 0
        assert "1 file(s) clean" in capsys.readouterr().err

    def test_no_paths_anywhere_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert lint_main([]) == 2
        assert "no paths" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the committed tree + acceptance injections
# ---------------------------------------------------------------------------

POLLING = REPO / "src" / "repro" / "experiments" / "packs" / "polling.py"


class TestCommittedTree:
    def test_tree_lints_clean(self):
        diags, n_files = lint_paths(
            [str(REPO / "src"), str(REPO / "benchmarks")],
            extra_files=[str(REPO / "examples" / "demo_pack" / "repro_demo_pack.py")],
        )
        assert diags == [], "\n".join(d.format() for d in diags)
        assert n_files > 100

    def test_injected_global_seed_caught(self, tmp_path, capsys):
        # the acceptance criterion: np.random.seed(0) smuggled into a pack
        # module exits 1 naming the rule, file, and line
        text = POLLING.read_text()
        bad = text + (
            "\n\ndef simulate_e15_hacked(ss, params):\n"
            '    """Doc."""\n'
            "    np.random.seed(0)\n"
            "    return {}\n"
        )
        target = tmp_path / "repro" / "experiments" / "packs" / "polling.py"
        target.parent.mkdir(parents=True)
        target.write_text(bad)
        expected_line = bad.splitlines().index("    np.random.seed(0)") + 1
        assert lint_main([str(target)]) == 1
        out = capsys.readouterr().out
        assert f"{target}:{expected_line}:5: REP001" in out

    def test_api_doc_snippet_executes(self, tmp_path, monkeypatch):
        # the docs/API.md library example must stay runnable verbatim
        text = (REPO / "docs" / "API.md").read_text()
        section = text.split("## Static analysis (`repro.lint`)")[1]
        code = section.split("```python\n")[1].split("```")[0]
        monkeypatch.chdir(tmp_path)
        exec(compile(code, "API.md", "exec"), {})

    def test_injected_schema_defaults_mismatch_caught(self, tmp_path, capsys):
        text = POLLING.read_text()
        needle = '"horizon": _HORIZON,'
        assert needle in text  # keep the injection aligned with the source
        bad = text.replace(needle, needle.replace('"horizon"', '"horizonx"'))
        target = tmp_path / "repro" / "experiments" / "packs" / "polling.py"
        target.parent.mkdir(parents=True)
        target.write_text(bad)
        assert lint_main([str(target)]) == 1
        out = capsys.readouterr().out
        assert "REP010" in out and "'E15'" in out
        assert "horizonx" in out and str(target) in out
