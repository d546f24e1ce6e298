"""Tests for the scenario-pack subsystem: manifest validation, discovery
(built-in and entry-point), schema-validated params, idempotent
re-registration, pack-scoped store keys, and the check-crash fix."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import (
    PackError,
    ParamValidationError,
    Scenario,
    ScenarioPack,
    discovered_packs,
    generate_markdown,
    get_scenario,
    kernel_ids,
    pack_info,
    run_scenario,
    scenario_ids,
)
from repro.experiments.cli import main as cli_main
from repro.experiments.store import SampleStore, store_payload
from repro.experiments.sweep_cli import main as sweep_main
from repro.utils.schema import schema_errors, validate_schema

REPO = Path(__file__).parent.parent
DEMO_DIR = REPO / "examples" / "demo_pack"


def _sim(ss, params):
    return {"x": 1.0}


# ---------------------------------------------------------------------------
# built-in discovery
# ---------------------------------------------------------------------------


def test_builtin_packs_carry_the_whole_catalogue():
    packs = {pack.name: pack for pack, source in discovered_packs() if source == "builtin"}
    assert set(packs) == {
        "flowshop-batch",
        "bandits",
        "restless",
        "queueing-networks",
        "polling",
    }
    owned = sorted(sid for pack in packs.values() for sid in pack.scenarios)
    assert len(owned) == 22
    assert sorted(sid.upper() for sid in scenario_ids()) == owned


def test_pack_info_resolves_for_every_scenario():
    for sid in scenario_ids():
        name, version = pack_info(sid)
        assert name in {
            "flowshop-batch",
            "bandits",
            "restless",
            "queueing-networks",
            "polling",
        }
        assert version == "1.0.0"


def test_cli_packs_labels_every_kernel_with_its_mode(capsys):
    assert cli_main(["packs"]) == 0
    out = capsys.readouterr().out
    batched = {"E1", "E3", "E4", "E6", "E8", "E17"}
    for sid in kernel_ids():
        assert f"{sid} [{'batched' if sid in batched else 'direct'}]" in out
    assert out.count(" [batched]") == 6 and out.count(" [direct]") == 16


def test_every_builtin_scenario_declares_a_schema():
    for sid in scenario_ids():
        sc = get_scenario(sid)
        assert sc.schema is not None, f"{sid} ships without a param schema"
        # defaults must satisfy the declared schema
        assert schema_errors(sc.defaults, sc.schema) == []


# ---------------------------------------------------------------------------
# manifest validation
# ---------------------------------------------------------------------------


def test_pack_rejects_dangling_kernel():
    pack = ScenarioPack("p", "1.0")
    pack.kernel("NOPE", note="-")(_sim)
    with pytest.raises(PackError, match="no.*matching scenario"):
        pack.validate()


def test_kernel_stacked_on_simulate_lists_as_direct_and_a_separate_one_as_batched(
    capsys, monkeypatch
):
    from repro.experiments import packs, register_pack, registry

    # register into copies, so the catalogue other tests see stays at 22
    monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
    monkeypatch.setattr(packs, "_DISCOVERED", dict(packs._DISCOVERED))

    def simulate_k2(ss, params):
        return {"x": 2.0}

    pack = ScenarioPack("kinds", "1.0")
    pack.scenario("K1", title="-", claim="-", verdict="-")(_sim)
    pack.kernel("K1", note="-")(_sim)  # stacked on the scenario's simulate
    pack.scenario("K2", title="-", claim="-", verdict="-")(simulate_k2)
    pack.kernel("K2", note="-")(lambda seeds, params: [{"x": 2.0} for _ in seeds])
    register_pack(pack)
    assert cli_main(["packs"]) == 0
    out = capsys.readouterr().out
    assert "kernels (2): K1 [direct], K2 [batched]" in out
    # the runner calls a direct kernel once per seed, a batched one once
    for sid in ("K1", "K2"):
        res = run_scenario(sid, replications=3, seed=0, workers=1, backend="vectorized")
        assert res.backend == "vectorized" and res.n_replications == 3


def test_pack_rejects_bad_metadata():
    with pytest.raises(PackError, match="name"):
        ScenarioPack("", "1.0").validate()
    with pytest.raises(PackError, match="version"):
        ScenarioPack("p", "").validate()


def test_pack_rejects_defaults_violating_schema():
    pack = ScenarioPack("p", "1.0")
    pack.scenario(
        "BAD1",
        title="-",
        claim="-",
        verdict="-",
        defaults={"n": 0},
        checks={"ok": lambda m: True},
        schema={
            "type": "object",
            "properties": {"n": {"type": "integer", "minimum": 1}},
            "additionalProperties": False,
        },
    )(_sim)
    with pytest.raises(PackError, match="defaults violate"):
        pack.validate()


def test_pack_rejects_duplicate_scenario_declaration():
    pack = ScenarioPack("p", "1.0")
    deco = pack.scenario("X1", title="-", claim="-", verdict="-")
    deco(_sim)
    with pytest.raises(PackError, match="twice"):
        pack.scenario("x1", title="-", claim="-", verdict="-")(_sim)


def test_register_pack_rejects_non_pack():
    from repro.experiments import register_pack

    with pytest.raises(PackError, match="ScenarioPack"):
        register_pack(object())  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# idempotent re-registration / collisions
# ---------------------------------------------------------------------------


def test_reimporting_a_builtin_pack_module_is_a_noop():
    # the historical crash: importing a pack module twice (or reloading
    # it) raised "already registered"
    from repro.experiments import register_pack
    from repro.experiments.packs import flowshop

    before = get_scenario("E1")
    module = importlib.reload(flowshop)
    register_pack(module.PACK, source="builtin")
    assert get_scenario("E1") is before  # original registration retained
    assert scenario_ids() == [f"A{i}" for i in range(1, 4)] + [
        f"E{i}" for i in range(1, 20)
    ]


def test_cross_pack_collision_names_the_owning_pack():
    from repro.experiments import register_pack

    pack = ScenarioPack("intruder", "0.1")
    pack.scenario("E1", title="-", claim="-", verdict="-")(_sim)
    with pytest.raises(ValueError, match="already registered by pack 'flowshop-batch'"):
        register_pack(pack)


# ---------------------------------------------------------------------------
# schema-validated params
# ---------------------------------------------------------------------------


def test_params_rejects_schema_violations_with_actionable_message():
    sc = get_scenario("E5")
    with pytest.raises(ParamValidationError) as err:
        sc.params({"m": 0})
    msg = str(err.value)
    assert "E5" in msg and "m" in msg and "declared defaults" in msg


def test_params_still_rejects_unknown_keys_as_keyerror():
    with pytest.raises(KeyError, match="no parameter"):
        get_scenario("E5").params({"bogus": 1})


def test_cli_run_exits_2_on_schema_invalid_param(capsys):
    assert cli_main(["run", "E5", "--param", "m=0"]) == 2
    assert "invalid parameters for scenario E5" in capsys.readouterr().err


def test_sweep_cli_exits_2_on_schema_invalid_axis_value(capsys):
    code = sweep_main(
        ["run", "E12", "--axis", "rhos=(1.5,)", "--replications", "2"]
    )
    assert code == 2
    assert "invalid parameters for scenario E12" in capsys.readouterr().err


@pytest.mark.parametrize(
    "main, argv",
    [
        (cli_main, ["run", "E10", "--param", "horizon=1e999"]),
        (sweep_main, ["run", "E10", "--axis", "horizon=1e999"]),
        (sweep_main, ["run", "E13", "--axis", "fluid_horizon=-1e999"]),
    ],
)
def test_clis_exit_2_on_non_finite_param(main, argv, capsys):
    # regression: inf passed the schema, and E10 then simulated forever
    # (E13 died with a traceback)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "inf is not a finite number" in err and "Traceback" not in err


# each bound that caps one replication's run time or memory: the largest
# value accepted, and one just past it
_SIZE_BOUNDS = [
    ("A3", "n_classes", 12, 13),
    *[
        (sid, "horizon", 2e5, 2.0001e5)
        for sid in ("A2", "E10", "E11", "E12", "E13", "E14", "E15")
    ],
    *[(sid, "fluid_horizon", 1200.0, 1200.5) for sid in ("E13", "E14")],
    *[(sid, "fluid_dt", 1e-3, 9.99e-4) for sid in ("E13", "E14")],
]


@pytest.mark.parametrize(
    "sid, key, largest, past", _SIZE_BOUNDS, ids=[f"{b[0]}-{b[1]}" for b in _SIZE_BOUNDS]
)
def test_size_bounds_are_refused_by_params_and_the_cli(sid, key, largest, past, capsys):
    # regression: A3 n_classes=13 was OOM-killed, E13 fluid_dt=1e-9 died
    # with a numpy MemoryError traceback and E10 horizon=1e12 never ended
    sc = get_scenario(sid)
    assert sc.params({key: largest})[key] == largest
    with pytest.raises(ParamValidationError, match=key):
        sc.params({key: past})
    assert cli_main(["run", sid, "--param", f"{key}={past!r}"]) == 2
    assert f"invalid parameters for scenario {sid}" in capsys.readouterr().err


def test_schema_validator_json_semantics():
    # bools are not integers/numbers; tuples are arrays
    assert schema_errors(True, {"type": "integer"})
    assert schema_errors((1, 2), {"type": "array", "items": {"type": "integer"}}) == []
    assert schema_errors(3, {"type": "number"}) == []
    # JSON has no infinity or NaN: non-finite floats fail whatever the bounds
    for value in (float("inf"), float("-inf"), float("nan")):
        (err,) = schema_errors(value, {"type": "number"}, path="x")
        assert err.startswith("x: ") and "not a finite number" in err
        assert schema_errors([1.0, value], {"type": "array"}) == []
        assert schema_errors([1.0, value], {"items": {"type": "number"}})
    with pytest.raises(ValueError, match="unknown type"):
        validate_schema(1, {"type": "int"})
    errs = schema_errors(
        {"a": -1, "b": 2},
        {
            "type": "object",
            "properties": {"a": {"type": "number", "exclusiveMinimum": 0}},
            "additionalProperties": False,
        },
    )
    assert len(errs) == 2  # bound violation + unknown property


# ---------------------------------------------------------------------------
# pack-scoped store keys
# ---------------------------------------------------------------------------


def test_store_key_invalidation_is_scoped_to_the_bumped_pack(tmp_path, monkeypatch):
    store = SampleStore(tmp_path)
    key_e1 = store.key("E1", {}, 0)
    key_e10 = store.key("E10", {}, 0)
    # bump the flowshop pack only
    from dataclasses import replace

    from repro.experiments import registry

    record = replace(registry._REGISTRY["E1"], pack=("flowshop-batch", "9.9.9"))
    monkeypatch.setitem(registry._REGISTRY, "E1", record)
    assert store.key("E1", {}, 0) != key_e1  # bumped pack: new key
    assert store.key("E10", {}, 0) == key_e10  # other packs: untouched


def test_store_roundtrip_with_pack_keyed_payload(tmp_path):
    store = SampleStore(tmp_path)
    rows = [{"m": 1.0}, {"m": 2.0}]
    assert store.save("E1", {}, 7, rows)
    loaded = store.load("E1", {}, 7)
    assert loaded is not None
    payload = store_payload("E1", {}, 7)
    assert payload["pack"] == {"name": "flowshop-batch", "version": "1.0.0"}
    assert "version" not in payload  # the old package-version key is gone


# ---------------------------------------------------------------------------
# check crashes are failures, not aborts
# ---------------------------------------------------------------------------

_CRASHY = Scenario(
    scenario_id="ZZCRASH",
    title="crashy checks",
    claim="-",
    verdict="-",
    simulate=lambda ss, params: {"x": float(np.random.default_rng(ss).random())},
    checks={
        "fine": lambda m: m["x"] >= 0,
        "key_error": lambda m: m["missing_metric"] > 0,
        "zero_div": lambda m: (m["x"] / 0.0) > 0,
    },
)


def test_crashing_check_counts_as_failed_with_error_summary():
    res = run_scenario(_CRASHY, replications=3, seed=0, workers=1)
    assert res.checks["fine"] is True
    assert res.checks["key_error"] is False
    assert res.checks["zero_div"] is False
    assert not res.all_checks_pass
    assert res.check_errors["key_error"].startswith("KeyError")
    assert "ZeroDivisionError" in res.check_errors["zero_div"]
    assert "fine" not in res.check_errors


def test_check_errors_surface_in_json_and_markdown():
    res = run_scenario(_CRASHY, replications=3, seed=0, workers=1)
    doc = json.loads(json.dumps(res.to_dict()))
    assert doc["check_errors"]["zero_div"].startswith("ZeroDivisionError")
    md = generate_markdown([res])
    assert "❌ `zero_div` — raised ZeroDivisionError" in md
    assert "❌ `key_error` — raised KeyError" in md
    assert "✅ `fine`" in md


def test_check_outcomes_on_scenario_object():
    outcomes = _CRASHY.check_outcomes({"x": 1.0})
    assert outcomes["fine"].passed and outcomes["fine"].error is None
    assert not outcomes["zero_div"].passed
    assert outcomes["zero_div"].error.startswith("ZeroDivisionError")


# ---------------------------------------------------------------------------
# entry-point discovery (subprocess: keeps this process's registry clean)
# ---------------------------------------------------------------------------


def _run(args, *, extra_path, cwd=REPO):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), str(extra_path)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=120,
    )


@pytest.mark.slow
def test_demo_pack_discovered_via_entry_point_and_runs_through_both_clis(tmp_path):
    proc = _run(["-m", "repro.experiments.cli", "packs"], extra_path=DEMO_DIR)
    assert proc.returncode == 0, proc.stderr
    assert "demo 0.1.0  [entry-point]" in proc.stdout
    assert "DEMO1" in proc.stdout

    proc = _run(
        ["-m", "repro.experiments.cli", "run", "DEMO1", "--replications", "20",
         "--json", str(tmp_path / "r.json")],
        extra_path=DEMO_DIR,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["results"][0]["scenario_id"] == "DEMO1"
    assert doc["results"][0]["all_checks_pass"] is True

    proc = _run(
        ["-m", "repro.experiments.sweep_cli", "run", "DEMO1",
         "--axis", "rate=0.5,2.0", "--replications", "5"],
        extra_path=DEMO_DIR,
    )
    assert proc.returncode == 0, proc.stderr

    # schema violation from an entry-point pack exits 2 too
    proc = _run(
        ["-m", "repro.experiments.cli", "run", "DEMO1", "--param", "rate=-1"],
        extra_path=DEMO_DIR,
    )
    assert proc.returncode == 2
    assert "invalid parameters for scenario DEMO1" in proc.stderr


def test_packs_are_discovered_on_first_lookup_not_on_import():
    code = (
        "import sys, repro.experiments, repro.experiments.sweep_cli, "
        "repro.serve.cli\n"
        "from repro.experiments.packs import BUILTIN_PACK_MODULES as mods\n"
        "assert not set(mods) & set(sys.modules), 'pack imported eagerly'\n"
        "from repro.experiments import get_scenario, has_kernel\n"
        "assert has_kernel('E1') and get_scenario('E15')\n"
        "assert set(mods) <= set(sys.modules)\n"
    )
    proc = _run(["-c", code], extra_path=REPO / "src")
    assert proc.returncode == 0, proc.stderr


def test_failed_discovery_is_retried_on_the_next_lookup():
    # a built-in pack module that fails to import must fail every scenario
    # and kernel lookup with the real error, not leave a half-filled
    # registry behind; once the fault is gone, the next lookup succeeds
    code = (
        "from repro.experiments import get_scenario, has_kernel, packs, scenario_ids\n"
        "good = packs.BUILTIN_PACK_MODULES\n"
        "bad = list(good)\n"
        "bad.insert(bad.index('repro.experiments.packs.restless'), 'no_such_pack')\n"
        "packs.BUILTIN_PACK_MODULES = tuple(bad)\n"
        "for lookup in (get_scenario, has_kernel) * 2:\n"
        "    try:\n"
        "        lookup('E19')\n"
        "    except ModuleNotFoundError as exc:\n"
        "        assert exc.name == 'no_such_pack', exc\n"
        "    else:\n"
        "        raise AssertionError(f'{lookup.__name__} hid the import error')\n"
        "packs.BUILTIN_PACK_MODULES = good\n"
        "assert get_scenario('E19') and has_kernel('E19')\n"
        "assert len(scenario_ids()) == 22\n"
    )
    proc = _run(["-c", code], extra_path=REPO / "src")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.slow
def test_api_doc_pack_guide_example_executes(tmp_path):
    # the "writing a scenario pack" guide must stay runnable: extract its
    # first python code block and execute it (subprocess, so the example's
    # register_pack call cannot pollute this process's registry)
    text = (REPO / "docs" / "API.md").read_text()
    section = text.split("## Scenario packs (writing your own)")[1]
    code = section.split("```python\n")[1].split("```")[0]
    script = tmp_path / "guide_example.py"
    script.write_text(code)
    proc = _run([str(script)], extra_path=tmp_path)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.slow
def test_broken_entry_point_pack_is_skipped_with_warning(tmp_path):
    (tmp_path / "broken_pack.py").write_text("raise RuntimeError('boom')\n")
    dist = tmp_path / "broken_pack-0.1.dist-info"
    dist.mkdir()
    (dist / "METADATA").write_text(
        "Metadata-Version: 2.1\nName: broken-pack\nVersion: 0.1\n"
    )
    (dist / "entry_points.txt").write_text(
        "[repro.scenario_packs]\nbroken = broken_pack:PACK\n"
    )
    proc = _run(
        ["-W", "always", "-c",
         "from repro.experiments import scenario_ids; print(len(scenario_ids()))"],
        extra_path=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "22"  # registry intact
    assert "failed to load" in proc.stderr and "broken" in proc.stderr


@pytest.mark.slow
def test_malformed_entry_point_manifest_is_skipped_with_warning(tmp_path):
    # loads fine but the manifest is invalid (kernel without a scenario)
    (tmp_path / "malformed_pack.py").write_text(
        "from repro.experiments.packs import ScenarioPack\n"
        "PACK = ScenarioPack('malformed', '0.1')\n"
        "@PACK.kernel('GHOST', note='-')\n"
        "def k(seeds, params):\n"
        "    return []\n"
    )
    dist = tmp_path / "malformed_pack-0.1.dist-info"
    dist.mkdir()
    (dist / "METADATA").write_text(
        "Metadata-Version: 2.1\nName: malformed-pack\nVersion: 0.1\n"
    )
    (dist / "entry_points.txt").write_text(
        "[repro.scenario_packs]\nmalformed = malformed_pack:PACK\n"
    )
    proc = _run(
        ["-W", "always", "-c",
         "from repro.experiments import scenario_ids; print(len(scenario_ids()))"],
        extra_path=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "22"
    assert "failed to load" in proc.stderr and "malformed" in proc.stderr
