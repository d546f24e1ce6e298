"""Tests for the declarative parameter-sweep subsystem: spec expansion
and validation, the sweep runner, the determinism contract (whole grid vs
point-by-point vs cache-resumed, on both backends), the long-form table /
per-axis summaries / Markdown report, and the ``repro-sweep`` CLI —
including the acceptance property that re-running a sweep against the
same cache directory loads every point from the store (simulate-call
count drops to zero)."""

import json

import pytest

import repro.experiments.runner as runner_mod
from repro.experiments import (
    SampleStore,
    SweepSpec,
    generate_sweep_markdown,
    run_scenario,
    run_sweep,
    sweep_to_json,
)
from repro.experiments.sweep_cli import main as sweep_main

# Small enough that one point costs ~10 ms; both axes genuinely change
# the workload, and E1 has a vectorized kernel for cross-backend tests.
SPEC = SweepSpec("E1", axes={"n_jobs": [8, 12], "n_brute": [4, 5]})


# ---------------------------------------------------------------------------
# spec expansion and validation
# ---------------------------------------------------------------------------


def test_grid_expands_row_major():
    points = SPEC.expand()
    assert [dict(p.axis_values) for p in points] == [
        {"n_jobs": 8, "n_brute": 4},
        {"n_jobs": 8, "n_brute": 5},
        {"n_jobs": 12, "n_brute": 4},
        {"n_jobs": 12, "n_brute": 5},
    ]
    assert [p.index for p in points] == [0, 1, 2, 3]
    assert all(p.scenario_id == "E1" for p in points)


def test_zip_pairs_axes_elementwise():
    spec = SweepSpec("E1", axes={"n_jobs": [8, 12], "n_brute": [4, 5]}, mode="zip")
    assert [dict(p.axis_values) for p in spec.expand()] == [
        {"n_jobs": 8, "n_brute": 4},
        {"n_jobs": 12, "n_brute": 5},
    ]


def test_list_mode_passes_points_through():
    spec = SweepSpec(
        "E1",
        mode="list",
        points=[{"n_jobs": 8}, {"n_jobs": 12, "n_brute": 5}],
    )
    assert spec.axis_names == ("n_jobs", "n_brute")
    points = spec.expand()
    assert dict(points[0].overrides) == {"n_jobs": 8}
    assert dict(points[1].overrides) == {"n_jobs": 12, "n_brute": 5}


def test_base_applies_to_every_point_and_axes_win():
    spec = SweepSpec("E1", axes={"n_jobs": [8, 12]}, base={"n_brute": 4})
    for p in spec.expand():
        assert p.overrides["n_brute"] == 4
        assert p.overrides["n_jobs"] == p.axis_values["n_jobs"]


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(axes={"n_jobs": [8]}, mode="bogus"), "unknown sweep mode"),
        (dict(axes={}), "at least one axis"),
        (dict(axes={"n_jobs": []}), "no values"),
        (
            dict(axes={"n_jobs": [8, 12], "n_brute": [4]}, mode="zip"),
            "equal-length",
        ),
        (
            dict(axes={"n_jobs": [8]}, base={"n_jobs": 12}),
            "both as a sweep axis and in base",
        ),
        (dict(mode="list"), "non-empty points"),
        (
            dict(axes={"n_jobs": [8]}, mode="list", points=[{"n_jobs": 8}]),
            "axes must be empty",
        ),
        (
            dict(axes={"n_jobs": [8]}, points=[{"n_jobs": 8}]),
            "require mode='list'",
        ),
    ],
)
def test_invalid_specs_are_rejected(kwargs, match):
    with pytest.raises(ValueError, match=match):
        SweepSpec("E1", **kwargs)


def test_axis_names_validated_against_param_schema():
    with pytest.raises(KeyError, match="sweep axis 'bogus'"):
        SweepSpec("E1", axes={"bogus": [1]}).expand()
    with pytest.raises(KeyError, match="sweep base 'bogus'"):
        SweepSpec("E1", axes={"n_jobs": [8]}, base={"bogus": 1}).expand()
    with pytest.raises(KeyError, match="unknown scenario"):
        SweepSpec("E99", axes={"x": [1]}).expand()


def test_point_matching_normalises_containers():
    spec = SweepSpec("E12", axes={"rhos": [(0.6,), (0.9,)]})
    points = spec.expand()
    # a list filter value matches the tuple axis value (canonical JSON)
    assert points[0].matches({"rhos": [0.6]})
    assert not points[1].matches({"rhos": [0.6]})


# ---------------------------------------------------------------------------
# the sweep runner
# ---------------------------------------------------------------------------


def test_run_sweep_runs_every_point_with_its_overrides():
    sweep = run_sweep(SPEC, replications=3, seed=0, workers=1)
    assert len(sweep.results) == 4
    for point, res in zip(sweep.points, sweep.results):
        assert res.scenario_id == "E1"
        assert res.n_replications == 3
        for name, value in point.overrides.items():
            assert res.params[name] == value
    assert sweep.total_replications == 12
    assert sweep.all_checks_pass


def test_where_filters_points_without_changing_samples():
    whole = run_sweep(SPEC, replications=3, seed=0)
    filtered = run_sweep(SPEC, replications=3, seed=0, where={"n_jobs": 12})
    assert [dict(p.axis_values) for p in filtered.points] == [
        {"n_jobs": 12, "n_brute": 4},
        {"n_jobs": 12, "n_brute": 5},
    ]
    # the surviving points keep their full-grid indices and exact samples
    assert [p.index for p in filtered.points] == [2, 3]
    assert filtered.results[0].samples == whole.results[2].samples
    assert filtered.results[1].samples == whole.results[3].samples


def test_where_errors_name_the_problem():
    with pytest.raises(KeyError, match="non-axis parameter"):
        run_sweep(SPEC, replications=2, where={"horizon": 1})
    with pytest.raises(ValueError, match="matches no point"):
        run_sweep(SPEC, replications=2, where={"n_jobs": 999})


def test_progress_callback_sees_points_in_order():
    seen = []
    run_sweep(
        SPEC,
        replications=2,
        seed=0,
        progress=lambda point, res: seen.append(
            (point.index, res.n_replications)
        ),
    )
    assert seen == [(0, 2), (1, 2), (2, 2), (3, 2)]


def test_adaptive_precision_applies_per_point():
    sweep = run_sweep(
        SPEC,
        seed=0,
        target_precision=0.5,
        min_reps=3,
        max_reps=24,
    )
    for res in sweep.results:
        assert res.precision is not None
        assert res.precision["met"]
        assert 3 <= res.n_replications <= 24


# ---------------------------------------------------------------------------
# determinism: whole grid vs point-by-point vs cache-resumed, both backends
# ---------------------------------------------------------------------------


def test_sweep_matches_point_by_point_run_scenario():
    sweep = run_sweep(SPEC, replications=4, seed=7)
    for point, res in zip(sweep.points, sweep.results):
        solo = run_scenario("E1", replications=4, seed=7, params=point.overrides)
        assert res.samples == solo.samples  # bit-identical, not approx


@pytest.mark.parametrize("backend", ["event", "vectorized"])
def test_cache_resumed_sweep_is_bit_identical(tmp_path, backend):
    cold = run_sweep(
        SPEC, replications=4, seed=7, backend=backend, cache_dir=tmp_path
    )
    assert cold.cached_replications == 0
    resumed = run_sweep(
        SPEC, replications=4, seed=7, backend=backend, cache_dir=tmp_path
    )
    for a, b in zip(cold.results, resumed.results):
        assert a.samples == b.samples
        assert b.cached_replications == b.n_replications


def test_backends_agree_bitwise_across_the_grid():
    event = run_sweep(SPEC, replications=4, seed=7, backend="event")
    vector = run_sweep(SPEC, replications=4, seed=7, backend="vectorized")
    for a, b in zip(event.results, vector.results):
        assert a.samples == b.samples


@pytest.fixture
def count_simulated(monkeypatch):
    """Count replications actually simulated (not restored from cache)."""
    calls = {"n": 0}
    orig = runner_mod._simulate_chunk

    def counting(payload, seeds):
        calls["n"] += len(seeds)
        return orig(payload, seeds)

    monkeypatch.setattr(runner_mod, "_simulate_chunk", counting)
    return calls


def test_rerun_against_same_cache_simulates_nothing(tmp_path, count_simulated):
    # the acceptance criterion: a re-run of the same sweep against the
    # same --cache-dir loads every point from the store
    run_sweep(SPEC, replications=4, seed=0, cache_dir=tmp_path)
    assert count_simulated["n"] == 16

    count_simulated["n"] = 0
    resumed = run_sweep(SPEC, replications=4, seed=0, cache_dir=tmp_path)
    assert count_simulated["n"] == 0
    assert resumed.cached_replications == resumed.total_replications == 16

    # growing the grid only simulates the new points / the grown suffix
    count_simulated["n"] = 0
    wider = SweepSpec("E1", axes={"n_jobs": [8, 12, 16], "n_brute": [4, 5]})
    grown = run_sweep(wider, replications=4, seed=0, cache_dir=tmp_path)
    assert count_simulated["n"] == 8  # only the two n_jobs=16 points
    assert grown.cached_replications == 16


def test_store_length_reports_cached_points(tmp_path):
    store = SampleStore(tmp_path)
    point = SPEC.expand()[0]
    sc_params = run_scenario(
        "E1", replications=3, seed=0, params=point.overrides, cache_dir=store
    ).params
    assert store.length("E1", sc_params, 0) == 3
    assert store.length("E1", sc_params, 1) == 0


# ---------------------------------------------------------------------------
# table, per-axis summaries, documents, Markdown
# ---------------------------------------------------------------------------


def test_table_is_long_form_keyed_by_scenario_and_axes():
    sweep = run_sweep(SPEC, replications=3, seed=0)
    rows = sweep.table()
    metrics = set(sweep.results[0].metrics)
    assert len(rows) == 4 * len(metrics)
    for row in rows:
        assert row["scenario_id"] == "E1"
        assert set(row["axes"]) == {"n_jobs", "n_brute"}
        assert row["metric"] in metrics
        assert set(row) >= {"mean", "half_width", "std", "min", "max", "n"}


def test_axis_summary_marginalises_over_other_axes():
    sweep = run_sweep(SPEC, replications=3, seed=0)
    summary = sweep.axis_summary("n_jobs")
    assert [row["value"] for row in summary] == [8, 12]
    assert all(row["n_points"] == 2 for row in summary)
    # the marginal mean is the average of the two matching points' means
    means = [
        res.metrics["wsept"].mean
        for point, res in zip(sweep.points, sweep.results)
        if point.axis_values["n_jobs"] == 8
    ]
    assert summary[0]["metrics"]["wsept"] == pytest.approx(
        sum(means) / len(means)
    )
    with pytest.raises(KeyError, match="unknown axis"):
        sweep.axis_summary("horizon")


def test_document_schema_and_strict_json():
    sweep = run_sweep(SPEC, replications=1, seed=0)  # n=1 => non-finite hw
    doc = sweep.to_document(config={"seed": 0})
    assert doc["schema"] == "repro.sweeps/v1"
    assert doc["n_points"] == 4
    assert len(doc["points"]) == 4 and len(doc["table"]) > 0
    assert set(doc["axis_summaries"]) == {"n_jobs", "n_brute"}
    text = sweep_to_json(doc)
    parsed = json.loads(text)  # strict RFC 8259: Infinity would fail
    hw = parsed["points"][0]["result"]["metrics"]["wsept"]["half_width"]
    assert hw is None  # sanitised non-finite half-width


def test_markdown_report_has_point_and_axis_tables():
    sweep = run_sweep(SPEC, replications=3, seed=0)
    md = generate_sweep_markdown(sweep.to_document(config={"seed": 0}))
    assert "# Sweep — E1" in md
    assert "## Results by point" in md
    assert "## Axis `n_jobs` — marginal metric means" in md
    assert "## Axis `n_brute` — marginal metric means" in md
    # one row per point in the point table
    assert md.count("| vectorized |") + md.count("| event |") == 4


# ---------------------------------------------------------------------------
# the repro-sweep CLI
# ---------------------------------------------------------------------------


def _run_cli(capsys, argv):
    code = sweep_main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_cli_run_emits_json_document(capsys, tmp_path):
    json_path = tmp_path / "sweep.json"
    code, _, err = _run_cli(
        capsys,
        [
            "run", "E1",
            "--axis", "n_jobs=8,12",
            "--axis", "n_brute=4,5",
            "--replications", "3",
            "--seed", "0",
            "--json", str(json_path),
        ],
    )
    assert code == 0
    doc = json.loads(json_path.read_text())
    assert doc["schema"] == "repro.sweeps/v1"
    assert [p["axis_values"] for p in doc["points"]] == [
        {"n_jobs": 8, "n_brute": 4},
        {"n_jobs": 8, "n_brute": 5},
        {"n_jobs": 12, "n_brute": 4},
        {"n_jobs": 12, "n_brute": 5},
    ]
    assert doc["config"]["backend_requested"] == "auto"
    assert "[  0] n_jobs=8 n_brute=4" in err  # per-point progress line


def test_cli_tuple_axis_values_and_markdown(capsys):
    code, out, _ = _run_cli(
        capsys,
        [
            "run", "E12",
            "--axis", "rhos=(0.6,),(0.9,)",
            "--base", "horizon=400.0",
            "--replications", "2",
            "--quiet",
            "--markdown", "-",
        ],
    )
    assert code in (0, 1)  # short horizon: shape checks may fail, not a usage error
    assert "# Sweep — E12" in out
    assert "## Axis `rhos`" in out


def test_cli_zip_and_point_modes(capsys, tmp_path):
    code, _, _ = _run_cli(
        capsys,
        [
            "run", "E1", "--mode", "zip",
            "--axis", "n_jobs=8,12", "--axis", "n_brute=4,5",
            "--replications", "2", "--quiet",
            "--json", str(tmp_path / "zip.json"),
        ],
    )
    assert code == 0
    doc = json.loads((tmp_path / "zip.json").read_text())
    assert doc["n_points"] == 2

    code, _, _ = _run_cli(
        capsys,
        [
            "run", "E1",
            "--point", "n_jobs=8,n_brute=4",
            "--point", "n_jobs=12",
            "--replications", "2", "--quiet",
            "--json", str(tmp_path / "list.json"),
        ],
    )
    assert code == 0
    doc = json.loads((tmp_path / "list.json").read_text())
    assert doc["spec"]["mode"] == "list"
    assert doc["n_points"] == 2


def test_cli_where_filters_points(capsys, tmp_path):
    code, _, _ = _run_cli(
        capsys,
        [
            "run", "E1",
            "--axis", "n_jobs=8,12", "--axis", "n_brute=4,5",
            "--where", "n_jobs=12",
            "--replications", "2", "--quiet",
            "--json", str(tmp_path / "w.json"),
        ],
    )
    assert code == 0
    doc = json.loads((tmp_path / "w.json").read_text())
    assert [p["axis_values"]["n_jobs"] for p in doc["points"]] == [12, 12]
    assert doc["where"] == {"n_jobs": 12}


@pytest.mark.parametrize(
    "argv, match",
    [
        (["run", "E1"], "at least one --axis"),
        (["run", "E1", "--axis", "bogus=1"], "not a parameter of E1"),
        (["run", "E99", "--axis", "x=1"], "unknown scenario"),
        (
            ["run", "E1", "--axis", "n_jobs=8", "--point", "n_jobs=8"],
            "cannot be combined",
        ),
        (
            ["run", "E1", "--axis", "n_jobs=8", "--min-reps", "4"],
            "requires --target-precision",
        ),
        (
            ["run", "E1", "--axis", "n_jobs=8", "--axis", "n_jobs=12"],
            "repeated",
        ),
        (
            ["run", "E1", "--axis", "n_jobs=8", "--where", "horizon=1"],
            "non-axis",
        ),
        (["run", "E1", "--axis", "n_jobs=8", "--level", "1.5"], "--level"),
    ],
)
def test_cli_usage_errors_exit_2(capsys, argv, match):
    code, _, err = _run_cli(capsys, argv + ["--replications", "2"])
    assert code == 2
    assert "repro-sweep: error:" in err
    assert match.split()[0].lstrip("-") in err or match in err


def test_cli_list_shows_param_schemas(capsys):
    code, out, _ = _run_cli(capsys, ["list"])
    assert code == 0
    assert "E12" in out and "params:" in out
    code, out, _ = _run_cli(capsys, ["list", "E12"])
    assert code == 0
    assert "rhos = (0.6, 0.9, 0.95)" in out
    code, _, err = _run_cli(capsys, ["list", "E99"])
    assert code == 2


def test_cli_cache_resume_loads_every_point(capsys, tmp_path, count_simulated):
    argv = [
        "run", "E1",
        "--axis", "n_jobs=8,12",
        "--replications", "3", "--seed", "0", "--quiet",
        "--cache-dir", str(tmp_path / "store"),
    ]
    assert sweep_main(argv) == 0
    capsys.readouterr()
    assert count_simulated["n"] == 6
    count_simulated["n"] = 0
    assert sweep_main(argv + ["--json", str(tmp_path / "resume.json")]) == 0
    capsys.readouterr()
    assert count_simulated["n"] == 0
    doc = json.loads((tmp_path / "resume.json").read_text())
    assert all(
        p["result"]["cached_replications"] == p["result"]["n_replications"]
        for p in doc["points"]
    )
