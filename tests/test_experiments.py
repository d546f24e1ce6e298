"""Tests for the experiment registry, the parallel replication runner, and
the structured report pipeline."""

import json

import numpy as np
import pytest

from repro.experiments import (
    Scenario,
    generate_markdown,
    get_scenario,
    list_scenarios,
    load_results,
    results_to_json,
    run_scenario,
    run_scenarios,
    scenario_ids,
)
from repro.experiments.cli import main as cli_main
from repro.sim.replication import (
    run_paired_replications,
    run_replications,
    run_replications_parallel,
)
from repro.utils.rng import as_seed_sequence, crn_generators, spawn_seed_sequences


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def test_registry_has_all_survey_scenarios():
    ids = scenario_ids()
    assert ids == [f"A{i}" for i in range(1, 4)] + [f"E{i}" for i in range(1, 20)]
    for sc in list_scenarios():
        assert sc.claim
        assert sc.verdict
        assert sc.title
        assert sc.checks, f"{sc.scenario_id} has no shape checks"
        assert sc.simulate.__doc__ is None or isinstance(sc.simulate.__doc__, str)


def test_get_scenario_case_insensitive_and_unknown():
    assert get_scenario("e1") is get_scenario("E1")
    with pytest.raises(KeyError, match="unknown scenario"):
        get_scenario("E99")


def test_scenario_ids_natural_order():
    ids = scenario_ids()
    assert ids.index("E2") < ids.index("E10")


def test_param_merge_rejects_unknown_keys():
    sc = get_scenario("E1")
    merged = sc.params({"n_jobs": 10})
    assert merged["n_jobs"] == 10
    assert merged["n_brute"] == sc.defaults["n_brute"]
    with pytest.raises(KeyError, match="no parameter"):
        sc.params({"bogus": 1})


def test_list_scenarios_tag_filter():
    batch = list_scenarios(tags=("batch",))
    assert batch and all("batch" in sc.tags for sc in batch)
    assert list_scenarios(tags=("no-such-tag",)) == []


def test_run_once_is_seed_deterministic():
    sc = get_scenario("E1")
    a = sc.run_once(seed=5)
    b = sc.run_once(seed=5)
    c = sc.run_once(seed=6)
    assert a == b
    assert a != c
    assert set(a) >= {"brute_gap", "wsept", "fifo_ratio", "random_ratio"}


def test_reregistering_identical_scenario_is_a_noop():
    # re-importing a pack module re-registers the same simulate functions;
    # that must not blow up (it used to raise "already registered")
    from repro.experiments.registry import register

    sc = get_scenario("E1")
    assert register(sc) is get_scenario("E1")


def test_genuine_id_collision_names_the_owner():
    from dataclasses import replace

    from repro.experiments.registry import register

    sc = get_scenario("E1")
    imposter = replace(sc, simulate=lambda ss, params: {"x": 0.0})
    with pytest.raises(ValueError, match="already registered by pack 'flowshop-batch'"):
        register(imposter)


# ---------------------------------------------------------------------------
# runner: determinism across worker counts (the acceptance criterion)
# ---------------------------------------------------------------------------


def test_run_scenario_identical_across_worker_counts():
    serial = run_scenario("E1", replications=8, seed=42, workers=1)
    parallel = run_scenario("E1", replications=8, seed=42, workers=2)
    assert serial.samples == parallel.samples
    assert serial.means() == parallel.means()
    for name in serial.metrics:
        assert serial.metrics[name].half_width == parallel.metrics[name].half_width
    assert serial.checks == parallel.checks


def test_run_scenario_seed_sensitivity_and_aggregation():
    res = run_scenario("E1", replications=6, seed=0, workers=1)
    assert res.n_replications == 6
    assert res.all_checks_pass, res.checks
    gap = res.metrics["brute_gap"]
    assert gap.n == 6
    assert gap.minimum <= gap.mean <= gap.maximum
    assert len(res.samples["wsept"]) == 6
    # a different seed draws different instances
    other = run_scenario("E1", replications=6, seed=1, workers=1)
    assert other.samples != res.samples


def test_run_scenarios_scopes_param_overrides():
    # n_jobs exists on E1 but not on E5; the shared override must only
    # reach the scenario declaring it.
    results = run_scenarios(
        ["E1", "E5"], replications=2, seed=0, workers=1, params={"n_jobs": 12}
    )
    assert results[0].params["n_jobs"] == 12
    assert "n_jobs" not in results[1].params


def test_single_replication_interval_is_infinite():
    res = run_scenario("E5", replications=1, seed=0, workers=1)
    assert res.metrics["sept_ratio"].half_width == np.inf


def _adhoc_simulate(ss, params):
    rng = np.random.default_rng(ss)
    return {"value": float(rng.uniform()) * params["scale"]}


def test_run_scenario_accepts_unregistered_scenario_object():
    sc = Scenario(
        scenario_id="ZZ",
        title="ad-hoc",
        claim="-",
        verdict="-",
        simulate=_adhoc_simulate,
        defaults={"scale": 2.0},
        checks={"in_range": lambda m: 0.0 <= m["value"] <= 2.0},
    )
    serial = run_scenario(sc, replications=6, seed=1, workers=1)
    assert serial.all_checks_pass
    assert serial.params["scale"] == 2.0
    # the ad-hoc simulate function is shipped to workers directly
    fanned = run_scenario(sc, replications=6, seed=1, workers=2)
    assert fanned.samples == serial.samples


def _partial_simulate(ss, params):
    # a metric reported by only some replications (the "sometimes" column)
    rng = np.random.default_rng(ss)
    row = {"always": float(rng.normal())}
    if rng.random() < 0.5:
        row["sometimes"] = float(rng.normal())
    return row


def test_partially_reported_metrics_use_per_metric_n():
    # regression: _aggregate used the replication count n for every
    # column, so metrics present in only k < n replications got
    # optimistically narrow intervals and a wrong reported n
    from scipy import stats as sps

    sc = Scenario(
        scenario_id="ZZPARTIAL",
        title="partial",
        claim="-",
        verdict="-",
        simulate=_partial_simulate,
        checks={"always_finite": lambda m: np.isfinite(m["always"])},
    )
    res = run_scenario(sc, replications=16, seed=2, workers=1)
    xs = np.asarray(res.samples["sometimes"], dtype=float)
    present = xs[~np.isnan(xs)]
    k = len(present)
    assert 2 <= k < 16  # seed chosen so the column is genuinely partial
    summary = res.metrics["sometimes"]
    assert summary.n == k
    assert res.metrics["always"].n == 16
    t = float(sps.t.ppf(0.975, df=k - 1))
    expected = t * float(present.std(ddof=1)) / np.sqrt(k)
    assert summary.half_width == pytest.approx(expected, rel=1e-12)
    assert summary.mean == pytest.approx(float(present.mean()), rel=1e-12)


def test_metric_reported_once_gets_infinite_half_width():
    sc = Scenario(
        scenario_id="ZZONCE",
        title="once",
        claim="-",
        verdict="-",
        simulate=lambda ss, params: (
            {"common": 1.0, "rare": 5.0}
            if ss.spawn_key[-1] == 0
            else {"common": 1.0}
        ),
    )
    res = run_scenario(sc, replications=4, seed=0, workers=1)
    assert res.metrics["rare"].n == 1
    assert res.metrics["rare"].half_width == np.inf
    assert res.metrics["common"].n == 4


def test_run_scenario_rejects_invalid_level():
    # regression: level >= 1 used to silently yield NaN half-widths
    for bad in (0.0, 1.0, 1.5, -0.5):
        with pytest.raises(ValueError, match="level"):
            run_scenario("E5", replications=2, seed=0, workers=1, level=bad)


# ---------------------------------------------------------------------------
# replication layer
# ---------------------------------------------------------------------------


def _toy_experiment(rng):
    return float(rng.normal())


def test_parallel_replications_match_serial():
    serial = run_replications(_toy_experiment, 16, seed=3)
    fanned = run_replications_parallel(_toy_experiment, 16, seed=3, workers=2)
    np.testing.assert_array_equal(serial.samples, fanned.samples)
    assert serial.mean == fanned.mean
    assert serial.half_width == fanned.half_width


def test_parallel_replications_workers_one_allows_lambdas():
    res = run_replications_parallel(
        lambda rng: float(rng.uniform()), 4, seed=0, workers=1
    )
    assert res.samples.shape == (4,)


def test_paired_replications_crn_streams():
    # identical experiments under CRN produce identical samples and a
    # zero-width difference interval
    paired = run_paired_replications(
        {"a": _toy_experiment, "b": _toy_experiment}, 10, seed=1, workers=1
    )
    np.testing.assert_array_equal(
        paired.results["a"].samples, paired.results["b"].samples
    )
    diff = paired.difference("a", "b")
    assert diff.mean == 0.0
    assert diff.half_width == 0.0


def test_paired_replications_parallel_matches_serial():
    serial = run_paired_replications(
        {"a": _toy_experiment, "b": _shifted_experiment}, 12, seed=5, workers=1
    )
    fanned = run_paired_replications(
        {"a": _toy_experiment, "b": _shifted_experiment}, 12, seed=5, workers=2
    )
    np.testing.assert_array_equal(
        serial.results["b"].samples, fanned.results["b"].samples
    )
    assert serial.difference("a", "b").mean == fanned.difference("a", "b").mean


def _shifted_experiment(rng):
    return float(rng.normal()) + 1.0


def test_crn_generators_share_stream():
    g1, g2 = crn_generators(123, 2)
    assert g1 is not g2
    np.testing.assert_array_equal(g1.normal(size=5), g2.normal(size=5))


def test_spawn_seed_sequences_partition_invariant():
    whole = spawn_seed_sequences(9, 6)
    again = spawn_seed_sequences(9, 6)
    for a, b in zip(whole, again):
        assert np.random.default_rng(a).integers(1 << 30) == np.random.default_rng(
            b
        ).integers(1 << 30)


def test_as_seed_sequence_passthrough():
    ss = np.random.SeedSequence(4)
    assert as_seed_sequence(ss) is ss


# ---------------------------------------------------------------------------
# report pipeline
# ---------------------------------------------------------------------------


def test_json_roundtrip_and_markdown():
    results = [run_scenario("E5", replications=2, seed=0, workers=1)]
    text = results_to_json(results, config={"replications": 2})
    doc = json.loads(text)
    assert doc["schema"] == "repro.experiments/v1"
    assert doc["config"]["replications"] == 2
    loaded = load_results(text)
    assert loaded[0]["scenario_id"] == "E5"
    assert loaded[0]["all_checks_pass"] is True
    assert loaded[0]["metrics"]["sept_ratio"]["n"] == 2

    md = generate_markdown(loaded)
    assert "## E5 —" in md
    assert "sept_ratio" in md
    assert "Paper claim." in md
    assert "1/1 scenarios pass" in md


def test_json_includes_samples_when_asked():
    results = [run_scenario("E5", replications=3, seed=0, workers=1)]
    doc = json.loads(results_to_json(results, include_samples=True))
    assert len(doc["results"][0]["samples"]["sept_ratio"]) == 3


def test_load_results_rejects_unknown_schema():
    with pytest.raises(ValueError, match="unsupported results schema"):
        load_results({"schema": "bogus/v9", "results": []})


def test_markdown_verdict_flags_failed_checks():
    res = run_scenario("E5", replications=2, seed=0, workers=1).to_dict()
    res["checks"]["sept_strictly_suboptimal"] = False
    res["all_checks_pass"] = False
    md = generate_markdown([res])
    assert "NOT reproduced in this run" in md
    assert "sept_strictly_suboptimal" in md
    # a conforming run keeps the scenario's verdict text
    ok = generate_markdown([run_scenario("E5", replications=2, seed=0, workers=1)])
    assert "NOT reproduced" not in ok


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_list(capsys):
    assert cli_main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "E1" in out and "E19" in out and "A1" in out


def test_json_is_strictly_valid_with_single_replication():
    # one replication → infinite half-widths, which must serialise as null
    text = results_to_json([run_scenario("E5", replications=1, seed=0, workers=1)])
    assert "Infinity" not in text and "NaN" not in text
    doc = json.loads(text)
    assert doc["results"][0]["metrics"]["sept_ratio"]["half_width"] is None


def test_cli_run_emits_json_and_markdown(tmp_path, capsys):
    json_path = tmp_path / "results.json"
    md_path = tmp_path / "report.md"
    code = cli_main(
        [
            "run",
            "E5",
            "E18",
            "--replications",
            "2",
            "--workers",
            "1",
            "--seed",
            "0",
            "--json",
            str(json_path),
            "--markdown",
            str(md_path),
        ]
    )
    assert code == 0
    doc = json.loads(json_path.read_text())
    assert [r["scenario_id"] for r in doc["results"]] == ["E5", "E18"]
    md = md_path.read_text()
    assert "## E5 —" in md and "## E18 —" in md


def test_cli_param_override(tmp_path):
    json_path = tmp_path / "results.json"
    code = cli_main(
        [
            "run",
            "E1",
            "--replications",
            "2",
            "--param",
            "n_jobs=11",
            "--json",
            str(json_path),
            "--quiet",
        ]
    )
    assert code == 0
    doc = json.loads(json_path.read_text())
    assert doc["results"][0]["params"]["n_jobs"] == 11


def test_cli_unknown_scenario_errors(capsys):
    assert cli_main(["run", "E99", "--replications", "1"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_cli_vectorized_without_kernel_errors(capsys, monkeypatch):
    # simulate a coverage gap: hide E5's kernel, then demand --backend
    # vectorized — the CLI must fail with a message naming the scenario
    # instead of silently running the event engine
    from repro.sim import vectorized as vec

    vec._ensure_loaded()
    monkeypatch.delitem(vec._KERNELS, "E5")
    code = cli_main(
        ["run", "E5", "--replications", "1", "--backend", "vectorized", "--quiet"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "'E5'" in err and "no vectorized kernel" in err
    # auto keeps the silent per-scenario fallback
    assert (
        cli_main(["run", "E5", "--replications", "1", "--backend", "auto", "--quiet"])
        == 0
    )


def test_cli_json_records_requested_and_resolved_backends(tmp_path):
    json_path = tmp_path / "results.json"
    code = cli_main(
        [
            "run",
            "E5",
            "--replications",
            "1",
            "--backend",
            "auto",
            "--json",
            str(json_path),
            "--quiet",
        ]
    )
    assert code == 0
    doc = json.loads(json_path.read_text())
    # the config keeps what was asked for; the result entry and the
    # resolved map record what actually ran — never "auto"
    assert doc["config"]["backend_requested"] == "auto"
    assert doc["config"]["resolved_backends"] == {"E5": "vectorized"}
    assert doc["results"][0]["backend"] == "vectorized"


def test_cli_unknown_param_key_errors(capsys):
    assert cli_main(["run", "E1", "--replications", "1", "--param", "bogus=1"]) == 2
    assert "bogus" in capsys.readouterr().err


def test_cli_invalid_level_errors(capsys):
    # regression: --level 1.5 used to run and silently report NaN
    # half-widths; it must be a user-facing error instead
    assert cli_main(["run", "E5", "--replications", "2", "--level", "1.5"]) == 2
    assert "--level" in capsys.readouterr().err
    assert cli_main(["run", "E5", "--replications", "2", "--level", "0"]) == 2


def test_cli_unwritable_output_is_a_clean_error(tmp_path, capsys):
    # regression: an unwritable --json/--markdown path raised a traceback
    missing = tmp_path / "no-such-dir" / "results.json"
    code = cli_main(
        ["run", "E5", "--replications", "1", "--json", str(missing), "--quiet"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "cannot write report" in err
    code = cli_main(
        ["run", "E5", "--replications", "1", "--markdown", str(missing), "--quiet"]
    )
    assert code == 2


def test_cli_adaptive_run_records_precision(tmp_path, capsys):
    json_path = tmp_path / "results.json"
    md_path = tmp_path / "report.md"
    code = cli_main(
        [
            "run",
            "E5",
            "--target-precision",
            "0.1",
            "--min-reps",
            "2",
            "--max-reps",
            "8",
            "--json",
            str(json_path),
            "--markdown",
            str(md_path),
            "--quiet",
        ]
    )
    assert code == 0
    doc = json.loads(json_path.read_text())
    assert doc["config"]["target_precision"] == 0.1
    res = doc["results"][0]
    # E5 is deterministic, so the target is met at min_reps
    assert res["n_replications"] == 2
    assert res["precision"]["met"] is True
    assert res["precision"]["target"]["relative"] == 0.1
    assert "Adaptive precision." in md_path.read_text()


def test_cli_adaptive_flag_validation(capsys):
    assert cli_main(["run", "E5", "--min-reps", "4"]) == 2
    assert "--target-precision" in capsys.readouterr().err
    assert cli_main(["run", "E5", "--max-reps", "4"]) == 2
    assert cli_main(["run", "E5", "--target-precision", "-0.1"]) == 2
    assert (
        cli_main(
            ["run", "E5", "--target-precision", "0.1", "--min-reps", "9",
             "--max-reps", "4"]
        )
        == 2
    )


def test_cli_cache_dir_reuses_samples_and_no_cache_disables(tmp_path):
    cache = tmp_path / "cache"
    args = ["run", "E5", "--replications", "3", "--seed", "0", "--quiet"]
    json_path = tmp_path / "results.json"
    assert cli_main(args + ["--cache-dir", str(cache)]) == 0
    assert cli_main(
        args + ["--cache-dir", str(cache), "--json", str(json_path)]
    ) == 0
    doc = json.loads(json_path.read_text())
    assert doc["results"][0]["cached_replications"] == 3
    assert doc["config"]["cache_dir"] == str(cache)
    # --no-cache must neither read nor write the store
    assert cli_main(
        args + ["--cache-dir", str(cache), "--no-cache", "--json", str(json_path)]
    ) == 0
    doc = json.loads(json_path.read_text())
    assert doc["results"][0]["cached_replications"] == 0
    assert doc["config"]["cache_dir"] is None


def test_cli_zero_replications_errors(capsys):
    assert cli_main(["run", "E1", "--replications", "0"]) == 2
    assert "--replications" in capsys.readouterr().err


def test_cli_negative_workers_errors(capsys):
    # 0 means all cores; a negative count is a usage error, not "all cores"
    assert cli_main(["run", "E5", "--replications", "2", "--workers", "-1"]) == 2
    assert "--workers" in capsys.readouterr().err
