"""Regression-gate semantics and CLI exit codes.

Synthetic trajectories exercise the three verdicts the gate must
produce — pass (within tolerance), fail (real slowdown), skip (no
baseline / unknown benchmark id) — and the CLI contract: exit 0 on
pass/skip, 2 on regression, 1 on malformed input.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from repro.bench import append_record, check_regression, compare_metrics, make_record

REPO = Path(__file__).resolve().parent.parent
GATE = REPO / "scripts" / "check_bench_regression.py"


def _rec(bid="bench", config="full", **metrics):
    return make_record(
        bid,
        {
            name: {"value": value, "direction": "higher", "tolerance": 0.25}
            for name, value in metrics.items()
        },
        config=config,
    )


def _rec_lower(bid="bench", **metrics):
    return make_record(
        bid,
        {name: {"value": value, "direction": "lower"} for name, value in metrics.items()},
        config="full",
    )


# ---------------------------------------------------------------------------
# compare_metrics: the per-metric verdicts
# ---------------------------------------------------------------------------


def test_higher_metric_passes_within_tolerance_and_fails_below():
    base = _rec(speedup=3.0)
    assert compare_metrics(_rec(speedup=2.9), base)[0].status == "pass"
    assert compare_metrics(_rec(speedup=2.3), base)[0].status == "pass"  # 3.0*0.75
    assert compare_metrics(_rec(speedup=2.2), base)[0].status == "fail"


def test_lower_metric_passes_within_tolerance_and_fails_above():
    base = _rec_lower(wall_s=1.0)
    assert compare_metrics(_rec_lower(wall_s=1.2), base)[0].status == "pass"
    assert compare_metrics(_rec_lower(wall_s=1.3), base, default_tolerance=0.25)[
        0
    ].status == "fail"


def test_metric_tolerance_is_a_floor_over_the_default():
    base = _rec(speedup=3.0)
    cand = make_record(
        "bench", {"speedup": {"value": 2.0, "direction": "higher", "tolerance": 0.5}}
    )
    # metric demands 50% slack: 2.0 >= 3.0 * 0.5 passes even though the
    # gate default (25%) alone would fail it
    assert compare_metrics(cand, base, default_tolerance=0.25)[0].status == "pass"
    # ... but a metric cannot tighten below the gate default
    tight = make_record(
        "bench", {"speedup": {"value": 2.4, "direction": "higher", "tolerance": 0.01}}
    )
    assert compare_metrics(tight, base, default_tolerance=0.25)[0].status == "pass"


def test_absolute_floor_fails_even_without_baseline():
    cand = make_record(
        "bench", {"speedup": {"value": 0.8, "direction": "higher", "floor": 1.0}}
    )
    checks = compare_metrics(cand, None)
    assert checks[0].status == "fail"
    assert "floor" in checks[0].detail


def test_undirected_metrics_are_never_gated():
    cand = make_record("bench", {"wall_s": {"value": 99.0, "unit": "s"}})
    assert compare_metrics(cand, _rec_lower(wall_s=1.0)) == []


def test_metric_missing_from_baseline_is_skipped():
    base = _rec(speedup=3.0)
    cand = make_record(
        "bench",
        {
            "speedup": {"value": 3.0, "direction": "higher"},
            "new_metric": {"value": 1.0, "direction": "higher"},
        },
    )
    statuses = {c.name: c.status for c in compare_metrics(cand, base)}
    assert statuses == {"speedup": "pass", "new_metric": "skip"}


# ---------------------------------------------------------------------------
# check_regression: record matching
# ---------------------------------------------------------------------------


def test_within_trajectory_gates_newest_against_previous():
    traj = [_rec(speedup=3.0), _rec(speedup=2.9)]
    entries = check_regression(traj)
    assert [e.status for e in entries] == ["pass"]
    entries = check_regression([_rec(speedup=3.0), _rec(speedup=1.0)])
    assert [e.status for e in entries] == ["fail"]


def test_single_record_or_new_benchmark_id_skips():
    assert [e.status for e in check_regression([_rec(speedup=3.0)])] == ["skip"]
    traj = [_rec("old", speedup=3.0), _rec("old", speedup=3.0), _rec("new", speedup=9.9)]
    statuses = {e.benchmark_id: e.status for e in check_regression(traj)}
    assert statuses == {"old": "pass", "new": "skip"}


def test_configs_gate_independently():
    traj = [
        _rec(config="full", speedup=3.0),
        _rec(config="smoke", speedup=5.0),
        _rec(config="smoke", speedup=4.8),  # fine vs the smoke baseline
        _rec(config="full", speedup=1.0),  # regression vs the full baseline
    ]
    statuses = {(e.benchmark_id, e.config): e.status for e in check_regression(traj)}
    assert statuses == {("bench", "smoke"): "pass", ("bench", "full"): "fail"}


def test_only_records_measured_the_same_way_are_compared():
    def rec(speedup, method):
        r = _rec(speedup=speedup)
        if method is not None:
            r["meta"] = {"method": method}
        return r

    # a new method starts a new baseline instead of failing against the old
    traj = [rec(9.0, None), rec(3.0, "median of 5 pairs")]
    assert [e.status for e in check_regression(traj)] == ["skip"]
    # ... and gates from its second record on
    traj.append(rec(1.0, "median of 5 pairs"))
    assert [e.status for e in check_regression(traj)] == ["fail"]
    # records without a method still compare with each other
    assert [e.status for e in check_regression([rec(9.0, None), rec(1.0, None)])] == ["fail"]
    baseline = [rec(3.0, "median of 5 pairs"), rec(9.0, None)]
    assert [
        e.status for e in check_regression([rec(2.9, "median of 5 pairs")], baseline)
    ] == ["pass"]


def test_separate_baseline_trajectory():
    baseline = [_rec(speedup=3.0)]
    assert [e.status for e in check_regression([_rec(speedup=2.9)], baseline)] == [
        "pass"
    ]
    assert [e.status for e in check_regression([_rec(speedup=1.0)], baseline)] == [
        "fail"
    ]
    # candidate id absent from the baseline file: skip, not fail
    assert [
        e.status for e in check_regression([_rec("other", speedup=1.0)], baseline)
    ] == ["skip"]


def test_benchmark_and_config_filters():
    traj = [
        _rec("a", speedup=3.0),
        _rec("b", speedup=3.0),
        _rec("a", speedup=1.0),
        _rec("b", speedup=3.0),
    ]
    entries = check_regression(traj, benchmark_id="b")
    assert [(e.benchmark_id, e.status) for e in entries] == [("b", "pass")]
    assert check_regression(traj, config="smoke") == []


# ---------------------------------------------------------------------------
# CLI exit codes
# ---------------------------------------------------------------------------


def _run_gate(*args):
    return subprocess.run(
        [sys.executable, str(GATE), *args],
        capture_output=True,
        text=True,
        cwd=REPO,
    )


def test_cli_exit_0_on_pass(tmp_path):
    traj = tmp_path / "t.json"
    append_record(traj, _rec(speedup=3.0))
    append_record(traj, _rec(speedup=2.9))
    proc = _run_gate("--trajectory", str(traj))
    assert proc.returncode == 0, proc.stderr
    assert "gate: OK" in proc.stdout


def test_cli_exit_2_on_injected_slowdown(tmp_path):
    traj = tmp_path / "t.json"
    append_record(traj, _rec(speedup=3.0))
    append_record(traj, _rec(speedup=1.0))
    proc = _run_gate("--trajectory", str(traj))
    assert proc.returncode == 2
    assert "REGRESSION" in proc.stdout
    assert "FAILED" in proc.stderr


def test_cli_exit_0_on_skip(tmp_path):
    traj = tmp_path / "t.json"
    append_record(traj, _rec(speedup=3.0))
    proc = _run_gate("--trajectory", str(traj))
    assert proc.returncode == 0
    assert "skipped" in proc.stdout
    # missing separate baseline file: nothing to gate against, skip
    proc = _run_gate(
        "--trajectory", str(traj), "--baseline", str(tmp_path / "absent.json")
    )
    assert proc.returncode == 0
    # filters that match nothing: skip
    proc = _run_gate("--trajectory", str(traj), "--benchmark-id", "nope")
    assert proc.returncode == 0
    assert "no matching" in proc.stdout


def test_cli_exit_1_on_missing_or_corrupt_trajectory(tmp_path):
    proc = _run_gate("--trajectory", str(tmp_path / "absent.json"))
    assert proc.returncode == 1
    assert "not found" in proc.stderr
    traj = tmp_path / "t.json"
    append_record(traj, _rec(speedup=3.0))
    with traj.open("a") as fh:
        fh.write('{"torn')
    proc = _run_gate("--trajectory", str(traj))
    assert proc.returncode == 1
    assert "corrupt" in proc.stderr


def test_cli_gates_the_committed_trajectory_cleanly():
    # the real suite: committed baseline only → everything passes or skips
    proc = _run_gate()
    assert proc.returncode == 0, proc.stdout + proc.stderr
