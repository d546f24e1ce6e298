"""Round-trip and schema tests for the ``repro.bench/v1`` record.

The trajectory file is the repo's perf memory: appends must be monotone
(old records never rewritten) and atomic (no torn lines survive a
crash), corrupt content must degrade to a clean :class:`BenchRecordError`
naming the line, and every record must carry the version and environment
fingerprint the regression gate keys its comparability on.
"""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    SCHEMA,
    BenchRecordError,
    append_record,
    environment_fingerprint,
    latest_record,
    load_trajectory,
    make_record,
)


def _record(bid="bench_x", value=1.0, config="full", **metric_extra):
    return make_record(
        bid,
        {"m.speedup": {"value": value, "direction": "higher", **metric_extra}},
        config=config,
    )


def test_make_record_schema_and_fingerprint_keys():
    rec = _record()
    assert rec["schema"] == SCHEMA
    assert rec["benchmark_id"] == "bench_x"
    assert rec["config"] == "full"
    from repro import __version__

    assert rec["version"] == __version__
    for key in ("python", "numpy", "platform", "machine"):
        assert key in rec["environment"], key
    assert rec["created"]  # ISO timestamp present
    assert rec["metrics"]["m.speedup"] == {"value": 1.0, "direction": "higher"}
    assert environment_fingerprint() == rec["environment"]


def test_make_record_validates_metrics():
    with pytest.raises(BenchRecordError, match="at least one metric"):
        make_record("b", {})
    with pytest.raises(BenchRecordError, match="no 'value'"):
        make_record("b", {"m": {"direction": "higher"}})
    with pytest.raises(BenchRecordError, match="direction"):
        make_record("b", {"m": {"value": 1.0, "direction": "sideways"}})
    # bare numbers are accepted as ungated values
    rec = make_record("b", {"m": 2.5})
    assert rec["metrics"]["m"] == {"value": 2.5}


def test_append_and_load_round_trip(tmp_path):
    path = tmp_path / "traj.json"
    r1 = _record(value=1.0)
    r2 = _record(value=2.0)
    append_record(path, r1)
    append_record(path, r2)
    records = load_trajectory(path)
    assert records == [r1, r2]
    # canonical JSON lines: one record per line, sorted keys
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0]) == r1
    assert lines[0] == json.dumps(r1, sort_keys=True, separators=(",", ":"))


def test_append_is_monotone(tmp_path):
    path = tmp_path / "traj.json"
    seen = []
    for i in range(5):
        append_record(path, _record(value=float(i)))
        records = load_trajectory(path)
        # every previously written record is still there, unchanged
        assert records[: len(seen)] == seen
        seen = records
    assert [r["metrics"]["m.speedup"]["value"] for r in seen] == [0, 1, 2, 3, 4]


def test_append_leaves_no_temp_files(tmp_path):
    path = tmp_path / "traj.json"
    append_record(path, _record())
    append_record(path, _record(value=2.0))
    assert [p.name for p in tmp_path.iterdir()] == ["traj.json"]


def test_append_rejects_wrong_schema_and_bad_metrics(tmp_path):
    path = tmp_path / "traj.json"
    rec = _record()
    rec["schema"] = "repro.bench/v0"
    with pytest.raises(BenchRecordError, match="schema"):
        append_record(path, rec)
    rec = _record()
    rec["metrics"]["m.speedup"].pop("value")
    with pytest.raises(BenchRecordError, match="no 'value'"):
        append_record(path, rec)
    assert not path.exists()  # nothing was written


def test_corrupt_trailing_record_is_a_clean_error(tmp_path):
    path = tmp_path / "traj.json"
    append_record(path, _record(value=1.0))
    # simulate a torn append: half a JSON object on the last line
    with path.open("a") as fh:
        fh.write('{"schema":"repro.bench/v1","benchmark_id":"bench_x","met')
    with pytest.raises(BenchRecordError, match=r"traj\.json:2"):
        load_trajectory(path)


def test_non_record_line_is_a_clean_error(tmp_path):
    path = tmp_path / "traj.json"
    path.write_text('{"some": "other json"}\n')
    with pytest.raises(BenchRecordError, match="not a repro.bench/v1 record"):
        load_trajectory(path)
    path.write_text(json.dumps({"schema": SCHEMA}) + "\n")
    with pytest.raises(BenchRecordError, match="missing benchmark_id"):
        load_trajectory(path)


def test_blank_lines_are_ignored(tmp_path):
    path = tmp_path / "traj.json"
    append_record(path, _record())
    with path.open("a") as fh:
        fh.write("\n\n")
    assert len(load_trajectory(path)) == 1


def test_latest_record_selects_newest_matching(tmp_path):
    path = tmp_path / "traj.json"
    append_record(path, _record("a", 1.0, config="full"))
    append_record(path, _record("a", 2.0, config="smoke"))
    append_record(path, _record("b", 3.0, config="full"))
    append_record(path, _record("a", 4.0, config="full"))
    records = load_trajectory(path)
    assert latest_record(records, "a")["metrics"]["m.speedup"]["value"] == 4.0
    assert (
        latest_record(records, "a", "smoke")["metrics"]["m.speedup"]["value"] == 2.0
    )
    assert latest_record(records, "b")["metrics"]["m.speedup"]["value"] == 3.0
    assert latest_record(records, "c") is None
    assert latest_record(records, "b", "smoke") is None


def test_committed_trajectory_is_loadable_with_baseline_records():
    # the repo ships a real baseline: at least one full-config record for
    # the vectorized-speedup bench, with gated speedup metrics
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "BENCH_a0x.json"
    records = load_trajectory(path)
    assert records, "committed BENCH_a0x.json must hold at least one record"
    rec = latest_record(records, "a04_vectorized_speedup", "full")
    assert rec is not None
    assert rec["metrics"]["E1.speedup"]["direction"] == "higher"
    # a direct kernel runs the event path on both sides, so it is not
    # timed; every ratio recorded is gated
    assert "E12.speedup" not in rec["metrics"]
    speedups = [k for k in rec["metrics"] if k.endswith(".speedup")]
    assert all(rec["metrics"][k]["direction"] == "higher" for k in speedups)
    smoke = latest_record(records, "a04_vectorized_speedup", "smoke")
    assert smoke is not None, "CI gates the smoke config against this baseline"
