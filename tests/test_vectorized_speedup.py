"""Smoke test: the vectorized backend actually is faster.

The full per-kernel table lives in
``benchmarks/bench_a04_vectorized_speedup.py``; this tier-1 smoke keeps a
regression canary in the default test run using two cheap batched
kernels whose vectorization wins by a wide margin (~5-15x).  The floor
is no longer hardcoded: it is derived from the committed perf
trajectory (``BENCH_a0x.json``), so the bar rises as the kernels get
faster.  A generous fraction of the best speedup recorded the current
way absorbs CI noise, and one noisy record cannot lower it;
1x remains the hard lower bound either way, and a missing or unreadable
trajectory degrades to that hard bound rather than failing.
"""

from __future__ import annotations

import copy
import time
from pathlib import Path

import pytest

from repro.bench import BenchRecordError, latest_record, load_trajectory
from repro.experiments.runner import simulate_scenario_batch
from repro.experiments.registry import get_scenario
from repro.utils.rng import spawn_seed_sequences

REPLICATIONS = 16
# accept anything above this fraction of the committed full-config
# speedup — wide slack because the baseline was measured unloaded while
# tier-1 runs share the machine with the rest of the suite
BASELINE_FRACTION = 0.3
TRAJECTORY = Path(__file__).resolve().parent.parent / "BENCH_a0x.json"


def _baseline_floor(sid: str, records: list[dict] | None = None) -> float:
    """Speedup floor for ``sid``: the fraction of its best speedup over
    the full a04 records measured the way the latest one was, else 1x.

    The best, not the latest: appending one noisier record must not
    lower a tier-1 gate."""
    if records is None:
        try:
            records = load_trajectory(TRAJECTORY)
        except (OSError, BenchRecordError):
            return 1.0
    latest = latest_record(records, "a04_vectorized_speedup", "full")
    if latest is None:
        return 1.0
    method = latest.get("meta", {}).get("method")
    speedups = [
        float(rec["metrics"][f"{sid}.speedup"]["value"])
        for rec in records
        if rec.get("benchmark_id") == "a04_vectorized_speedup"
        and rec.get("config") == "full"
        and rec.get("meta", {}).get("method") == method
        and f"{sid}.speedup" in rec["metrics"]
    ]
    return max(1.0, BASELINE_FRACTION * max(speedups, default=0.0))


def test_committed_trajectory_provides_thresholds():
    # guards the coupling this smoke relies on: if the committed
    # trajectory loses its full a04 record, the floors silently fall
    # back to 1x — fail loudly here instead
    rec = latest_record(load_trajectory(TRAJECTORY), "a04_vectorized_speedup", "full")
    assert rec is not None, "BENCH_a0x.json must keep a full a04 baseline record"
    for sid in ("E1", "E4"):
        assert _baseline_floor(sid) > 1.0, f"{sid} baseline too weak to gate on"


@pytest.mark.parametrize("sid", ["E1", "E4"])
def test_a_slower_appended_record_leaves_the_floor_unchanged(sid):
    records = load_trajectory(TRAJECTORY)
    latest = latest_record(records, "a04_vectorized_speedup", "full")
    slower = copy.deepcopy(latest)
    slower["metrics"][f"{sid}.speedup"]["value"] *= 0.5
    assert _baseline_floor(sid, records + [slower]) == _baseline_floor(sid, records)
    # a faster record measured the same way raises it
    faster = copy.deepcopy(latest)
    faster["metrics"][f"{sid}.speedup"]["value"] = 10 * _baseline_floor(sid, records)
    assert _baseline_floor(sid, records + [faster]) > _baseline_floor(sid, records)


@pytest.mark.parametrize("sid", ["E1", "E4"])
def test_batched_kernel_speedup_meets_baseline(sid):
    sc = get_scenario(sid)
    params = sc.params()
    # warm both paths (imports, permutation cache) before timing
    sc.simulate(spawn_seed_sequences(0, 1)[0], params)
    simulate_scenario_batch(sid, spawn_seed_sequences(0, 1), params)

    best_event, best_vec = float("inf"), float("inf")
    for _ in range(2):  # best-of-2 damps scheduler noise
        t0 = time.perf_counter()
        for ss in spawn_seed_sequences(1, REPLICATIONS):
            sc.simulate(ss, params)
        best_event = min(best_event, time.perf_counter() - t0)
        t0 = time.perf_counter()
        simulate_scenario_batch(sid, spawn_seed_sequences(1, REPLICATIONS), params)
        best_vec = min(best_vec, time.perf_counter() - t0)

    floor = _baseline_floor(sid)
    speedup = best_event / best_vec
    assert speedup >= floor, (
        f"{sid}: vectorized speedup {speedup:.2f}x below the baseline-derived "
        f"floor {floor:.2f}x ({best_event:.3f}s vs {best_vec:.3f}s) — "
        f"kernel degenerated, or the committed BENCH_a0x.json baseline is stale"
    )
