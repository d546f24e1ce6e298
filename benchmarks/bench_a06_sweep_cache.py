"""Ablation A6 — cache-resume economics of a parameter sweep.

A sweep multiplies a scenario into a grid of parameter points, and the
sample store keys each point separately — so the whole grid, not just a
single experiment, becomes resumable.  This benchmark quantifies the
claim on a 2-axis grid:

* a *cold* sweep simulates every replication of every point;
* an identical re-run simulates **nothing** (every point is served from
  the store, bit-identically);
* growing the replication budget simulates only each point's suffix;
* widening the grid simulates only the new points.
"""

from __future__ import annotations

import time

from repro.experiments import SweepSpec, run_sweep

GRID = {"n_jobs": [20, 40], "n_brute": [5, 6]}
WIDER = {"n_jobs": [20, 40, 60], "n_brute": [5, 6]}
REPS = 16


def _timed(spec, store, replications):
    start = time.perf_counter()
    sweep = run_sweep(
        spec, replications=replications, seed=6, workers=1, cache_dir=store
    )
    return sweep, time.perf_counter() - start


def test_a06_sweep_cache_resume(report, record_bench, tmp_path):
    store = tmp_path / "store"
    spec = SweepSpec("E1", axes=GRID)

    cold, t_cold = _timed(spec, store, REPS)
    resumed, t_resume = _timed(spec, store, REPS)
    grown, t_grow = _timed(spec, store, 2 * REPS)
    wider, t_wide = _timed(SweepSpec("E1", axes=WIDER), store, 2 * REPS)

    # resumed runs are bit-identical to the cold run, point by point
    for a, b in zip(cold.results, resumed.results):
        assert a.samples == b.samples

    def simulated(sweep):
        return sweep.total_replications - sweep.cached_replications

    report(
        "A6: sweep cache-resume economics (E1, 2-axis grid, "
        f"{REPS} replications per point)",
        [
            ("cold 4-point grid", simulated(cold), cold.cached_replications, t_cold),
            ("identical re-run", simulated(resumed), resumed.cached_replications, t_resume),
            ("2x replications", simulated(grown), grown.cached_replications, t_grow),
            ("6-point grid", simulated(wider), wider.cached_replications, t_wide),
        ],
        header=("sweep", "simulated", "cached", "seconds"),
    )

    record_bench(
        "a06_sweep_cache",
        {
            # cache hits make the re-run dramatically faster; gate the
            # ratio (machine-robust), record the raw times undirected
            "resume_speedup": {
                "value": t_cold / t_resume,
                "direction": "higher",
                "floor": 1.0,
                "tolerance": 0.50,
            },
            "cold_sweep_s": {"value": t_cold, "unit": "s"},
            "resume_sweep_s": {"value": t_resume, "unit": "s"},
        },
        meta={"grid_points": 4, "replications": REPS},
    )

    assert simulated(cold) == 4 * REPS and cold.cached_replications == 0
    # the acceptance property: a re-run loads every point from the store
    assert simulated(resumed) == 0
    assert resumed.cached_replications == resumed.total_replications
    # growing the budget simulates only each point's suffix ...
    assert simulated(grown) == 4 * REPS and grown.cached_replications == 4 * REPS
    # ... and widening the grid simulates only the new points
    assert simulated(wider) == 2 * 2 * REPS
    assert wider.cached_replications == 4 * 2 * REPS
