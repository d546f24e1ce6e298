"""Ablation A4 — vectorized-vs-event backend throughput.

For every scenario with a batched kernel, measure wall-clock for the
same replication batch through both backends and report the speedup.
The two backends are bit-for-bit equivalent (``test_backend_equivalence``
proves it), so this table is pure performance: it shows what batching the
replications through numpy buys over the per-replication event loop, and
it is the canary for a kernel silently degenerating to the slow path.
Every batched kernel must beat the event backend outright.  A direct
kernel *is* the scenario's own ``simulate``, so both backends would run
the same code: it is not timed.

Each ratio is the median of N interleaved event/vectorized pairs (N=5,
or 3 under ``REPRO_BENCH_SMOKE``) that alternate which side runs first,
so one slow run or a warm-up cost paid by whichever side ran first cannot
set it; the quartiles are recorded beside it (Kalibera & Jones,
"Rigorous benchmarking in reasonable time", ISMM 2013).
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.experiments import get_scenario, kernel_ids
from repro.experiments.registry import is_direct_kernel
from repro.experiments.runner import simulate_scenario_batch
from repro.utils.rng import spawn_seed_sequences

# batch sizes / parameter trims so every measurement stays around a second
BATCH = {
    "E1": (32, None),
    "E3": (32, None),
    "E4": (32, None),
    "E6": (4, None),
    "E8": (6, {"horizon": 300, "warmup": 50, "fleet_sizes": (10, 40)}),
    "E17": (128, None),
}

# reduced set for the CI bench-smoke job: a few representative kernels
# at small sizes, recorded under the `smoke` config label so the gate
# compares them against the committed smoke baseline
SMOKE_BATCH = {
    # the batched kernels finish a handful of replications in
    # microseconds — too small to time; give them enough reps that the
    # vectorized side is measurable and the ratio stops jittering
    "E1": (48, None),
    "E4": (32, None),
    "E6": (4, {"ns": (4, 8, 11)}),
    "E17": (32, None),
    # the batched kernel with the smallest margin over its event path
    "E8": (6, {"horizon": 200, "warmup": 20, "fleet_sizes": (10, 40)}),
}

def smoke_mode() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


def n_pairs() -> int:
    return 3 if smoke_mode() else 5


def _measure(sid: str, batch) -> tuple[np.ndarray, np.ndarray]:
    """Wall times of N interleaved event/vectorized pairs; even pairs run
    the event side first, odd pairs the vectorized side."""
    sc = get_scenario(sid)
    reps, overrides = batch[sid]
    params = sc.params(overrides)

    def event() -> None:
        for ss in spawn_seed_sequences(4, reps):
            sc.simulate(ss, params)

    def vectorized() -> None:
        simulate_scenario_batch(sid, spawn_seed_sequences(4, reps), params)

    times = np.empty((n_pairs(), 2))
    for i, row in enumerate(times):
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            t0 = time.perf_counter()
            (event, vectorized)[side]()
            row[side] = time.perf_counter() - t0
    return times[:, 0], times[:, 1]


def test_a04_vectorized_speedup(report, record_bench):
    batch = SMOKE_BATCH if smoke_mode() else BATCH
    if not smoke_mode():
        batched = {sid for sid in kernel_ids() if not is_direct_kernel(sid)}
        assert set(BATCH) == batched, "keep BATCH in sync with the registry"
    rows = []
    speedups = {}
    metrics = {}
    for sid in sorted(batch, key=lambda s: (s[0], int(s[1:]))):
        t_event, t_vec = _measure(sid, batch)
        q1, speedup, q3 = np.percentile(t_event / t_vec, [25, 50, 75])
        speedups[sid] = float(speedup)
        rows.append(
            (sid, float(np.median(t_event)), float(np.median(t_vec)),
             speedups[sid], f"[{q1:.3g}, {q3:.3g}]")
        )
        # the median speedup ratio is the gated metric (machine-robust);
        # its quartiles and the median wall times ride along undirected
        metrics[f"{sid}.speedup"] = {
            "value": speedups[sid],
            "direction": "higher",
            "floor": 1.0,
            # smoke ratios come from tiny batches on shared CI machines,
            # so they need roughly double the slack of the full run
            "tolerance": 0.50 if smoke_mode() else 0.30,
        }
        metrics[f"{sid}.speedup_q1"] = {"value": float(q1)}
        metrics[f"{sid}.speedup_q3"] = {"value": float(q3)}
        metrics[f"{sid}.event_s"] = {"value": float(np.median(t_event)), "unit": "s"}
        metrics[f"{sid}.vec_s"] = {"value": float(np.median(t_vec)), "unit": "s"}

    report(
        "A4: vectorized kernels vs the event backend (same seeds, same results)",
        rows,
        header=("kernel", "event s", "vectorized s", "speedup", "[q1, q3]"),
    )
    record_bench(
        "a04_vectorized_speedup",
        metrics,
        meta={
            "replications": {sid: batch[sid][0] for sid in batch},
            # records measured another way are not its baseline
            "method": f"median of {n_pairs()} interleaved event/vectorized pairs",
        },
    )

    for sid, speedup in speedups.items():
        assert speedup >= 1.0, (
            f"{sid}: vectorized backend no faster than event "
            f"({speedup:.2f}x) — kernel degenerated to the slow path?"
        )
