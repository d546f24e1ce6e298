"""Ablation A4 — vectorized-vs-event backend throughput.

For every scenario with a vectorized kernel, measure wall-clock for the
same replication batch through both backends and report the speedup.
The two backends are bit-for-bit equivalent (``test_backend_equivalence``
proves it), so this table is pure performance: it shows what batching the
replications through numpy buys over the per-replication event loop, and
it is the canary for a kernel silently degenerating to the slow path.

``batched``-mode kernels genuinely vectorize the replication loop and
must beat the event backend outright; ``lockstep``-mode kernels drive
the event-/epoch-driven scenarios through the specialised flat
simulators and must also win outright (the flat engines beat the generic
event calendar by a constant factor); ``cached``-mode kernels only hoist
replication-invariant work, so their speedup is bounded by the hoisted
fraction and asserted only not to regress.
"""

from __future__ import annotations

import os
import time

from repro.experiments import get_scenario, kernel_ids
from repro.experiments.backends import simulate_scenario_batch
from repro.sim.vectorized import get_kernel
from repro.utils.rng import spawn_seed_sequences

# batch sizes / parameter trims so every measurement stays around a second
BATCH = {
    "A1": (8, None),
    "A2": (4, {"horizon": 8000.0}),
    "A3": (16, None),
    "E1": (32, None),
    "E2": (4, None),
    "E3": (32, None),
    "E4": (32, None),
    "E5": (64, None),
    "E6": (4, None),
    "E7": (8, None),
    "E8": (6, {"horizon": 300, "warmup": 50, "fleet_sizes": (10, 40)}),
    "E9": (24, None),
    "E10": (3, {"horizon": 800.0}),
    "E11": (3, {"horizon": 600.0}),
    "E12": (2, {"horizon": 1000.0, "rhos": (0.6, 0.9)}),
    "E13": (3, {"horizon": 400.0, "fluid_horizon": 40.0}),
    "E14": (3, {"horizon": 1000.0}),
    "E15": (4, {"horizon": 4000.0}),
    "E16": (24, None),
    "E17": (128, None),
    "E18": (64, None),
    "E19": (2, {"horizon": 400, "warmup": 40}),
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
    "E12": (2, {"horizon": 300.0, "rhos": (0.6, 0.8)}),
    "E15": (2, {"horizon": 1500.0}),
    "E17": (32, None),
    "E19": (2, {"horizon": 200, "warmup": 20}),
}

# cached kernels still spend most of each replication outside the hoisted
# part: only guard against regression, don't demand a speedup
_EVENT_BOUND_FLOOR = 0.7


def smoke_mode() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


def _outright(sid: str) -> bool:
    mode = get_kernel(sid).mode
    return mode == "batched" or mode == "lockstep" or sid in ("E5", "E18")


def _measure(sid: str, batch) -> tuple[float, float]:
    sc = get_scenario(sid)
    reps, overrides = batch[sid]
    params = sc.params(overrides)
    # the smoke batches are tiny, so a single-shot timing is dominated by
    # first-call warmup noise — take best-of-2 there; the full batches
    # are long enough to amortise it in one pass
    t_event, t_vec = float("inf"), float("inf")
    for _ in range(2 if smoke_mode() else 1):
        t0 = time.perf_counter()
        for ss in spawn_seed_sequences(4, reps):
            sc.simulate(ss, params)
        t_event = min(t_event, time.perf_counter() - t0)
        t0 = time.perf_counter()
        simulate_scenario_batch(sid, spawn_seed_sequences(4, reps), params)
        t_vec = min(t_vec, time.perf_counter() - t0)
    return t_event, t_vec


def test_a04_vectorized_speedup(benchmark, report, record_bench):
    batch = SMOKE_BATCH if smoke_mode() else BATCH
    if not smoke_mode():
        assert set(BATCH) == set(kernel_ids()), "keep BATCH in sync with the registry"
    rows = []
    speedups = {}
    metrics = {}
    for sid in sorted(batch, key=lambda s: (s[0], int(s[1:]))):
        t_event, t_vec = _measure(sid, batch)
        speedups[sid] = t_event / t_vec
        rows.append(
            (f"{sid} [{get_kernel(sid).mode}]", t_event, t_vec, t_event / t_vec)
        )
        # the speedup ratio is the gated metric (machine-robust); raw
        # wall times ride along undirected, for the trajectory only
        metrics[f"{sid}.speedup"] = {
            "value": speedups[sid],
            "direction": "higher",
            "floor": 1.0 if _outright(sid) else _EVENT_BOUND_FLOOR,
            # smoke ratios come from tiny batches on shared CI machines,
            # so they need roughly double the slack of the full run
            "tolerance": 0.50 if smoke_mode() else 0.30,
        }
        metrics[f"{sid}.event_s"] = {"value": t_event, "unit": "s"}
        metrics[f"{sid}.vec_s"] = {"value": t_vec, "unit": "s"}

    sc = get_scenario("E1")
    params = sc.params()
    seeds = spawn_seed_sequences(0, 16)
    benchmark(lambda: simulate_scenario_batch("E1", seeds, params))

    report(
        "A4: vectorized kernels vs the event backend (same seeds, same results)",
        rows,
        header=("kernel", "event s", "vectorized s", "speedup"),
    )
    record_bench(
        "a04_vectorized_speedup",
        metrics,
        meta={"replications": {sid: batch[sid][0] for sid in batch}},
    )

    for sid, speedup in speedups.items():
        if _outright(sid):
            assert speedup >= 1.0, (
                f"{sid}: vectorized backend no faster than event "
                f"({speedup:.2f}x) — kernel degenerated to the slow path?"
            )
        else:
            assert speedup >= _EVENT_BOUND_FLOOR, (
                f"{sid}: {get_kernel(sid).mode} kernel slower than the event "
                f"path it wraps ({speedup:.2f}x)"
            )
