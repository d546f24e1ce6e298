"""Ablation A7 — the economics of serving sweeps as a service.

The serving daemon fronts the sample store with an async job queue, so
the cache stops being per-process and becomes an always-on shared
resource.  This benchmark quantifies what that buys on one daemon:

* **submit throughput** — validation + content-addressed dedup are pure
  CPU, so accepting jobs is orders of magnitude cheaper than running
  them;
* **cache economics** — a second client submitting the same sweep (a
  distinct daemon over the same store) simulates zero replications and
  is served dramatically faster than the cold run;
* **stream throughput** — replaying a finished job's NDJSON event stream
  costs microseconds per event.

All documents fetched along the way are byte-identical — the speedups
are free of any accuracy trade.
"""

from __future__ import annotations

import os
import time

from repro.serve import ServerHarness


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


GRID = {"n_jobs": [20, 40], "n_brute": [5, 6]}
REPS = 4 if _smoke() else 16
N_SUBMITS = 8 if _smoke() else 24


def _submission(reps=REPS, seed=6, axes=GRID):
    return {
        "schema": "repro.serve/v1",
        "spec": {"scenario_id": "E1", "axes": axes, "mode": "grid"},
        "run": {"replications": reps, "seed": seed},
    }


def test_a07_serving_economics(report, record_bench, tmp_path):
    store = tmp_path / "store"
    sub = _submission()

    # cold: first daemon simulates the whole grid
    with ServerHarness(store=store) as harness:
        client = harness.client()
        start = time.perf_counter()
        job_id = client.submit(sub)["job_id"]
        cold_doc = client.fetch(job_id, wait=True, timeout=600,
                                poll_seconds=0.001)
        t_cold = time.perf_counter() - start

        # submit throughput: distinct cheap jobs, accepted not awaited
        start = time.perf_counter()
        for seed in range(1000, 1000 + N_SUBMITS):
            client.submit(_submission(reps=1, seed=seed, axes={"n_jobs": [6]}))
        t_submit = time.perf_counter() - start

        # stream replay throughput on the finished job
        start = time.perf_counter()
        n_events = sum(1 for _ in client.events(job_id))
        t_stream = time.perf_counter() - start

    # warm: a second daemon (second client) over the same store — the
    # sweep-cache dividend served over the wire
    with ServerHarness(store=store) as harness:
        client = harness.client()
        start = time.perf_counter()
        assert client.submit(sub)["job_id"] == job_id
        warm_doc = client.fetch(job_id, wait=True, timeout=600,
                                poll_seconds=0.001)
        t_warm = time.perf_counter() - start
        status = client.status(job_id)

    assert warm_doc == cold_doc  # byte-identical across daemons and cache
    assert status["simulated_replications"] == 0  # everything from store

    submits_per_s = N_SUBMITS / t_submit
    events_per_s = n_events / t_stream
    warm_speedup = t_cold / t_warm

    report(
        f"A7: serving economics (E1 4-point grid, {REPS} replications)",
        [
            ("cold job (simulates all)", t_cold, 1.0),
            ("warm job, 2nd daemon", t_warm, warm_speedup),
            ("submit (accept only)", t_submit / N_SUBMITS, float(N_SUBMITS)),
            ("stream replay / event", t_stream / max(n_events, 1),
             float(n_events)),
        ],
        header=("path", "seconds", "x / n"),
    )

    record_bench(
        "a07_serving",
        {
            # the headline: a second client is served from cache, faster —
            # gated as a ratio so the bound is machine-robust
            "warm_serve_speedup": {
                "value": warm_speedup,
                "direction": "higher",
                "floor": 1.0,
                "tolerance": 0.50,
            },
            "submit_throughput_per_s": {
                "value": submits_per_s,
                "direction": "higher",
                "floor": 10.0,
                "tolerance": 0.50,
            },
            "cold_job_s": {"value": t_cold, "unit": "s"},
            "warm_job_s": {"value": t_warm, "unit": "s"},
            "stream_events_per_s": {"value": events_per_s, "unit": "1/s"},
        },
        meta={
            "grid_points": 4,
            "replications": REPS,
            "n_submits": N_SUBMITS,
        },
    )
