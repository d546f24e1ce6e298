"""Ablation A1 — the two Gittins-index algorithms.

DESIGN.md calls out the choice between the VWB largest-index-first
recursion (O(n^4) worst case, one pass) and the Katehakis–Veinott
restart-in-state formulation (n value-iteration solves). They must agree to
numerical precision; VWB is the production default because it is
deterministic-time, while restart's iteration count depends on beta.

Driven by the experiment registry (scenario A1, random instances per
replication); the per-size timing sweep keeps its direct form.
"""

import numpy as np

from repro.bandits import gittins_indices_vwb, random_project
from repro.experiments import get_scenario, run_scenario

SC = get_scenario("A1")


def test_a01_gittins_algorithms_agree(report, record_bench):
    res = run_scenario(SC, replications=20, seed=1, workers=1)

    proj = random_project(50, np.random.default_rng(50))

    import time

    t_vwb = float("inf")
    for _ in range(3):  # best-of-3 damps scheduler noise
        t0 = time.perf_counter()
        gittins_indices_vwb(proj, 0.9)
        t_vwb = min(t_vwb, time.perf_counter() - t0)
    record_bench(
        "a01_index_algorithms",
        {
            "vwb_50_state_s": {"value": t_vwb, "unit": "s"},
            "algo_diff_max": {"value": res.metrics["algo_diff"].maximum},
        },
        meta={"replications": 20, "vwb_states": 50},
    )

    report(
        "A1: Gittins algorithms, 20 random 20-state instances",
        [
            ("worst |VWB - restart|", res.metrics["algo_diff"].maximum, 0.0),
            ("worst top-index error", res.metrics["top_index_err"].maximum, 0.0),
        ],
        header=("check", "value", "reference"),
    )
    assert res.all_checks_pass, res.checks
    assert res.metrics["algo_diff"].maximum < 1e-6
    assert res.metrics["top_index_err"].maximum < 1e-8
