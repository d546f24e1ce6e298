"""Ablation A3 — the achievable-region method as an optimiser.

The survey presents two independent derivations of the cµ rule: interchange
arguments (implemented in repro.queueing.mg1 via Cobham evaluation) and the
achievable-region LP over the conservation-law polytope. This bench runs
the LP route and checks it lands on the same rule and value.

Driven by the experiment registry (scenario A3, random instances per
replication).
"""

import numpy as np

from repro.core import achievable_region_lp
from repro.experiments import get_scenario, run_scenario

SC = get_scenario("A3")


def test_a03_achievable_region_lp(report, record_bench):
    res = run_scenario(SC, replications=40, seed=3, workers=1)
    m = res.means()

    rng = np.random.default_rng(0)
    n = 5
    lam = rng.uniform(0.02, 0.8 / n, size=n)
    ms = rng.uniform(0.4, 1.2, size=n)
    m2 = 2 * ms**2
    c = rng.uniform(0.3, 3.0, size=n)

    import time

    t_lp = float("inf")
    for _ in range(3):  # best-of-3 damps scheduler noise
        t0 = time.perf_counter()
        achievable_region_lp(lam, ms, m2, c)
        t_lp = min(t_lp, time.perf_counter() - t0)
    record_bench(
        "a03_achievable_region",
        {
            "lp_solve_s": {"value": t_lp, "unit": "s"},
            "cost_rel_gap_max": {"value": res.metrics["cost_rel_gap"].maximum},
        },
        meta={"replications": 40, "n_classes": n},
    )

    report(
        "A3: achievable-region LP vs interchange/Cobham cµ "
        "(40 random 5-class instances)",
        [
            ("worst |LP/Cobham - 1|", res.metrics["cost_rel_gap"].maximum, 0.0),
            ("orders agree (fraction)", m["orders_match"], 1.0),
            ("mean LP optimal cost", m["lp_cost"], 0.0),
        ],
        header=("check", "value", "reference"),
    )
    assert res.all_checks_pass, res.checks
    assert res.metrics["cost_rel_gap"].maximum < 1e-7
    assert m["orders_match"] == 1.0
