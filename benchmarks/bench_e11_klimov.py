"""E11 — Klimov's model [24]: with Markovian feedback the optimal policy is
still a static priority rule, with indices from Klimov's N-step algorithm;
it reduces to cµ without feedback and beats cµ-with-feedback-ignored.

Driven by the experiment registry: each replication simulates all six
priority orders under common random numbers; the Klimov/cµ index analysis
runs beside them in every replication.
"""

import numpy as np

from repro.experiments import get_scenario, run_scenario
from repro.experiments.packs.queueing import (
    _E11_COSTS,
    _E11_FEEDBACK,
    _E11_MUS,
)
from repro.queueing.klimov import klimov_order

SC = get_scenario("E11")


def test_e11_klimov_rule(benchmark, report):
    res = run_scenario(SC, replications=6, seed=11, workers=1)
    m = res.means()

    means = [1.0 / mu for mu in _E11_MUS]
    benchmark(lambda: klimov_order(list(_E11_COSTS), means, np.array(_E11_FEEDBACK)))

    report(
        "E11: Klimov's M/G/1 with feedback — simulated priority orders "
        "(6 CRN replications)",
        [
            ("Klimov order cost rate", m["klimov_cost"], 1.0),
            ("best simulated order", m["best_cost"], m["klimov_vs_best"]),
            ("naive cmu / Klimov", m["naive_cmu_ratio"], 1.0),
            ("no-feedback reduction exact", m["reduction_exact"], 1.0),
        ],
        header=("case", "cost rate", "vs Klimov"),
    )

    assert res.all_checks_pass, res.checks
    assert m["klimov_vs_best"] <= 1.05  # best among all orders, within MC noise
    assert m["reduction_exact"] == 1.0  # reduces exactly to cµ without feedback
