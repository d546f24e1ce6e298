"""E1 — WSEPT minimises expected weighted flowtime on one machine
(Rothkopf [34] / Smith [37]).

Driven by the experiment registry: the workload lives in
``repro.experiments.packs.flowshop.simulate_e1`` and this benchmark
replicates it through the shared runner, asserting the scenario's shape
checks plus the original exactness bound.
"""

import pytest

from repro.experiments import get_scenario, run_scenario

SC = get_scenario("E1")


def test_e01_wsept_optimality(benchmark, report):
    res = run_scenario(SC, replications=12, seed=1, workers=1)
    m = res.means()

    benchmark(lambda: SC.run_once(seed=0))

    report(
        "E1: WSEPT on a single machine (12 replications, registry scenario)",
        [
            ("WSEPT (mean)", m["wsept"], 1.0),
            ("FIFO (mean)", m["fifo"], m["fifo_ratio"]),
            ("RANDOM (mean)", m["random"], m["random_ratio"]),
            ("max |gap| vs brute force", res.metrics["brute_gap"].maximum, 0.0),
        ],
        header=("policy", "E[sum w C]", "vs WSEPT"),
    )

    assert res.all_checks_pass, res.checks
    assert res.metrics["brute_gap"].maximum < 1e-12  # exactly optimal
    assert m["fifo_ratio"] > 1.0
    assert m["random_ratio"] > 1.0
