"""E10 — the cµ rule is optimal for the multiclass M/G/1 queue [15]; the
achievable performance region is a polytope whose vertices are the strict
priority rules [14, 17], so simulation, Cobham's formulas, and the
conservation laws must all agree.

Driven by the experiment registry: each replication simulates the cµ and
worst priority orders under common random numbers and checks strong
conservation on the simulated waits; the exact Cobham/polytope analysis
is shared (the E10 kernel hoists it out of the replication loop).
"""

from repro.experiments import get_scenario, run_scenario
from repro.experiments.packs.queueing import (
    _E10_ARRIVAL,
    _E10_COSTS,
    _e10_services,
)
from repro.queueing import optimal_average_cost

SC = get_scenario("E10")


def test_e10_cmu_rule(benchmark, report):
    res = run_scenario(SC, replications=8, seed=10, workers=1)
    m = res.means()

    benchmark(
        lambda: optimal_average_cost(list(_E10_ARRIVAL), _e10_services(), list(_E10_COSTS))
    )

    report(
        "E10: multiclass M/G/1 — cmu rule optimality + achievable region "
        "(8 CRN replications)",
        [
            ("cmu exact (Cobham)", m["opt_cost"], 1.0),
            ("cmu simulated / exact", m["cmu_sim_ratio"], 1.0),
            ("worst order exact / cmu", m["worst_exact_ratio"], 1.0),
            ("worst order simulated / cmu", m["worst_sim_ratio"], 1.0),
            ("conservation holds (fraction)", m["conservation_ok"], 1.0),
            ("polytope vertices", m["n_vertices"], 6.0),
        ],
        header=("case", "value", "reference"),
    )

    assert res.all_checks_pass, res.checks
    assert m["cmu_picks_best"] == 1.0  # cmu picks the best vertex
    assert abs(m["cmu_sim_ratio"] - 1.0) < 0.08  # simulation matches Cobham
    assert m["n_vertices"] == 6.0  # the polytope has 3! vertices
