"""E8 — restless bandits: Whittle's index heuristic [48] is near-optimal
and asymptotically optimal as N grows with m/N fixed (Weber–Weiss [44]);
the LP relaxation [7] upper-bounds every policy.

Driven by the experiment registry: each replication simulates the Whittle
and myopic fleets at every size against the shared LP bound.  E8 has a
vectorized kernel (shared bound/index tables + lockstep rollouts), so the
replications run through the batched backend by default.
"""

from repro.bandits import is_indexable
from repro.experiments import get_scenario, run_scenario
from repro.experiments.packs.restless import _e8_project

SC = get_scenario("E8")


def test_e08_whittle_asymptotic_optimality(benchmark, report):
    proj = _e8_project()
    assert is_indexable(proj, criterion="average")

    res = run_scenario(SC, replications=6, seed=8, workers=1)
    m = res.means()

    benchmark(
        lambda: SC.run_once(
            seed=0, overrides={"horizon": 200, "warmup": 40, "fleet_sizes": (5, 9)}
        )
    )

    report(
        "E8: Whittle index — per-project reward vs the relaxation bound "
        "(6 replications)",
        [
            ("LP relaxation bound", m["bound"], 1.0),
            ("bound - Whittle, smallest N", m["first_gap"], 0.0),
            ("bound - Whittle, largest N", m["last_gap"], 0.0),
            ("Whittle at largest N", m["whittle_large_n"], m["whittle_large_n"] / m["bound"]),
            ("myopic at largest N", m["myopic"], m["myopic"] / m["bound"]),
        ],
        header=("case", "avg reward/project", "frac of bound"),
    )

    assert res.all_checks_pass, res.checks
    assert m["min_gap"] > -0.02  # the bound dominates simulation
    assert m["last_gap"] <= m["first_gap"] + 0.01  # and the gap shrinks with N
    assert m["last_gap"] < 0.05 * m["bound"]  # within 5% of the unbeatable bound
