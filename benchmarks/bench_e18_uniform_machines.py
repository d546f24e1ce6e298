"""E18 — uniform (speed-heterogeneous) machines (Agrawala et al. [1],
Righter [33], Coffman et al. [12]): optimal policies have threshold
structure — slow machines should sometimes idle — and the exact DP
quantifies when the SEPT-to-fastest greedy heuristic loses.

Driven by the experiment registry (scenario E18, fully deterministic study
instances).
"""

import pytest

from repro.experiments import get_scenario

SC = get_scenario("E18")


def test_e18_uniform_machines(benchmark, report):
    m = SC.run_once(seed=0)

    benchmark(lambda: SC.run_once(seed=0))

    report(
        "E18: uniform machines — exact DP vs SEPT-to-fastest greedy",
        [
            ("identical jobs: greedy gap", m["greedy_identical_gap"], 0.0),
            ("weighted hetero: greedy/OPT", m["greedy_weighted_ratio"], 1.0),
            ("speedup s2 0.15 -> 0.6 ratio", m["speedup_ratio"], 1.0),
        ],
        header=("case", "value", "target"),
    )

    checks = SC.check_outcomes(m)
    assert all(out.passed for out in checks.values()), checks
    assert m["greedy_identical_gap"] < 1e-12  # greedy fine here
    assert m["greedy_weighted_ratio"] > 1.01  # threshold structure matters
    assert m["speedup_ratio"] < 1.0  # monotone in machine speed
    # determinism: the study instances are fixed
    assert SC.run_once(seed=99) == m
