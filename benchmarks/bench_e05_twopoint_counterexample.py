"""E5 — the simple index policies fail outside their assumptions:
two-point processing times on two machines (Coffman–Hofri–Weiss [13]).

With two-point jobs the expected flowtime of a nonpreemptive list schedule
depends on the full distributions, not just the means: SEPT (which the E3
theorems certify under exponential / stochastically-ordered assumptions)
is strictly suboptimal.  All values are *exact* (enumeration over the 2^n
realisations), so the registry scenario is deterministic and one
replication suffices.
"""

import pytest

from repro.experiments import get_scenario

SC = get_scenario("E5")


def test_e05_twopoint_breaks_sept(benchmark, report):
    m = SC.run_once(seed=0)

    benchmark(lambda: SC.run_once(seed=0))

    report(
        "E5: two-point jobs on 2 machines — SEPT is no longer optimal (exact)",
        [
            ("SEPT order", m["sept_value"], m["sept_ratio"]),
            ("optimal order", m["best_value"], 1.0),
            ("SEPT excess (absolute)", m["sept_value"] - m["best_value"], 0.0),
            ("n orders strictly better than SEPT", m["n_better_orders"], 0.0),
        ],
        header=("order", "E[sum C] exact", "vs best"),
    )

    checks = SC.check_outcomes(m)
    assert all(out.passed for out in checks.values()), checks
    assert m["sept_ratio"] > 1.02  # >2% strict suboptimality
    # determinism: the exact computation is seed-independent
    assert SC.run_once(seed=123) == m
