"""The survey's claims, one table row each, asserted at moderate sizes.

Every registered scenario carries checks that state the *shape* of its
claim. The rows here run each scenario at a fixed size and seed and also
assert what those checks leave out: tighter exactness bounds, trends
across sweep points, determinism of the exact studies, and properties of
the instance itself. A row is (scenario id, how it runs, predicate), and
how it runs is one of three forms:

* ``replicated(r, seed, **params)`` — ``run_scenario`` on one worker
  (``together`` runs several of them as one claim);
* ``swept(axis, values, r, seed)`` — ``run_sweep`` along one axis, every
  point sharing the root seed (common random numbers across the grid);
* ``once(*seeds)`` — ``run_once`` at each seed, for the exact studies.

The predicate's name is the claim's test id.
``tests/test_benchmark_coverage.py`` requires every built-in scenario to
appear in this table or in a ``benchmarks/bench_a0*.py`` record bench.
Print a claim-vs-measured table with ``repro-experiments run … --markdown``.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

import numpy as np
import pytest

from repro.bandits import is_indexable
from repro.experiments import SweepSpec, get_scenario, run_scenario, run_sweep
from repro.experiments.packs.restless import _e8_project


class Claim(NamedTuple):
    """One survey claim: the scenario, how it runs, and what must hold."""

    scenario: str
    run: Callable[[str], Any]
    holds: Callable[[Any], None]


# ---------------------------------------------------------------------------
# how a row runs
# ---------------------------------------------------------------------------


def replicated(replications: int, seed: int, **params):
    return lambda sid: run_scenario(
        sid, replications=replications, seed=seed, workers=1, params=params
    )


def together(*runs):
    return lambda sid: [run(sid) for run in runs]


def swept(axis: str, values: list, replications: int, seed: int):
    return lambda sid: run_sweep(
        SweepSpec(sid, axes={axis: values}),
        replications=replications,
        seed=seed,
        workers=1,
    )


def once(*seeds: int):
    return lambda sid: [get_scenario(sid).run_once(seed=s) for s in seeds]


def _checks_pass(sid: str, metrics: dict) -> None:
    checks = get_scenario(sid).check_outcomes(metrics)
    assert all(out.passed for out in checks.values()), checks


# ---------------------------------------------------------------------------
# the claims' predicates
# ---------------------------------------------------------------------------


def wsept_exactly_optimal(res):
    m = res.means()
    assert res.all_checks_pass, res.checks
    assert res.metrics["brute_gap"].maximum < 1e-12
    assert m["fifo_ratio"] > 1.0
    assert m["random_ratio"] > 1.0


def sevcik_index_beats_wsept_only_under_dhr(res):
    m = res.means()
    assert res.all_checks_pass, res.checks
    assert m["gittins_dhr_gap"] < 1e-8  # index policy exactly optimal
    assert m["wsept_dhr_premium"] > 0.01  # preemption strictly helps under DHR
    assert abs(m["wsept_mem_premium"]) < 0.05  # and not under memorylessness


def sept_exactly_optimal_on_parallel_machines(results):
    for res in results:  # m = 2, 3
        assert res.all_checks_pass, res.checks
        assert res.means()["family_ordered"] == 1.0
        assert res.metrics["sept_gap"].maximum < 1e-12


def lept_minimises_expected_makespan(results):
    for res in results:  # m = 2, 3
        assert res.all_checks_pass, res.checks
        assert res.metrics["lept_gap"].maximum < 1e-12
    # the opposite rule visibly loses
    assert np.mean([res.means()["sept_penalty"] for res in results]) > 0.005


def sept_fails_on_two_point_jobs(runs):
    m, again = runs
    _checks_pass("E5", m)
    assert m["sept_ratio"] > 1.02  # >2% strict suboptimality
    assert again == m  # the exact computation is seed-independent


def wsept_gap_bounded_as_n_grows(res):
    m = res.means()
    assert res.all_checks_pass, res.checks
    # the optimum grows ~n^2 while the gap stays O(1)
    assert m["opt_growth"] > 3.0
    assert m["max_abs_gap"] < 0.5
    assert m["last_rel_gap"] < 0.01


def gittins_rule_optimal(res):
    assert res.all_checks_pass, res.checks
    assert res.metrics["gittins_gap"].maximum < 1e-8  # optimal on every instance
    assert res.metrics["algo_diff"].maximum < 1e-6  # the two algorithms agree
    assert res.means()["myopic_loss"] >= 0.0


def whittle_within_5pct_of_bound(res):
    m = res.means()
    assert is_indexable(_e8_project(), criterion="average")
    assert res.all_checks_pass, res.checks
    assert m["min_gap"] > -0.02  # the bound dominates simulation
    assert m["last_gap"] <= m["first_gap"] + 0.01  # and the gap shrinks with N
    assert m["last_gap"] < 0.05 * m["bound"]


def hysteresis_recovers_switching_loss(res):
    m = res.means()
    assert res.all_checks_pass, res.checks
    assert res.metrics["plain_frac"].minimum < 0.999  # Gittins strictly suboptimal somewhere
    assert m["hyst_frac"] >= m["plain_frac"] - 1e-9  # hysteresis never hurts on average
    assert m["hyst_frac"] > 0.97  # and is close to optimal


def cmu_rule_optimal(res):
    m = res.means()
    assert res.all_checks_pass, res.checks
    assert m["cmu_picks_best"] == 1.0  # cmu picks the best vertex
    assert abs(m["cmu_sim_ratio"] - 1.0) < 0.08  # simulation matches Cobham
    assert m["n_vertices"] == 6.0  # the polytope has 3! vertices


def klimov_order_optimal(res):
    m = res.means()
    assert res.all_checks_pass, res.checks
    assert m["klimov_vs_best"] <= 1.05  # best among all orders, within MC noise
    assert m["reduction_exact"] == 1.0  # reduces exactly to cµ without feedback


def cost_ratio_falls_towards_1_in_heavy_traffic(sweep):
    # single-rho points have no within-point decrease to show; the
    # degeneracy-aware E12 checks know that, so every point must pass
    assert sweep.all_checks_pass, {
        r.params["rhos"]: r.checks for r in sweep.results if not r.all_checks_pass
    }
    ratios = [res.means()["last_ratio"] for res in sweep.results]
    assert min(ratios) > 0.9  # the pooled bound is (essentially) respected
    assert ratios == sorted(ratios, reverse=True)  # the ratio falls along rho
    assert ratios[-1] < 1.2  # ... towards 1 in heavy traffic


def exit_priority_backlog_diverges(sweep):
    # every horizon shows the full phenomenon (the scenario's shape checks)
    assert sweep.all_checks_pass, {
        r.scenario_id: r.checks for r in sweep.results if not r.all_checks_pass
    }
    means = [res.means() for res in sweep.results]
    # divergence: the exit-priority backlog grows with the horizon ...
    bad_backlogs = [m["bad_backlog"] for m in means]
    assert bad_backlogs == sorted(bad_backlogs)
    assert bad_backlogs[-1] > 2.0 * bad_backlogs[0]
    # ... while the stable variants stay bounded at every horizon
    assert all(m["fifo_backlog"] < 100.0 for m in means)
    assert all(m["safe_backlog"] < 100.0 for m in means)
    # the fluid verdicts are horizon-independent
    assert all(m["naive_fluid_stable"] == 1.0 for m in means)
    assert all(m["augmented_fluid_stable"] == 0.0 for m in means)


def fluid_preferred_policy_wins(res):
    m = res.means()
    assert res.all_checks_pass, res.checks
    assert np.isfinite(m["drain_exit_first"]) and np.isfinite(m["drain_entry_first"])
    # the fluid-preferred policy also wins (or ties) in simulation
    assert m["exit_vs_entry_cost"] <= 1.02


def polling_policies_ranked(res):
    m = res.means()
    assert res.all_checks_pass, res.checks
    # exhaustive <= gated <= limited at both switchover levels
    assert m["exhaustive_short"] <= m["gated_short"] * 1.05
    assert m["gated_short"] <= m["limited_short"] * 1.05
    assert m["max_conservation_err"] < 0.15  # the law pins the simulator
    assert m["exhaustive_long"] > m["exhaustive_short"]  # setups hurt


def hlf_ratio_improves_with_size(res):
    m = res.means()
    assert res.all_checks_pass, res.checks
    # HLF's ratio to the universal lower bound improves with size
    assert m["hlf_ratio_large"] <= m["hlf_ratio_small"] + 0.02
    assert m["hlf_ratio_large"] < 1.35


def talwar_best_and_blocking_hurts(res):
    m = res.means()
    assert res.all_checks_pass, res.checks
    # Talwar is (within noise) the best permutation: it holds its own
    # against the strongest competitor found by the exhaustive CRN pilot
    assert m["runner_up_ratio"] >= 1.0 / 1.02
    assert m["reverse_ratio"] >= 0.99  # Talwar beats its reverse on average
    # blocking can only hurt — on every single realisation
    assert res.metrics["blocked_minus_talwar"].minimum >= -1e-9


def johnson_exact_in_deterministic_limit(runs):
    (m,) = runs
    assert m["johnson_gap"] < 1e-12


def threshold_structure_on_uniform_machines(runs):
    m, again = runs
    _checks_pass("E18", m)
    assert m["greedy_identical_gap"] < 1e-12  # greedy fine here
    assert m["greedy_weighted_ratio"] > 1.01  # threshold structure matters
    assert m["speedup_ratio"] < 1.0  # monotone in machine speed
    assert again == m  # the study instances are fixed


def whittle_near_lagrangian_bound(res):
    m = res.means()
    assert res.all_checks_pass, res.checks
    assert m["whittle_frac"] <= 1.05  # bound respected up to MC noise
    assert m["whittle_frac"] >= m["myopic_frac"] - 0.05  # matches myopic
    assert m["whittle_frac"] >= 0.8  # and operates close to the bound


CLAIMS = [
    Claim("E1", replicated(12, seed=1), wsept_exactly_optimal),
    Claim("E2", replicated(8, seed=2), sevcik_index_beats_wsept_only_under_dhr),
    Claim(
        "E3",
        together(
            replicated(6, seed=102, m=2, n_jobs=9),
            replicated(6, seed=103, m=3, n_jobs=9),
        ),
        sept_exactly_optimal_on_parallel_machines,
    ),
    Claim(
        "E4",
        together(
            replicated(6, seed=202, m=2, n_jobs=9),
            replicated(6, seed=203, m=3, n_jobs=9),
        ),
        lept_minimises_expected_makespan,
    ),
    Claim("E5", once(0, 123), sept_fails_on_two_point_jobs),
    Claim("E6", replicated(6, seed=6), wsept_gap_bounded_as_n_grows),
    Claim("E7", replicated(40, seed=7), gittins_rule_optimal),
    Claim("E8", replicated(6, seed=8), whittle_within_5pct_of_bound),
    Claim("E9", replicated(60, seed=9), hysteresis_recovers_switching_loss),
    Claim("E10", replicated(8, seed=10), cmu_rule_optimal),
    Claim("E11", replicated(6, seed=11), klimov_order_optimal),
    Claim(
        "E12",
        swept("rhos", [(0.6,), (0.9,), (0.95,)], 2, seed=12),
        cost_ratio_falls_towards_1_in_heavy_traffic,
    ),
    Claim(
        "E13",
        swept("horizon", [1000.0, 2000.0, 4000.0], 2, seed=13),
        exit_priority_backlog_diverges,
    ),
    Claim("E14", replicated(6, seed=14), fluid_preferred_policy_wins),
    Claim("E15", replicated(8, seed=15), polling_policies_ranked),
    Claim("E16", replicated(80, seed=16), hlf_ratio_improves_with_size),
    Claim("E17", replicated(300, seed=17), talwar_best_and_blocking_hurts),
    Claim("E17", once(0), johnson_exact_in_deterministic_limit),
    Claim("E18", once(0, 99), threshold_structure_on_uniform_machines),
    Claim("E19", replicated(5, seed=19), whittle_near_lagrangian_bound),
]


@pytest.mark.parametrize(
    "claim", CLAIMS, ids=lambda c: f"{c.scenario}-{c.holds.__name__}"
)
def test_survey_claim(claim):
    claim.holds(claim.run(claim.scenario))
