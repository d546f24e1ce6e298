"""E1 core tests: WSEPT optimality on a single machine (Rothkopf/Smith),
exact evaluation, brute force, and simulation consistency."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import (
    Job,
    brute_force_optimal_sequence,
    expected_weighted_flowtime,
    fifo_order,
    random_exponential_batch,
    random_order,
    sept_order,
    simulate_sequence,
    wsept_order,
    wsept_rule,
)
from repro.distributions import Deterministic, Exponential, HyperExponential, Weibull


def make_jobs(means, weights):
    return [
        Job(id=i, distribution=Exponential.from_mean(m), weight=w)
        for i, (m, w) in enumerate(zip(means, weights))
    ]


class TestExactEvaluation:
    def test_two_jobs_by_hand(self):
        jobs = make_jobs([2.0, 1.0], [1.0, 1.0])
        # order (0, 1): 1*2 + 1*3 = 5 ; order (1, 0): 1*1 + 1*3 = 4
        assert expected_weighted_flowtime(jobs, [0, 1]) == pytest.approx(5.0)
        assert expected_weighted_flowtime(jobs, [1, 0]) == pytest.approx(4.0)

    def test_distribution_free_given_means(self):
        """The nonpreemptive expected flowtime depends only on the means."""
        a = [Job(0, Exponential.from_mean(2.0)), Job(1, Exponential.from_mean(1.0))]
        b = [Job(0, Deterministic(2.0)), Job(1, Weibull.from_mean(1.0, 2.0))]
        assert expected_weighted_flowtime(a, [0, 1]) == pytest.approx(
            expected_weighted_flowtime(b, [0, 1])
        )

    def test_rejects_non_permutation(self):
        jobs = make_jobs([1.0, 2.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            expected_weighted_flowtime(jobs, [0, 0])


class TestWseptOptimality:
    @pytest.mark.parametrize("seed", range(8))
    def test_wsept_equals_brute_force(self, seed):
        jobs = random_exponential_batch(6, np.random.default_rng(seed))
        _, best = brute_force_optimal_sequence(jobs)
        wsept_val = expected_weighted_flowtime(jobs, wsept_order(jobs))
        assert wsept_val == pytest.approx(best, rel=1e-12)

    def test_wsept_beats_fifo_generically(self):
        jobs = random_exponential_batch(20, np.random.default_rng(1))
        assert expected_weighted_flowtime(jobs, wsept_order(jobs)) <= expected_weighted_flowtime(
            jobs, fifo_order(jobs)
        )

    def test_unweighted_reduces_to_sept(self):
        jobs = random_exponential_batch(10, np.random.default_rng(2), weighted=False)
        assert wsept_order(jobs) == sept_order(jobs)

    @given(
        st.lists(st.floats(0.1, 10.0), min_size=2, max_size=7),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_exchange_argument_property(self, means, data):
        """Swapping any adjacent pair out of WSEPT order never improves."""
        weights = data.draw(
            st.lists(
                st.floats(0.1, 5.0), min_size=len(means), max_size=len(means)
            )
        )
        jobs = make_jobs(means, weights)
        order = wsept_order(jobs)
        base = expected_weighted_flowtime(jobs, order)
        for i in range(len(order) - 1):
            swapped = list(order)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            assert expected_weighted_flowtime(jobs, swapped) >= base - 1e-9

    def test_brute_force_size_guard(self):
        jobs = random_exponential_batch(11, np.random.default_rng(0))
        with pytest.raises(ValueError):
            brute_force_optimal_sequence(jobs)

    def test_brute_force_ties_return_the_first_permutation(self):
        jobs = [Job(id=jid, distribution=Deterministic(1.5), weight=2.0)
                for jid in (7, 3, 5, 1)]
        seq, val = brute_force_optimal_sequence(jobs)
        assert seq == [7, 3, 5, 1]
        assert val == min(
            expected_weighted_flowtime(jobs, perm)
            for perm in itertools.permutations([7, 3, 5, 1])
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_brute_force_is_the_first_minimum_over_every_sequence(self, seed):
        jobs = random_exponential_batch(6, np.random.default_rng(seed))
        vals = [
            (expected_weighted_flowtime(jobs, perm), list(perm))
            for perm in itertools.permutations([j.id for j in jobs])
        ]
        best = min(v for v, _ in vals)
        assert brute_force_optimal_sequence(jobs) == (
            next(seq for v, seq in vals if v == best), best)

    def test_brute_force_rejects_duplicate_ids(self):
        jobs = [Job(id=0, distribution=Exponential(1.0)),
                Job(id=0, distribution=Exponential(2.0))]
        with pytest.raises(ValueError, match="unique"):
            brute_force_optimal_sequence(jobs)


class TestSimulation:
    def test_simulation_matches_closed_form(self):
        jobs = random_exponential_batch(8, np.random.default_rng(3))
        order = wsept_order(jobs)
        vals = simulate_sequence(jobs, order, np.random.default_rng(4), n_replications=4000)
        exact = expected_weighted_flowtime(jobs, order)
        se = vals.std() / np.sqrt(len(vals))
        assert vals.mean() == pytest.approx(exact, abs=5 * se)

    def test_high_variance_jobs_same_mean_flowtime(self):
        """Nonpreemptive single machine: variance does not change E[sum wC]."""
        lo = [Job(0, Deterministic(2.0)), Job(1, Deterministic(1.0))]
        hi = [
            Job(0, HyperExponential.balanced_from_mean_scv(2.0, 9.0)),
            Job(1, HyperExponential.balanced_from_mean_scv(1.0, 9.0)),
        ]
        rng = np.random.default_rng(5)
        sim_hi = simulate_sequence(hi, [1, 0], rng, n_replications=30_000).mean()
        assert sim_hi == pytest.approx(expected_weighted_flowtime(lo, [1, 0]), rel=0.05)


class TestRules:
    def test_wsept_rule_index_values(self):
        jobs = make_jobs([2.0, 0.5], [1.0, 1.0])
        rule = wsept_rule(jobs)
        assert rule.index(0) == pytest.approx(0.5)
        assert rule.index(1) == pytest.approx(2.0)
        assert rule.priority_order() == [1, 0]

    def test_random_order_is_permutation(self):
        jobs = random_exponential_batch(12, np.random.default_rng(0))
        order = random_order(jobs, np.random.default_rng(1))
        assert sorted(order) == [j.id for j in jobs]

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            Job(0, Exponential(1.0), weight=-1.0)
