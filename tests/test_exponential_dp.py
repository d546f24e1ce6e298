"""E3/E4 tests: SEPT/LEPT optimality for exponential jobs on identical
parallel machines, against the exact subset DP."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import (
    flowtime_dp,
    makespan_dp,
    policy_flowtime_dp,
    policy_makespan_dp,
)
from repro.batch.exponential_dp import lept_action, sept_action


class TestHandComputed:
    def test_single_machine_flowtime(self):
        # one machine: flowtime = sum over positions of (n-k) completions...
        # rates (1, 2): SEPT serves rate-2 first: E = 2*(1/2) + 1*(1/1 + ...)
        # exact: V = 2/ (mu) ... compute directly: serve job2 (rate 2): both
        # wait 1/2 on average (2 jobs * 0.5), then job1 alone: 1.
        val = flowtime_dp([1.0, 2.0], 1)
        assert val == pytest.approx(2 * 0.5 + 1 * 1.0)

    def test_two_jobs_two_machines_flowtime(self):
        # both run immediately: E sum C = E C1 + E C2 = 1/mu1 + 1/mu2
        val = flowtime_dp([1.0, 2.0], 2)
        assert val == pytest.approx(1.0 + 0.5)

    def test_two_jobs_two_machines_makespan(self):
        # E max = 1/mu1 + 1/mu2 - 1/(mu1+mu2)
        val = makespan_dp([1.0, 2.0], 2)
        assert val == pytest.approx(1.0 + 0.5 - 1.0 / 3.0)

    def test_single_job(self):
        assert flowtime_dp([2.0], 3) == pytest.approx(0.5)
        assert makespan_dp([2.0], 1) == pytest.approx(0.5)


class TestSeptOptimality:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("m", [2, 3])
    def test_sept_equals_optimum_flowtime(self, seed, m):
        rng = np.random.default_rng(seed)
        rates = rng.uniform(0.3, 3.0, size=7)
        opt = flowtime_dp(rates, m)
        sept = policy_flowtime_dp(rates, m, "sept")
        assert sept == pytest.approx(opt, rel=1e-12)

    def test_lept_suboptimal_for_flowtime(self):
        rates = np.array([0.4, 1.0, 2.5, 3.0])
        opt = flowtime_dp(rates, 2)
        lept = policy_flowtime_dp(rates, 2, "lept")
        assert lept > opt * 1.02

    @given(st.lists(st.floats(0.2, 5.0), min_size=3, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_sept_optimal_property(self, rates):
        opt = flowtime_dp(rates, 2)
        sept = policy_flowtime_dp(rates, 2, "sept")
        assert sept == pytest.approx(opt, rel=1e-9)


class TestLeptOptimality:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("m", [2, 3])
    def test_lept_equals_optimum_makespan(self, seed, m):
        rng = np.random.default_rng(seed)
        rates = rng.uniform(0.3, 3.0, size=7)
        opt = makespan_dp(rates, m)
        lept = policy_makespan_dp(rates, m, "lept")
        assert lept == pytest.approx(opt, rel=1e-12)

    def test_sept_suboptimal_for_makespan(self):
        rates = np.array([0.4, 1.0, 2.5, 3.0])
        opt = makespan_dp(rates, 2)
        sept = policy_makespan_dp(rates, 2, "sept")
        assert sept > opt * 1.01

    @given(st.lists(st.floats(0.2, 5.0), min_size=3, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_lept_optimal_property(self, rates):
        opt = makespan_dp(rates, 2)
        lept = policy_makespan_dp(rates, 2, "lept")
        assert lept == pytest.approx(opt, rel=1e-9)


class TestWeighted:
    def test_weighted_flowtime_wsept_single_machine(self):
        """With m=1 the DP optimum equals the WSEPT closed form (scaled
        Rothkopf check through the exponential DP)."""
        rates = np.array([1.0, 0.5, 2.0])
        weights = np.array([1.0, 3.0, 0.5])
        opt = flowtime_dp(rates, 1, weights=weights)
        # closed form: serve in decreasing w*mu order
        means = 1.0 / rates
        order = np.argsort(-(weights * rates))
        t, total = 0.0, 0.0
        for j in order:
            t += means[j]
            total += weights[j] * t
        assert opt == pytest.approx(total, rel=1e-12)

    def test_weighted_sept_can_be_suboptimal(self):
        """Unweighted SEPT ignores weights; the DP with weights must win."""
        rates = np.array([2.0, 0.5])
        weights = np.array([0.1, 10.0])
        opt = flowtime_dp(rates, 1, weights=weights)
        sept_cost = policy_flowtime_dp(rates, 1, "sept", weights=weights)
        assert opt < sept_cost


class TestValidation:
    def test_bad_rates(self):
        with pytest.raises(ValueError):
            flowtime_dp([1.0, -1.0], 2)

    def test_bad_machines(self):
        with pytest.raises(ValueError):
            flowtime_dp([1.0], 0)

    def test_policy_must_choose_valid_set(self):
        with pytest.raises(ValueError):
            policy_flowtime_dp([1.0, 2.0], 1, action=lambda jobs: [99])

    def test_actions_match_policy_names(self):
        rates = np.array([1.0, 3.0, 0.5])
        act_s = sept_action(rates, 2)
        act_l = lept_action(rates, 2)
        assert act_s([0, 1, 2]) == [1, 0]  # largest rates first
        assert act_l([0, 1, 2]) == [2, 0]  # smallest rates first


class TestLayeredBatchDP:
    """``subset_dp_batch`` (one array computation per popcount layer) must
    equal the scalar DPs bit for bit. From n = 8 on numpy sums a mask's
    weights in its unrolled pairwise order, so these sizes pin the batched
    sums to the scalar summation order; a tie in the rates pins the
    policies' tie-break to the lowest job id."""

    @staticmethod
    def _scalar(rates, weights, m, objective, policy):
        action = policy
        if policy == "index":
            idx = weights * rates

            def action(jobs):
                return sorted(jobs, key=lambda j: (-idx[j], j))[: min(m, len(jobs))]

        if objective == "flowtime":
            if policy is None:
                return flowtime_dp(rates, m, weights=weights)
            return policy_flowtime_dp(rates, m, action=action, weights=weights)
        if policy is None:
            return makespan_dp(rates, m)
        return policy_makespan_dp(rates, m, action=action)

    @pytest.mark.parametrize("n", [8, 9, 11, 12])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("objective", ["flowtime", "makespan"])
    def test_matches_scalar_dp_bitwise(self, n, m, objective):
        from repro.sim.vectorized import subset_dp_batch

        rng = np.random.default_rng(1000 * n + 10 * m + (objective == "makespan"))
        reps = 1 if n == 12 else 2
        rates = rng.uniform(0.3, 3.0, size=(reps, n))
        weights = rng.uniform(0.5, 2.0, size=(reps, n))
        rates[0, 1] = rates[0, n - 2]
        for policy in (None, "sept", "lept", "index"):
            got = subset_dp_batch(
                rates,
                m,
                objective=objective,
                weights=weights if objective == "flowtime" else None,
                policy=policy,
                priority=weights * rates if policy == "index" else None,
            )
            for r in range(reps):
                want = self._scalar(rates[r], weights[r], m, objective, policy)
                assert got[r] == want, (n, m, objective, policy, r)

    def test_blocked_layers_match(self, monkeypatch):
        import repro.sim.vectorized as vectorized

        monkeypatch.setattr(vectorized, "_DP_BLOCK", 7)  # many blocks a layer
        rng = np.random.default_rng(5)
        rates = rng.uniform(0.3, 3.0, size=(3, 9))
        weights = rng.uniform(0.5, 2.0, size=(3, 9))
        opt = vectorized.subset_dp_batch(rates, 3, weights=weights)
        lept = vectorized.subset_dp_batch(rates, 2, objective="makespan", policy="lept")
        for r in range(3):
            assert opt[r] == flowtime_dp(rates[r], 3, weights=weights[r])
            assert lept[r] == policy_makespan_dp(rates[r], 2, "lept")
