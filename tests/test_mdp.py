"""Tests for the finite-MDP solvers: the three discounted solvers must agree,
and the average-reward methods must match each other and hand-computed
values."""

import numpy as np
import pytest

from repro.mdp import (
    FiniteMDP,
    average_reward_lp,
    linear_programming,
    policy_iteration,
    relative_value_iteration,
    value_iteration,
)


def two_state_mdp() -> FiniteMDP:
    """Action 0: stay, reward = state value. Action 1: jump to other state,
    reward 0. Optimal: reach state 1 and stay."""
    T = np.zeros((2, 2, 2))
    T[0, 0, 0] = 1.0
    T[0, 1, 1] = 1.0
    T[1, 0, 1] = 1.0
    T[1, 1, 0] = 1.0
    R = np.array([[0.0, 1.0], [0.0, 0.0]])
    return FiniteMDP(T, R)


def random_mdp(n_states=6, n_actions=3, seed=0) -> FiniteMDP:
    rng = np.random.default_rng(seed)
    T = rng.dirichlet(np.ones(n_states), size=(n_actions, n_states))
    R = rng.normal(size=(n_actions, n_states))
    return FiniteMDP(T, R)


class TestConstruction:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            FiniteMDP(np.ones((2, 3, 4)), np.ones((2, 3)))

    def test_nonstochastic_rejected(self):
        T = np.zeros((1, 2, 2))
        T[0, 0, 0] = 0.7  # row does not sum to 1
        T[0, 1, 1] = 1.0
        with pytest.raises(ValueError, match=r"transitions\[0, 0\]"):
            FiniteMDP(T, np.zeros((1, 2)))
        # only allowed (action, state) rows are checked; the first bad one is named
        T2 = np.zeros((2, 2, 2))
        T2[0, 0, 0] = T2[1, 1, 1] = 1.0
        T2[1, 0, 0] = -0.5
        T2[1, 0, 1] = 1.5
        FiniteMDP(T2, np.zeros((2, 2)), action_sets=[[0], [1]])
        with pytest.raises(ValueError, match=r"transitions\[1, 0\]"):
            FiniteMDP(T2, np.zeros((2, 2)), action_sets=[[0, 1], [1]])
        with pytest.raises(ValueError, match=r"transitions\[0, 1\]"):
            FiniteMDP(T2, np.zeros((2, 2)), action_sets=[[0], [0, 1]])

    def test_empty_action_set_rejected(self):
        T = np.zeros((1, 1, 1))
        T[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            FiniteMDP(T, np.zeros((1, 1)), action_sets=[[]])

    def test_restricted_actions_respected(self):
        mdp = two_state_mdp()
        restricted = FiniteMDP(
            mdp.transitions, mdp.rewards, action_sets=[[1], [0]]
        )
        sol = policy_iteration(restricted, 0.9)
        assert sol.policy[0] == 1 and sol.policy[1] == 0


class TestDiscountedSolvers:
    def test_two_state_closed_form(self):
        mdp = two_state_mdp()
        beta = 0.9
        sol = policy_iteration(mdp, beta)
        # from state 1: stay forever earning 1: v = 1/(1-beta)
        assert sol.value[1] == pytest.approx(10.0)
        # from state 0: jump (0 reward) then stay: beta/(1-beta)
        assert sol.value[0] == pytest.approx(9.0)
        assert sol.policy[0] == 1 and sol.policy[1] == 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("beta", [0.5, 0.9, 0.99])
    def test_three_solvers_agree(self, seed, beta):
        mdp = random_mdp(seed=seed)
        v_vi = value_iteration(mdp, beta, tol=1e-10).value
        v_pi = policy_iteration(mdp, beta).value
        v_lp = linear_programming(mdp, beta).value
        assert v_vi == pytest.approx(v_pi, abs=1e-6)
        assert v_lp == pytest.approx(v_pi, abs=1e-6)

    def test_value_iteration_warm_start(self):
        mdp = random_mdp()
        cold = value_iteration(mdp, 0.9)
        warm = value_iteration(mdp, 0.9, v0=cold.value)
        assert warm.iterations <= cold.iterations

    def test_policy_value_consistency(self):
        mdp = random_mdp(seed=3)
        sol = policy_iteration(mdp, 0.9)
        v = mdp.policy_value(sol.policy, 0.9)
        assert v == pytest.approx(sol.value, abs=1e-8)

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            value_iteration(two_state_mdp(), 1.0)
        with pytest.raises(ValueError):
            policy_iteration(two_state_mdp(), -0.1)


class TestAverageReward:
    def test_rvi_two_state(self):
        mdp = two_state_mdp()
        sol = relative_value_iteration(mdp)
        # optimal average reward: stay in state 1 forever = 1.0
        assert sol.gain == pytest.approx(1.0, abs=1e-6)
        assert sol.policy[1] == 0

    @pytest.mark.parametrize("seed", [0, 4, 7])
    def test_rvi_matches_lp(self, seed):
        mdp = random_mdp(seed=seed)
        g_rvi = relative_value_iteration(mdp).gain
        g_lp, x = average_reward_lp(mdp)
        assert g_rvi == pytest.approx(g_lp, abs=1e-5)
        assert x.sum() == pytest.approx(1.0, abs=1e-8)

    def test_lp_occupation_is_stationary(self):
        mdp = random_mdp(seed=2)
        _, x = average_reward_lp(mdp)
        # marginal state occupancy must satisfy pi = pi P_policy
        occ = x.sum(axis=0)
        flow = np.zeros_like(occ)
        for a in range(mdp.n_actions):
            flow += x[a] @ mdp.transitions[a]
        assert flow == pytest.approx(occ, abs=1e-8)
