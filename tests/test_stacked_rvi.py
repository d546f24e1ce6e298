"""Stacked relative value iteration and the lockstep Whittle/Lagrangian
searches built on it.

Every row of a stacked solve must be bit-for-bit the scalar iteration on
that row's MDP, whatever its batch-mates do: they converge at other
iterations, restrict other actions, or never converge at all. The
reference below is the textbook scalar loop, kept here as the oracle.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bandits import (
    heterogeneous_relaxation_bound,
    heterogeneous_whittle_rule,
    random_restless_project,
    relaxation_bounds_and_indices,
    whittle_index_tables,
    whittle_indices,
)
from repro.mdp import FiniteMDP, relative_value_iteration, stacked_relative_value_iteration


def reference_rvi(mdp: FiniteMDP, *, tol=1e-9, max_iter=200_000):
    """The scalar damped relative value iteration, one MDP at a time."""
    S = mdp.n_states
    v = np.zeros(S)
    policy = np.zeros(S, dtype=int)
    gain = 0.0
    tau = 0.5
    for it in range(1, max_iter + 1):
        q = mdp.rewards + np.einsum("ast,t->as", mdp.transitions, v) + mdp._mask
        policy = np.argmax(q, axis=0)
        v_new = q[policy, np.arange(S)]
        v_new = tau * v_new + (1 - tau) * v
        gain = v_new[0] - v[0]
        span = float(np.max(v_new - v) - np.min(v_new - v))
        if span < tol:
            g = float(np.max(v_new - v) + np.min(v_new - v)) / 2.0 / tau
            return v_new - v_new[0], policy, it, True, g
        v = v_new - v_new[0]
    return v, policy, max_iter, False, gain / tau


def random_mdps(seed, count, n_states, n_actions=2, *, restrict=False):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        T = rng.dirichlet(np.full(n_states, 0.5), size=(n_actions, n_states))
        R = rng.normal(size=(n_actions, n_states))
        sets = None
        if restrict:
            sets = [
                sorted(rng.choice(n_actions, size=int(rng.integers(1, n_actions + 1)),
                                  replace=False).tolist())
                for _ in range(n_states)
            ]
        out.append(FiniteMDP(T, R, sets, validate=False))
    return out


def stack(mdps):
    return (
        np.stack([m.transitions for m in mdps]),
        np.stack([m.rewards for m in mdps]),
        np.stack([m._mask for m in mdps]),
    )


def assert_row_is_reference(sol, b, ref):
    value, policy, iterations, converged, gain = ref
    assert np.array_equal(sol.value[b], value)
    assert np.array_equal(sol.policy[b], policy)
    assert sol.iterations[b] == iterations
    assert sol.converged[b] == converged
    assert sol.gain[b] == gain


class TestStackedRVI:
    @pytest.mark.parametrize("n_states", [2, 3, 9, 40])
    def test_rows_retiring_at_different_iterations(self, n_states):
        mdps = random_mdps(n_states, 6, n_states, n_actions=3)
        tols = np.array([1e-6, 1e-9, 1e-12, 1e-7, 1e-10, 1e-8])
        sol = stacked_relative_value_iteration(*stack(mdps)[:2], tol=tols)
        assert len(set(sol.iterations.tolist())) > 1
        for b, mdp in enumerate(mdps):
            assert_row_is_reference(sol, b, reference_rvi(mdp, tol=tols[b]))

    def test_masked_actions(self):
        mdps = random_mdps(5, 5, 6, n_actions=3, restrict=True)
        T, R, M = stack(mdps)
        sol = stacked_relative_value_iteration(T, R, mask=M, tol=1e-10)
        for b, mdp in enumerate(mdps):
            assert_row_is_reference(sol, b, reference_rvi(mdp, tol=1e-10))
            allowed = [sol.policy[b, s] in mdp.action_sets[s] for s in range(6)]
            assert all(allowed)

    def test_max_iter_returns_the_last_iterate(self):
        mdps = random_mdps(11, 4, 5)
        # a loose tolerance lets some rows retire before the cap
        sol = stacked_relative_value_iteration(*stack(mdps)[:2], tol=1e-3, max_iter=6)
        assert not sol.converged.all()
        for b, mdp in enumerate(mdps):
            assert_row_is_reference(sol, b, reference_rvi(mdp, tol=1e-3, max_iter=6))

    def test_scalar_solver_is_the_one_row_call(self):
        for mdp in random_mdps(3, 4, 7, restrict=True):
            value, policy, iterations, converged, gain = reference_rvi(mdp)
            sol = relative_value_iteration(mdp)
            assert np.array_equal(sol.value, value)
            assert np.array_equal(sol.policy, policy)
            assert (sol.iterations, sol.converged, sol.gain) == (iterations, converged, gain)

    def test_empty_stack_and_bad_shapes(self):
        sol = stacked_relative_value_iteration(np.zeros((0, 2, 3, 3)), np.zeros((0, 2, 3)))
        assert sol.value.shape == (0, 3)
        with pytest.raises(ValueError):
            stacked_relative_value_iteration(np.zeros((2, 3, 3)), np.zeros((2, 3)))


def fleet(seed, n_projects, n_states):
    rng = np.random.default_rng(seed)
    return [random_restless_project(n_states, rng) for _ in range(n_projects)]


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seeds=st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=3),
    n_projects=st.integers(1, 3),
    n_states=st.integers(2, 3),
    m=st.integers(0, 3),
)
def test_batched_fleets_equal_each_fleet_alone(seeds, n_projects, n_states, m):
    # deduplicating (project, subsidy) solves across batch-mates must never
    # let one fleet's answer leak into another's
    fleets = [fleet(s, n_projects, n_states) for s in seeds]
    m = min(m, n_projects)
    alone_bounds = [heterogeneous_relaxation_bound(f, m) for f in fleets]
    alone_tables = [[whittle_indices(p) for p in f] for f in fleets]
    bounds, tables = relaxation_bounds_and_indices(fleets, m)
    assert bounds == alone_bounds
    flat = whittle_index_tables([p for f in fleets for p in f])
    for f, alone in enumerate(alone_tables):
        rule = heterogeneous_whittle_rule(fleets[f])
        for k, table in enumerate(alone):
            assert np.array_equal(tables[f][k], table)
            assert np.array_equal(flat[f * n_projects + k], table)
            assert [rule.index(k, s) for s in range(n_states)] == table.tolist()


def test_mixed_state_counts_are_solved_alone():
    projects = fleet(1, 2, 2) + fleet(2, 2, 4) + fleet(3, 1, 3)
    for p, table in zip(projects, whittle_index_tables(projects)):
        assert np.array_equal(table, whittle_indices(p))
