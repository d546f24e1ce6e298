"""Finite Markov decision process solvers.

The survey notes that "many [stochastic scheduling] models can be cast in the
framework of dynamic programming" but that straightforward DP hits the curse
of dimensionality. This subpackage supplies the exact-DP machinery we use as
the *ground-truth baseline* on small instances: value iteration, policy
iteration, linear programming (both discounted and average criteria).
"""

from repro.mdp.core import FiniteMDP
from repro.mdp.solvers import (
    MDPSolution,
    average_reward_lp,
    linear_programming,
    policy_iteration,
    relative_value_iteration,
    stacked_relative_value_iteration,
    value_iteration,
)

__all__ = [
    "FiniteMDP",
    "MDPSolution",
    "value_iteration",
    "policy_iteration",
    "linear_programming",
    "relative_value_iteration",
    "stacked_relative_value_iteration",
    "average_reward_lp",
]
