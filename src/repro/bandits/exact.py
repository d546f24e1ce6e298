"""Exact product-space dynamic programming for multi-armed bandits.

The survey recalls that the bandit problem "was considered intractable for a
long time" precisely because the joint state space is the product of the
projects' spaces. For small instances we build that product MDP explicitly —
it is the ground truth establishing the optimality of the Gittins rule (E7)
and the *sub*-optimality of Gittins under switching costs (E9).
"""

from __future__ import annotations

import itertools
from typing import Mapping, Sequence

import numpy as np

from repro.bandits.project import MarkovProject
from repro.core.indices import IndexRule
from repro.mdp.core import FiniteMDP
from repro.mdp.solvers import policy_iteration

__all__ = ["bandit_product_mdp", "optimal_bandit_value", "evaluate_priority_policy"]


def _product_states(projects: Sequence[MarkovProject]):
    return list(itertools.product(*[range(p.n_states) for p in projects]))


def bandit_product_mdp(projects: Sequence[MarkovProject]) -> tuple[FiniteMDP, list[tuple]]:
    """Build the joint MDP of ``N`` classical projects.

    Action ``a`` engages project ``a`` (its chain moves, the rest stay
    frozen) and pays that project's state reward. Returns (mdp, state_list)
    where ``state_list[i]`` is the tuple encoded as MDP state i.
    """
    N = len(projects)
    if N == 0:
        raise ValueError("need at least one project")
    states = _product_states(projects)
    index_of = {s: i for i, s in enumerate(states)}
    S = len(states)
    T = np.zeros((N, S, S))
    R = np.zeros((N, S))
    for i, s in enumerate(states):
        for a, proj in enumerate(projects):
            R[a, i] = proj.R[s[a]]
            row = proj.P[s[a]]
            for nxt_local, p in enumerate(row):
                if p == 0.0:
                    continue
                nxt = list(s)
                nxt[a] = nxt_local
                T[a, i, index_of[tuple(nxt)]] += p
    return FiniteMDP(T, R), states


def optimal_bandit_value(
    projects: Sequence[MarkovProject],
    beta: float,
    start: tuple | None = None,
    *,
    product: tuple[FiniteMDP, list[tuple]] | None = None,
) -> float:
    """Exact optimal expected discounted reward from ``start`` (default: all
    projects in state 0), via policy iteration on the product MDP.
    ``product`` is ``bandit_product_mdp(projects)``, when the caller has
    already built it."""
    mdp, states = bandit_product_mdp(projects) if product is None else product
    sol = policy_iteration(mdp, beta)
    if start is None:
        start = tuple(0 for _ in projects)
    return float(sol.value[states.index(tuple(start))])


def evaluate_priority_policy(
    projects: Sequence[MarkovProject],
    rule: IndexRule,
    beta: float,
    start: tuple | None = None,
    *,
    product: tuple[FiniteMDP, list[tuple]] | None = None,
) -> float:
    """Exact discounted value of the priority policy induced by ``rule``
    (engage the available project of highest ``rule.index(pid, state)``;
    ties to the lowest project id), via a linear solve on the induced chain.
    ``product`` is ``bandit_product_mdp(projects)``, when the caller has
    already built it."""
    mdp, states = bandit_product_mdp(projects) if product is None else product
    N = len(projects)
    policy = np.empty(len(states), dtype=int)
    for i, s in enumerate(states):
        policy[i] = max(range(N), key=lambda a: (rule.index(a, s[a]), -a))
    v = mdp.policy_value(policy, beta)
    if start is None:
        start = tuple(0 for _ in projects)
    return float(v[states.index(tuple(start))])
