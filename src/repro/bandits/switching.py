"""Bandits with switching penalties (Asawa–Teneketzis [2], E9).

Charging a cost ``c`` whenever the engaged project changes breaks the
Gittins rule's optimality: the optimal policy exhibits *hysteresis* (stick
with the incumbent beyond the point where a fresh comparison would switch).
An exact characterisation exists only partially and exact computation
"grows exponentially with the model size" — we therefore provide:

* the exact product MDP (joint states x incumbent project) as ground truth
  for small instances,
* the plain Gittins rule (ignores switching costs; provably suboptimal),
* the Asawa–Teneketzis-style hysteresis heuristic: switch away from the
  incumbent only when a challenger's Gittins index exceeds the incumbent's
  by at least the amortised switching cost ``c (1 - beta)`` (one-period
  rental equivalent of the lump cost; paying c now to hold a better arm
  forever is worth it exactly when the index gain exceeds this rate).
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

import numpy as np

from repro.bandits.gittins import gittins_indices_vwb
from repro.bandits.project import MarkovProject
from repro.mdp.core import FiniteMDP
from repro.mdp.solvers import policy_iteration

__all__ = [
    "switching_bandit_mdp",
    "optimal_switching_value",
    "evaluate_switching_policy",
    "gittins_with_hysteresis",
    "plain_gittins_switch_policy",
    "switching_policy_values",
]

_NO_INCUMBENT = -1


def _joint_states(projects: Sequence[MarkovProject]):
    # the start, every project in state 0 and no incumbent, comes first
    cores = itertools.product(*[range(p.n_states) for p in projects])
    incumbents = [_NO_INCUMBENT] + list(range(len(projects)))
    return [(s, inc) for s in cores for inc in incumbents]


def switching_bandit_mdp(
    projects: Sequence[MarkovProject], cost: float
) -> tuple[FiniteMDP, list]:
    """Joint MDP with the incumbent project in the state and a lump cost
    ``cost`` charged on every change of engaged project."""
    if cost < 0:
        raise ValueError("cost must be nonnegative")
    N = len(projects)
    states = _joint_states(projects)
    S = len(states)
    core = np.array([c for c, _ in states], dtype=np.intp).reshape(S, N)
    inc = np.array([i for _, i in states], dtype=np.intp)
    # state (core, inc) is number rank(core) * (N + 1) + inc + 1, where a
    # unit of core[a] moves the itertools.product rank by stride[a]
    sizes = [p.n_states for p in projects]
    stride = np.cumprod([1] + sizes[:0:-1])[::-1]
    rank = core @ stride
    T = np.zeros((N, S, S))
    R = np.zeros((N, S))
    rows = np.arange(S)[:, None]
    for a, proj in enumerate(projects):
        # engaging from scratch (inc == -1) charges no switch cost
        R[a] = proj.R[core[:, a]] - np.where((inc != a) & (inc != _NO_INCUMBENT), cost, 0.0)
        # engaging a moves project a alone, and a becomes the incumbent
        succ = rank[:, None] + (np.arange(sizes[a]) - core[:, a, None]) * stride[a]
        T[a, rows, succ * (N + 1) + a + 1] = proj.P[core[:, a]]
    # every row is a row of a project's validated transition matrix
    return FiniteMDP(T, R, validate=False), states


def _policy_value(mdp: FiniteMDP, states: list, beta: float, choose) -> float:
    policy = np.array([choose(core, inc) for (core, inc) in states], dtype=int)
    return float(mdp.policy_value(policy, beta)[0])


def optimal_switching_value(
    projects: Sequence[MarkovProject], cost: float, beta: float
) -> float:
    """Exact optimal discounted value (start: all projects at state 0, no
    incumbent)."""
    mdp, _ = switching_bandit_mdp(projects, cost)
    return float(policy_iteration(mdp, beta).value[0])


def evaluate_switching_policy(
    projects: Sequence[MarkovProject],
    cost: float,
    beta: float,
    choose: Callable[[tuple, int], int],
) -> float:
    """Exact discounted value of a stationary policy
    ``choose(core_states, incumbent) -> project`` under switching costs."""
    mdp, states = switching_bandit_mdp(projects, cost)
    return _policy_value(mdp, states, beta, choose)


def switching_policy_values(
    projects: Sequence[MarkovProject], cost: float, beta: float
) -> tuple[float, float, float]:
    """``(optimal, plain Gittins, hysteresis)`` discounted values from the
    start — :func:`optimal_switching_value` and
    :func:`evaluate_switching_policy` of the two heuristics, sharing one
    joint MDP and one set of Gittins index tables."""
    mdp, states = switching_bandit_mdp(projects, cost)
    tables = [gittins_indices_vwb(p, beta) for p in projects]
    return (
        float(policy_iteration(mdp, beta).value[0]),
        _policy_value(mdp, states, beta, _sticky_index_rule(tables, 0.0)),
        _policy_value(mdp, states, beta, _sticky_index_rule(tables, cost * (1.0 - beta))),
    )


def _sticky_index_rule(
    tables: Sequence[np.ndarray], bonus: float
) -> Callable[[tuple, int], int]:
    """Engage the largest index, the incumbent's boosted by ``bonus``;
    ties go to the incumbent, then to the lowest id."""

    def choose(core: tuple, inc: int) -> int:
        def score(a: int) -> float:
            return tables[a][core[a]] + (bonus if a == inc else 0.0)

        return max(range(len(tables)), key=lambda a: (score(a), 1 if a == inc else 0, -a))

    return choose


def plain_gittins_switch_policy(
    projects: Sequence[MarkovProject], beta: float
) -> Callable[[tuple, int], int]:
    """The Gittins rule oblivious to switching costs (ties to incumbent,
    then lowest id) — the E9 strawman."""
    # x + 0.0 == x, so a zero bonus compares the plain indices
    return _sticky_index_rule([gittins_indices_vwb(p, beta) for p in projects], 0.0)


def gittins_with_hysteresis(
    projects: Sequence[MarkovProject],
    cost: float,
    beta: float,
    *,
    stickiness: float | None = None,
) -> Callable[[tuple, int], int]:
    """The hysteresis heuristic: the incumbent's index is boosted by
    ``stickiness`` (default: the amortised switching cost ``c (1-beta)``)
    before comparison; switching happens only when a challenger clears the
    boosted bar."""
    bonus = cost * (1.0 - beta) if stickiness is None else float(stickiness)
    return _sticky_index_rule([gittins_indices_vwb(p, beta) for p in projects], bonus)
