"""Test-only oracles: the one-at-a-time index computations and rollouts.

These are the original bodies of
:func:`repro.bandits.gittins.gittins_indices_restart` (one value
iteration per restart state), the priority-order scan that closed
:func:`repro.core.achievable_region.achievable_region_lp` (one
:func:`~repro.core.conservation.priority_performance_vector` call per
permutation), :func:`repro.bandits.heterogeneous.simulate_heterogeneous_restless`
(the rule read and ``np.searchsorted`` called per project and epoch),
E9's switching-cost path (the joint MDP built once for the optimum and
once per heuristic, each heuristic computing its own index tables),
E19's (the bound and the Whittle tables solved apart), and the lockstep
searches :func:`repro.bandits.restless._bisect` and
:func:`repro.bandits.heterogeneous._dual_minimum` taking one step per
round, kept verbatim apart from their names.  The library replaced them
with stacked value iteration, a blocked array scan, list-based stepping,
one shared MDP build and searches that speculate several steps per round,
all of which must stay bit-for-bit equal;
``tests/test_index_oracles.py`` checks them against these oracles.
"""

from __future__ import annotations

import itertools
from typing import Callable, Generator, Sequence

import numpy as np

from repro.bandits.gittins import gittins_indices_vwb
from repro.bandits.heterogeneous import _dual, _gather
from repro.bandits.project import MarkovProject, random_project
from repro.bandits.restless import RestlessProject
from repro.core.conservation import priority_performance_vector
from repro.core.indices import IndexRule
from repro.mdp.core import FiniteMDP
from repro.mdp.solvers import policy_iteration

__all__ = [
    "oracle_gittins_indices_restart",
    "oracle_closest_priority_order",
    "oracle_simulate_heterogeneous_restless",
    "oracle_simulate_e9",
    "oracle_simulate_e19",
    "oracle_bisect",
    "oracle_dual_minimum",
]


def oracle_gittins_indices_restart(
    project: MarkovProject, beta: float, *, tol: float = 1e-12, max_iter: int = 200_000
) -> np.ndarray:
    if not 0 <= beta < 1:
        raise ValueError("beta must be in [0, 1)")
    P, R = project.P, project.R
    n = project.n_states
    out = np.empty(n)
    # `beta * P @ v` associates as `(beta * P) @ v`, so the scaled matrix
    # can be hoisted out of the iteration without changing a single bit
    bP = beta * P
    amax = np.maximum.reduce
    for s in range(n):
        bPs = bP[s]
        Rs = R[s]
        v = np.zeros(n)
        for _ in range(max_iter):
            cont = R + bP @ v
            rest = Rs + bPs @ v  # scalar: restart from s
            v_new = np.maximum(cont, rest)
            # np.maximum.reduce is ndarray.max without its Python wrapper,
            # which costs as much as the arithmetic at these sizes
            if amax(np.abs(v_new - v)) < tol * max(1.0, amax(np.abs(v_new))):
                v = v_new
                break
            v = v_new
        out[s] = (1.0 - beta) * v[s]
    return out


def oracle_closest_priority_order(lam, ms, m2, W) -> tuple:
    # identify the priority order realising this vertex
    n = lam.size
    best_order, best_err = None, np.inf
    for order in itertools.permutations(range(n)):
        W_ord = priority_performance_vector(lam, ms, m2, order)
        err = float(np.max(np.abs(W_ord - W)))
        if err < best_err:
            best_err, best_order = err, order
    return tuple(best_order)


def oracle_simulate_heterogeneous_restless(
    projects: Sequence[RestlessProject],
    m_active: int,
    rule: IndexRule,
    horizon: int,
    rng: np.random.Generator,
    *,
    warmup: int = 0,
) -> float:
    N = len(projects)
    if not 0 <= m_active <= N:
        raise ValueError("need 0 <= m_active <= N")
    states = [0] * N
    cums = [
        (np.cumsum(p.P0, axis=1), np.cumsum(p.P1, axis=1)) for p in projects
    ]
    total = 0.0
    counted = 0
    for t in range(horizon):
        prio = np.array([rule.index(k, states[k]) for k in range(N)])
        order = np.lexsort((np.arange(N), -prio))
        active = set(order[:m_active].tolist())
        reward = 0.0
        u = rng.random(N)
        for k in range(N):
            p = projects[k]
            if k in active:
                reward += p.R1[states[k]]
                states[k] = int(np.searchsorted(cums[k][1][states[k]], u[k], side="right"))
            else:
                reward += p.R0[states[k]]
                states[k] = int(np.searchsorted(cums[k][0][states[k]], u[k], side="right"))
        if t >= warmup:
            total += reward
            counted += 1
    if counted == 0:
        raise ValueError("horizon must exceed warmup")
    return total / counted


_NO_INCUMBENT = -1


def _joint_states(projects: Sequence[MarkovProject]):
    cores = itertools.product(*[range(p.n_states) for p in projects])
    incumbents = [_NO_INCUMBENT] + list(range(len(projects)))
    return [(s, inc) for s in cores for inc in incumbents]


def _oracle_switching_bandit_mdp(
    projects: Sequence[MarkovProject], cost: float
) -> tuple[FiniteMDP, list]:
    if cost < 0:
        raise ValueError("cost must be nonnegative")
    N = len(projects)
    states = _joint_states(projects)
    index_of = {s: i for i, s in enumerate(states)}
    S = len(states)
    T = np.zeros((N, S, S))
    R = np.zeros((N, S))
    for i, (core, inc) in enumerate(states):
        for a, proj in enumerate(projects):
            pay = proj.R[core[a]] - (cost if a != inc and inc != _NO_INCUMBENT else 0.0)
            # engaging from scratch (inc == -1) charges no switch cost
            R[a, i] = pay
            for nxt_local, p in enumerate(proj.P[core[a]]):
                if p == 0.0:
                    continue
                nxt_core = list(core)
                nxt_core[a] = nxt_local
                T[a, i, index_of[(tuple(nxt_core), a)]] += p
    return FiniteMDP(T, R), states


def _oracle_optimal_switching_value(
    projects: Sequence[MarkovProject], cost: float, beta: float
) -> float:
    mdp, states = _oracle_switching_bandit_mdp(projects, cost)
    sol = policy_iteration(mdp, beta)
    start = (tuple(0 for _ in projects), _NO_INCUMBENT)
    return float(sol.value[states.index(start)])


def _oracle_evaluate_switching_policy(
    projects: Sequence[MarkovProject],
    cost: float,
    beta: float,
    choose: Callable[[tuple, int], int],
) -> float:
    mdp, states = _oracle_switching_bandit_mdp(projects, cost)
    policy = np.array([choose(core, inc) for (core, inc) in states], dtype=int)
    v = mdp.policy_value(policy, beta)
    start = (tuple(0 for _ in projects), _NO_INCUMBENT)
    return float(v[states.index(start)])


def _oracle_plain_gittins_switch_policy(
    projects: Sequence[MarkovProject], beta: float
) -> Callable[[tuple, int], int]:
    tables = [gittins_indices_vwb(p, beta) for p in projects]

    def choose(core: tuple, inc: int) -> int:
        return max(
            range(len(projects)),
            key=lambda a: (tables[a][core[a]], 1 if a == inc else 0, -a),
        )

    return choose


def _oracle_gittins_with_hysteresis(
    projects: Sequence[MarkovProject],
    cost: float,
    beta: float,
    *,
    stickiness: float | None = None,
) -> Callable[[tuple, int], int]:
    tables = [gittins_indices_vwb(p, beta) for p in projects]
    bonus = cost * (1.0 - beta) if stickiness is None else float(stickiness)

    def choose(core: tuple, inc: int) -> int:
        def score(a: int) -> float:
            return tables[a][core[a]] + (bonus if a == inc else 0.0)

        return max(range(len(projects)), key=lambda a: (score(a), 1 if a == inc else 0, -a))

    return choose


def oracle_simulate_e9(ss: np.random.SeedSequence, params) -> dict[str, float]:
    rng = np.random.default_rng(ss)
    beta, cost = float(params["beta"]), float(params["cost"])
    projects = [
        random_project(int(params["n_states"]), rng)
        for _ in range(int(params["n_projects"]))
    ]
    opt = _oracle_optimal_switching_value(projects, cost, beta)
    plain = _oracle_evaluate_switching_policy(
        projects, cost, beta, _oracle_plain_gittins_switch_policy(projects, beta)
    )
    hyst = _oracle_evaluate_switching_policy(
        projects, cost, beta, _oracle_gittins_with_hysteresis(projects, cost, beta)
    )
    return {
        "opt": float(opt),
        "plain_frac": float(plain / opt),
        "hyst_frac": float(hyst / opt),
    }


def oracle_simulate_e19(ss: np.random.SeedSequence, params) -> dict[str, float]:
    from repro.bandits import (
        heterogeneous_relaxation_bound,
        heterogeneous_whittle_rule,
        random_restless_project,
    )

    class MyopicHet(IndexRule):
        def __init__(self, projects):
            self._gaps = [p.R1 - p.R0 for p in projects]

        def index(self, item, state=None):
            return float(self._gaps[int(item)][0 if state is None else int(state)])

        @property
        def name(self):
            return "Myopic[het]"

    rng = np.random.default_rng(ss)
    projects = [
        random_restless_project(int(params["n_states"]), rng)
        for _ in range(int(params["n_projects"]))
    ]
    m = int(params["m"])
    horizon, warmup = int(params["horizon"]), int(params["warmup"])
    bound, lam_star = heterogeneous_relaxation_bound(projects, m)
    w_rule = heterogeneous_whittle_rule(projects, criterion="average")

    sim_w, sim_m = rng.spawn(2)
    whittle = oracle_simulate_heterogeneous_restless(
        projects, m, w_rule, horizon, sim_w, warmup=warmup
    )
    myopic = oracle_simulate_heterogeneous_restless(
        projects, m, MyopicHet(projects), horizon, sim_m, warmup=warmup
    )
    return {
        "bound": float(bound),
        "shadow_price": float(lam_star),
        "whittle_frac": float(whittle / bound),
        "myopic_frac": float(myopic / bound),
    }


def oracle_bisect(k: int, s: int, lo0: float, hi0: float, tol: float) -> Generator:
    lo, hi = lo0, hi0
    # ensure bracketing: gap(lo) >= 0 >= gap(hi)
    for _ in range(60):
        (gap,) = yield [("gap", k, lo)]
        if gap[s] >= -tol:
            break
        lo -= hi0 - lo0
    for _ in range(60):
        (gap,) = yield [("gap", k, hi)]
        if gap[s] <= tol:
            break
        hi += hi0 - lo0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        (gap,) = yield [("gap", k, mid)]
        if gap[s] > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def oracle_dual_minimum(
    ks: range, passive_budget: int, lo: float, hi: float, tol: float
) -> Generator:
    def duals(*lams: float) -> Generator:
        return _gather([_dual(ks, lam, passive_budget) for lam in lams])

    # expand until the minimum is interior (convexity: compare endpoints)
    for _ in range(30):
        f_lo, f_in = yield from duals(lo, lo + tol * 10)
        if f_lo > f_in:
            break
        lo -= (hi - lo)
    for _ in range(30):
        f_hi, f_in = yield from duals(hi, hi - tol * 10)
        if f_hi > f_in:
            break
        hi += (hi - lo)
    # golden-section search
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = yield from duals(c, d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = yield from _dual(ks, c, passive_budget)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = yield from _dual(ks, d, passive_budget)
    lam_star = 0.5 * (a + b)
    bound = yield from _dual(ks, lam_star, passive_budget)
    return bound, lam_star
