"""Exact solvers for finite MDPs: value iteration, policy iteration, LP,
and average-reward methods."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from repro.mdp.core import FiniteMDP

__all__ = [
    "MDPSolution",
    "value_iteration",
    "policy_iteration",
    "linear_programming",
    "relative_value_iteration",
    "stacked_relative_value_iteration",
    "average_reward_lp",
]


@dataclass(frozen=True)
class MDPSolution:
    """Optimal value function, a greedy optimal policy, and solver metadata.

    A stacked solve (:func:`stacked_relative_value_iteration`) returns one
    of these whose fields are arrays with a leading batch axis.
    """

    value: np.ndarray
    policy: np.ndarray
    iterations: int
    converged: bool
    gain: float | None = None  # average-reward problems only


def value_iteration(
    mdp: FiniteMDP,
    beta: float,
    *,
    tol: float = 1e-10,
    max_iter: int = 100_000,
    v0: np.ndarray | None = None,
) -> MDPSolution:
    """Discounted value iteration with the standard span-based stopping rule.

    Stops when the sup-norm Bellman residual guarantees the value is within
    ``tol`` of optimal (residual below ``tol * (1 - beta) / (2 beta)``).
    """
    if not 0 <= beta < 1:
        raise ValueError("beta must be in [0, 1)")
    v = np.zeros(mdp.n_states) if v0 is None else np.asarray(v0, dtype=float).copy()
    threshold = tol if beta == 0 else tol * (1.0 - beta) / (2.0 * beta)
    policy = np.zeros(mdp.n_states, dtype=int)
    for it in range(1, max_iter + 1):
        v_new, policy = mdp.bellman_backup(v, beta)
        if float(np.max(np.abs(v_new - v))) < threshold:
            return MDPSolution(v_new, policy, it, True)
        v = v_new
    return MDPSolution(v, policy, max_iter, False)


def policy_iteration(
    mdp: FiniteMDP, beta: float, *, max_iter: int = 10_000
) -> MDPSolution:
    """Howard policy iteration with exact policy evaluation.

    Terminates in finitely many steps at an exactly optimal policy — the
    preferred ground-truth solver for our small bandit/scheduling baselines.
    """
    if not 0 <= beta < 1:
        raise ValueError("beta must be in [0, 1)")
    policy = np.array([acts[0] for acts in mdp.action_sets], dtype=int)
    for it in range(1, max_iter + 1):
        v = mdp.policy_value(policy, beta)
        _, greedy = mdp.bellman_backup(v, beta)
        # keep the incumbent action when it is still greedy (avoids cycling)
        q = mdp.rewards + beta * np.einsum("ast,t->as", mdp.transitions, v)
        incumbent_q = q[policy, np.arange(mdp.n_states)]
        greedy_q = q[greedy, np.arange(mdp.n_states)]
        improved = greedy_q > incumbent_q + 1e-12
        if not np.any(improved):
            return MDPSolution(v, policy, it, True)
        policy = np.where(improved, greedy, policy)
    v = mdp.policy_value(policy, beta)
    return MDPSolution(v, policy, max_iter, False)


def linear_programming(mdp: FiniteMDP, beta: float) -> MDPSolution:
    """Solve the discounted MDP by its primal LP:

    minimise ``sum_s v_s`` subject to
    ``v_s >= r(s, a) + beta sum_t P(t | s, a) v_t`` for all allowed (s, a).

    Included because the survey's achievable-region method is an LP approach;
    this gives an independent check on the iterative solvers.
    """
    if not 0 <= beta < 1:
        raise ValueError("beta must be in [0, 1)")
    S, A = mdp.n_states, mdp.n_actions
    rows, rhs = [], []
    for s in range(S):
        for a in mdp.action_sets[s]:
            # -v_s + beta * P v <= -r
            row = beta * mdp.transitions[a, s].copy()
            row[s] -= 1.0
            rows.append(row)
            rhs.append(-mdp.rewards[a, s])
    res = linprog(
        c=np.ones(S),
        A_ub=np.asarray(rows),
        b_ub=np.asarray(rhs),
        bounds=[(None, None)] * S,
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"MDP LP failed: {res.message}")
    v = res.x
    _, policy = mdp.bellman_backup(v, beta)
    return MDPSolution(v, policy, 1, True)


def relative_value_iteration(
    mdp: FiniteMDP,
    *,
    tol: float = 1e-9,
    max_iter: int = 200_000,
    reference_state: int = 0,
) -> MDPSolution:
    """Average-reward relative value iteration (unichain models).

    Returns the bias vector (normalised to 0 at ``reference_state``), an
    optimal policy, and the optimal gain in ``MDPSolution.gain``. Used by the
    Whittle-index and average-cost queueing experiments. This is the
    one-row call of :func:`stacked_relative_value_iteration`.
    """
    sol = stacked_relative_value_iteration(
        mdp.transitions[None],
        mdp.rewards[None],
        mask=mdp._mask,
        tol=tol,
        max_iter=max_iter,
        reference_state=reference_state,
    )
    return MDPSolution(
        sol.value[0],
        sol.policy[0],
        int(sol.iterations[0]),
        bool(sol.converged[0]),
        gain=float(sol.gain[0]),
    )


def stacked_relative_value_iteration(
    transitions: np.ndarray,
    rewards: np.ndarray,
    *,
    mask: np.ndarray | None = None,
    tol: float | np.ndarray = 1e-9,
    max_iter: int = 200_000,
    reference_state: int = 0,
) -> MDPSolution:
    """Relative value iteration on a stack of MDPs run in lockstep.

    ``transitions`` has shape ``(B, A, S, S)`` and ``rewards`` ``(B, A, S)``;
    ``mask`` (broadcastable to ``(B, A, S)``) adds ``-inf`` to disallowed
    actions, like :attr:`FiniteMDP._mask`; ``tol`` is one tolerance or one
    per row. Every field of the returned solution carries a leading batch
    axis: ``value``/``policy`` are ``(B, S)``,
    ``iterations``/``converged``/``gain`` are ``(B,)``.

    Row ``b`` is bit-for-bit the scalar iteration on MDP ``b``: the
    per-row arithmetic is the same elementwise IEEE sequence, and each row
    retires at its own convergence iteration (rows that never converge
    report ``max_iter`` with the last iterate, as the scalar loop does).
    """
    T = np.asarray(transitions, dtype=float)
    R = np.asarray(rewards, dtype=float)
    if T.ndim != 4 or T.shape[2] != T.shape[3] or R.shape != T.shape[:3]:
        raise ValueError("need transitions (B, A, S, S) and rewards (B, A, S)")
    B, A, S, _ = T.shape
    M = np.zeros((A, S)) if mask is None else np.asarray(mask, dtype=float)
    M = np.broadcast_to(M, (B, A, S))
    tol = np.broadcast_to(np.asarray(tol, dtype=float), (B,))
    value = np.zeros((B, S))
    policy = np.zeros((B, S), dtype=int)
    iterations = np.full(B, max_iter)
    converged = np.zeros(B, dtype=bool)
    gain = np.zeros(B)
    live = np.arange(B)  # original row of each row still iterating
    v = np.zeros((B, S))
    pol = np.zeros((B, S), dtype=int)
    d = np.zeros((B, S))
    ref = reference_state
    if B == 0:
        return MDPSolution(value, policy, iterations, converged, gain=gain)
    row_ix, state_ix = np.arange(B)[:, None], np.arange(S)
    # aperiodicity transform: mix with the identity
    tau = 0.5
    for it in range(1, max_iter + 1):
        qm = R + np.einsum("bast,bt->bas", T, v) + M
        pol = qm.argmax(axis=1)
        v_new = qm[row_ix, pol, state_ix]
        v_new = tau * v_new + (1 - tau) * v  # damped update keeps spans contracting
        d = v_new - v  # d[:, ref] is the gain estimate
        hi, lo = d.max(axis=1), d.min(axis=1)
        done = hi - lo < tol
        if done.any():
            rows = live[done]
            # the damped operator has the same bias as the original problem
            value[rows] = v_new[done] - v_new[done, ref, None]
            policy[rows] = pol[done]
            iterations[rows] = it
            converged[rows] = True
            gain[rows] = (hi[done] + lo[done]) / 2.0 / tau
            keep = ~done
            live = live[keep]
            if live.size == 0:
                break
            T, R, M, tol = T[keep], R[keep], M[keep], tol[keep]
            v_new, pol, d = v_new[keep], pol[keep], d[keep]
            row_ix = row_ix[: live.size]
        v = v_new - v_new[:, ref, None]
    else:
        value[live] = v
        policy[live] = pol
        gain[live] = d[:, ref] / tau
    return MDPSolution(value, policy, iterations, converged, gain=gain)


def average_reward_lp(mdp: FiniteMDP) -> tuple[float, np.ndarray]:
    """Average-reward LP over the stationary state–action polytope.

    maximise ``sum_{s,a} r(s,a) x(s,a)`` subject to flow balance and
    normalisation; returns ``(optimal_gain, x)`` with ``x`` of shape
    ``(n_actions, n_states)``. This is exactly the kind of relaxation the
    achievable-region method builds on.
    """
    S, A = mdp.n_states, mdp.n_actions
    idx = {}
    cols = []
    for s in range(S):
        for a in mdp.action_sets[s]:
            idx[(s, a)] = len(cols)
            cols.append((s, a))
    n = len(cols)
    c = np.array([-mdp.rewards[a, s] for (s, a) in cols])
    # flow balance: sum_a x(t,a) - sum_{s,a} P(t|s,a) x(s,a) = 0 for all t
    A_eq = np.zeros((S + 1, n))
    for j, (s, a) in enumerate(cols):
        A_eq[s, j] += 1.0
        A_eq[:S, j] -= mdp.transitions[a, s]
        A_eq[S, j] = 1.0
    b_eq = np.zeros(S + 1)
    b_eq[S] = 1.0
    res = linprog(c, A_eq=A_eq, b_eq=b_eq, bounds=[(0, None)] * n, method="highs")
    if not res.success:
        raise RuntimeError(f"average-reward LP failed: {res.message}")
    x = np.zeros((A, S))
    for j, (s, a) in enumerate(cols):
        x[a, s] = res.x[j]
    return -float(res.fun), x
