"""Gittins index computation.

Two independent algorithms (each validates the other in the tests):

* :func:`gittins_indices_vwb` — the Varaiya–Walrand–Buyukkoc largest-index-
  first algorithm [40]: states are ranked one per iteration; the index of a
  candidate state is the reward-to-time ratio of the stopping problem that
  continues exactly while the process stays among already-ranked (higher-
  index) states.
* :func:`gittins_indices_restart` — the Katehakis–Veinott *restart-in-state*
  formulation: ``gamma(s) = (1 - beta) * V_s(s)`` where ``V_s`` solves the
  two-action MDP "continue the project or restart it from s".

Both return the index in *rate* units: ``gamma(s) in [min R, max R]``,
the constant reward per period a standard arm must pay to be exactly as
attractive as the project in state ``s``.
"""

from __future__ import annotations

import numpy as np

from repro.bandits.project import MarkovProject
from repro.core.indices import PriorityIndexPolicy, StaticIndexRule

__all__ = ["gittins_indices_vwb", "gittins_indices_restart", "gittins_policy"]


def gittins_indices_vwb(project: MarkovProject, beta: float) -> np.ndarray:
    """Gittins indices by the largest-index-first (VWB) algorithm.

    At iteration k the set ``C`` holds the k highest-index states. For each
    unranked candidate ``s`` consider engaging from ``s`` and continuing
    while the state stays in ``C`` (stopping on exit). With

    ``N(s) = E[sum_{t < tau} beta^t R(X_t)]``  and
    ``D(s) = E[sum_{t < tau} beta^t]``,

    the candidate ratio is ``(1 - beta) N(s) / ((1 - beta) D(s))``; the
    maximiser joins ``C`` with that index. Indices are produced in
    nonincreasing order.
    """
    if not 0 <= beta < 1:
        raise ValueError("beta must be in [0, 1)")
    P, R = project.P, project.R
    n = project.n_states
    gamma = np.full(n, np.nan)
    ranked: list[int] = []
    unranked = set(range(n))
    while unranked:
        C = ranked  # states allowed for continuation
        if C:
            Pcc = P[np.ix_(C, C)]
            M = np.linalg.inv(np.eye(len(C)) - beta * Pcc)
            contN = M @ R[C]  # value of reward stream inside C
            contD = M @ np.ones(len(C))
        best_s, best_ratio = -1, -np.inf
        for s in unranked:
            if C:
                N = R[s] + beta * P[s, C] @ contN
                D = 1.0 + beta * P[s, C] @ contD
            else:
                N, D = R[s], 1.0
            ratio = N / D
            if ratio > best_ratio + 1e-15:
                best_ratio, best_s = ratio, s
        gamma[best_s] = best_ratio  # N/D is already in reward-rate units
        ranked.append(best_s)
        unranked.discard(best_s)
    return gamma


#: elements of one block's ``(restart states, n)`` iterate: a block of
#: states runs as one stacked value iteration, so this bounds its arrays
_RESTART_BLOCK = 1 << 20


def gittins_indices_restart(
    project: MarkovProject, beta: float, *, tol: float = 1e-12, max_iter: int = 200_000
) -> np.ndarray:
    """Gittins indices via the restart-in-state MDP (Katehakis–Veinott).

    For each state ``s`` solve by value iteration the MDP with actions
    {continue, restart-to-s}; the index is ``(1 - beta) * V(s)``. O(n) value
    iterations of an n-state MDP — slower than VWB but independent, used as
    the cross-check.

    The restart states run side by side, one row each, in blocks: a stacked
    ``(k, n, n) @ (k, n, 1)`` matmul applies each row's matrix–vector
    product and ``(k, 1, n) @ (k, n, 1)`` its restart dot bit for bit, and
    a row is frozen at the iteration its own test passes. So every index
    is the one that state's value iteration alone gets.
    """
    if not 0 <= beta < 1:
        raise ValueError("beta must be in [0, 1)")
    P, R = project.P, project.R
    n = project.n_states
    out = np.empty(n)
    # `beta * P @ v` associates as `(beta * P) @ v`, so the scaled matrix
    # can be hoisted out of the iteration without changing a single bit
    bP = beta * P
    block = max(1, _RESTART_BLOCK // n)
    for lo in range(0, n, block):
        starts = np.arange(lo, min(lo + block, n))
        k = starts.size
        bPk = np.broadcast_to(bP, (k, n, n))
        bPs = bP[starts, None, :]
        Rs = R[starts]
        v = np.zeros((k, n))
        active = np.ones(k, dtype=bool)
        for _ in range(max_iter):
            cont = R + (bPk @ v[..., None])[..., 0]
            rest = Rs + (bPs @ v[..., None])[:, 0, 0]
            v_new = np.maximum(cont, rest[:, None])
            converged = np.abs(v_new - v).max(axis=1) < tol * np.maximum(
                1.0, np.abs(v_new).max(axis=1)
            )
            # a converged row keeps the iterate it converged on
            v = np.where(active[:, None], v_new, v)
            active &= ~converged
            if not active.any():
                break
        out[starts] = (1.0 - beta) * v[np.arange(k), starts]
    return out


def gittins_policy(
    projects: dict | list, beta: float, *, algorithm: str = "vwb"
) -> PriorityIndexPolicy:
    """Build the Gittins priority policy for a collection of projects.

    ``projects`` maps project id -> :class:`MarkovProject` (a list is keyed
    by position). The returned policy's ``select(available, states=...)``
    expects per-project current states.
    """
    if isinstance(projects, list):
        projects = dict(enumerate(projects))
    compute = {
        "vwb": gittins_indices_vwb,
        "restart": gittins_indices_restart,
    }.get(algorithm)
    if compute is None:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    table: dict = {}
    for pid, proj in projects.items():
        gamma = compute(proj, beta)
        for s, g in enumerate(gamma):
            table[(pid, s)] = float(g)
        table[pid] = float(gamma[0])  # default when no state is supplied
    return PriorityIndexPolicy(StaticIndexRule(table, name=f"Gittins[{algorithm}]"))
