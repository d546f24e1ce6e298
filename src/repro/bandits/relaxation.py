"""LP relaxation bounds and heuristics for restless bandits.

Whittle's relaxation [48] replaces "exactly m of N projects active at every
epoch" by "m active *on average*". For i.i.d. projects the relaxed problem
decomposes: per project, maximise the average reward subject to an average
activation rate ``alpha = m / N``. The relaxed optimum, computed here as an
LP over single-project state–action occupation measures, is an *upper bound*
on the achievable average reward per project — the yardstick of the
Weber–Weiss asymptotic-optimality experiment (E8) and the source of the
Bertsimas–Niño-Mora primal–dual index heuristic [7].
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.bandits.restless import RestlessProject, whittle_indices
from repro.core.indices import IndexRule, StaticIndexRule

__all__ = [
    "average_relaxation_bound",
    "primal_dual_indices",
    "simulate_restless",
    "whittle_rule",
    "myopic_rule",
]


def _solve_activation_lp(project: RestlessProject, alpha: float):
    """Solve the single-project average-activation LP with HiGHS.

    maximise ``sum_{s,a} R_a(s) x(s,a)`` over occupation measures with
    flow balance, total mass 1 and activation mass ``sum_s x(s,1) = alpha``;
    the variables are ``x(s,0)`` then ``x(s,1)`` (passive block first).
    Returns scipy's ``OptimizeResult``.
    """
    from scipy.optimize import linprog

    if not 0 <= alpha <= 1:
        raise ValueError("alpha must be in [0, 1]")
    n = project.n_states
    nv = 2 * n
    c = -np.concatenate([project.R0, project.R1])
    # flow balance: sum_a x(t,a) = sum_{s,a} P_a(s,t) x(s,a)
    A_eq = np.zeros((n + 2, nv))
    for t in range(n):
        A_eq[t, t] += 1.0
        A_eq[t, n + t] += 1.0
        A_eq[t, :n] -= project.P0[:, t]
        A_eq[t, n:] -= project.P1[:, t]
    A_eq[n, :] = 1.0  # normalisation
    A_eq[n + 1, n:] = 1.0  # activation fraction
    b_eq = np.zeros(n + 2)
    b_eq[n] = 1.0
    b_eq[n + 1] = alpha
    res = linprog(c, A_eq=A_eq, b_eq=b_eq, bounds=[(0, None)] * nv, method="highs")
    if not res.success:
        raise RuntimeError(f"relaxation LP failed: {res.message}")
    return res


def average_relaxation_bound(
    project: RestlessProject, alpha: float
) -> tuple[float, np.ndarray]:
    """Optimal value of the single-project average-activation LP.

    Returns ``(bound_per_project, x)`` with x the optimal occupation
    measure, of shape (2, n_states).
    """
    res = _solve_activation_lp(project, alpha)
    n = project.n_states
    x = np.vstack([res.x[:n], res.x[n:]])
    return -float(res.fun), x


def primal_dual_indices(project: RestlessProject, alpha: float) -> np.ndarray:
    """Bertsimas–Niño-Mora-style primal–dual heuristic indices.

    Uses the optimal dual multiplier of the activation constraint as the
    implicit subsidy ``lam*`` and ranks states by the active-minus-passive
    *reduced profit* at the LP optimum:

    ``index(s) = (R1(s) - R0(s)) + (P1(s) - P0(s)) @ h - lam*``

    where ``h`` comes from the flow-balance duals. States the relaxation
    wants active get positive indices.
    """
    res = _solve_activation_lp(project, alpha)
    n = project.n_states
    duals = np.asarray(res.eqlin.marginals, dtype=float)
    h = -duals[:n]  # flow-balance duals act as a bias vector
    lam = -duals[n + 1]  # activation-constraint dual = implicit subsidy
    gain_active = project.R1 + project.P1 @ h
    gain_passive = project.R0 + project.P0 @ h
    return (gain_active - gain_passive) - lam


def whittle_rule(project: RestlessProject, **kwargs) -> IndexRule:
    """Whittle-index rule for a homogeneous population of ``project``.

    The rule's table is keyed ``(pid, state) -> index`` lazily through the
    state argument only, so one table serves any number of identical arms.
    """
    w = whittle_indices(project, **kwargs)

    class _W(IndexRule):
        def index(self, item, state=None):
            return float(w[0 if state is None else int(state)])

        @property
        def name(self):
            return "Whittle"

    return _W()


def myopic_rule(project: RestlessProject) -> IndexRule:
    """Myopic baseline: rank by the immediate active-passive reward gap."""
    gap = project.R1 - project.R0

    class _M(IndexRule):
        def index(self, item, state=None):
            return float(gap[0 if state is None else int(state)])

        @property
        def name(self):
            return "Myopic"

    return _M()


def simulate_restless(
    project: RestlessProject,
    n_projects: int,
    m_active: int,
    rule: IndexRule,
    horizon: int,
    rng: np.random.Generator,
    *,
    warmup: int = 0,
    start_states: Sequence[int] | None = None,
) -> float:
    """Simulate ``n_projects`` i.i.d. copies of ``project`` under the
    priority policy that activates the ``m_active`` highest-index arms every
    epoch; returns the average reward *per project per epoch* after warmup.

    The inner loop is vectorised over projects: all passive transitions are
    sampled in one batch and all active ones in another (the hpc guides'
    vectorise-the-hot-loop rule — this is the N=1000 Weber–Weiss workload).
    """
    if not 0 <= m_active <= n_projects:
        raise ValueError("need 0 <= m_active <= n_projects")
    n = project.n_states
    states = (
        np.zeros(n_projects, dtype=np.int64)
        if start_states is None
        else np.asarray(start_states, dtype=np.int64).copy()
    )
    # per-state index tables (rule may be state-dependent only)
    idx_table = np.array([rule.index(0, s) for s in range(n)])
    cum0 = np.cumsum(project.P0, axis=1)
    cum1 = np.cumsum(project.P1, axis=1)
    total = 0.0
    counted = 0
    for t in range(horizon):
        prio = idx_table[states]
        # activate the m largest (stable tie-break by project id)
        order = np.lexsort((np.arange(n_projects), -prio))
        active_ids = order[:m_active]
        active_mask = np.zeros(n_projects, dtype=bool)
        active_mask[active_ids] = True
        reward = project.R1[states[active_mask]].sum() + project.R0[states[~active_mask]].sum()
        if t >= warmup:
            total += reward
            counted += 1
        u = rng.random(n_projects)
        nxt = np.empty(n_projects, dtype=np.int64)
        if active_mask.any():
            rows = cum1[states[active_mask]]
            nxt[active_mask] = (u[active_mask, None] > rows).sum(axis=1)
        if (~active_mask).any():
            rows = cum0[states[~active_mask]]
            nxt[~active_mask] = (u[~active_mask, None] > rows).sum(axis=1)
        states = nxt
    if counted == 0:
        raise ValueError("horizon must exceed warmup")
    return total / counted / n_projects
