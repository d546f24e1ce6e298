"""Classical-bandit scenario pack (E7, E9, A1).

Gittins-index optimality against the exact product-space DP, the
switching-penalty counterexample with its hysteresis recovery, and the
VWB-vs-restart algorithmic cross-check — with batched-MDP and
batched-Gittins vectorized kernels for E9 and A1, and a ``direct``
kernel for E7.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro.experiments.packs import ScenarioPack
from repro.experiments.packs._shared import _float_rows
from repro.sim.vectorized import (
    batched_switching_mdp,
    restart_gittins_batch,
)

Params = Mapping[str, Any]
Seeds = Sequence[np.random.SeedSequence]

_BETA = {"type": "number", "minimum": 0, "exclusiveMaximum": 1}

_SCHEMAS = {
    "E7": {
        "type": "object",
        "properties": {
            "n_projects": {"type": "integer", "minimum": 1},
            "n_states": {"type": "integer", "minimum": 2},
            "beta": _BETA,
            "algo_states": {"type": "integer", "minimum": 2},
        },
        "additionalProperties": False,
    },
    "E9": {
        "type": "object",
        "properties": {
            "beta": _BETA,
            "cost": {"type": "number", "minimum": 0},
            "n_states": {"type": "integer", "minimum": 2},
            "n_projects": {"type": "integer", "minimum": 1},
        },
        "additionalProperties": False,
    },
    "A1": {
        "type": "object",
        "properties": {
            "n_states": {"type": "integer", "minimum": 2},
            "beta": _BETA,
        },
        "additionalProperties": False,
    },
}

PACK = ScenarioPack(
    name="bandits",
    version="1.0.0",
    docs="docs/ARCHITECTURE.md#scenario-packs",
    schemas=_SCHEMAS,
)


@PACK.kernel(
    "E7",
    mode="direct",
    note="each replication's product-space policy iteration and index "
    "computations depend on its own projects; nothing is shared to hoist",
)
@PACK.scenario(
    "E7",
    title="Gittins index rule vs exact product-space DP",
    claim=(
        "The Gittins index rule is optimal for classical multi-armed "
        "bandits (Gittins–Jones [19]); indices are efficiently computable "
        "[40] while the joint DP state space grows exponentially."
    ),
    verdict=(
        "Reproduced: the index policy matches product-space DP on every "
        "instance; two independent index algorithms agree; the myopic rule "
        "is weakly suboptimal."
    ),
    defaults={"n_projects": 3, "n_states": 3, "beta": 0.9, "algo_states": 8},
    checks={
        "gittins_optimal": lambda m: m["gittins_gap"] < 1e-8,
        "algorithms_agree": lambda m: m["algo_diff"] < 1e-6,
        "myopic_no_better": lambda m: m["myopic_loss"] >= -1e-9,
    },
    tags=("bandits", "exact"),
)
def simulate_e7(ss: np.random.SeedSequence, params: Params) -> dict[str, float]:
    """One replication of E7: Gittins index rule vs exact product-space DP.

    Derives all randomness from ``ss`` and measures the metric
    dictionary the registry entry's shape checks are evaluated on.
    """
    from repro.bandits import (
        evaluate_priority_policy,
        gittins_indices_restart,
        gittins_indices_vwb,
        gittins_policy,
        optimal_bandit_value,
        random_project,
    )
    from repro.core.indices import StaticIndexRule

    rng = np.random.default_rng(ss)
    beta = float(params["beta"])
    n_proj, n_states = int(params["n_projects"]), int(params["n_states"])
    projects = [random_project(n_states, rng) for _ in range(n_proj)]
    opt = optimal_bandit_value(projects, beta)
    git = evaluate_priority_policy(projects, gittins_policy(projects, beta).rule, beta)
    myopic_table = {
        (pid, s): float(projects[pid].R[s])
        for pid in range(n_proj)
        for s in range(n_states)
    }
    myop = evaluate_priority_policy(projects, StaticIndexRule(myopic_table), beta)

    proj = random_project(int(params["algo_states"]), rng)
    algo_diff = float(
        np.max(np.abs(gittins_indices_vwb(proj, beta) - gittins_indices_restart(proj, beta)))
    )
    return {
        "opt": float(opt),
        "gittins_gap": float(abs(git / opt - 1.0)),
        "myopic_loss": float(1.0 - myop / opt),
        "algo_diff": algo_diff,
    }


@PACK.scenario(
    "E9",
    title="Switching penalties break Gittins; hysteresis recovers the gap",
    claim=(
        "With switching penalties the Gittins rule loses optimality "
        "(Asawa–Teneketzis [2]); a hysteresis index heuristic recovers "
        "most of the gap."
    ),
    verdict=(
        "Reproduced: plain Gittins is strictly suboptimal on found "
        "instances; hysteresis recovers the bulk of the gap."
    ),
    defaults={"beta": 0.9, "cost": 1.0, "n_states": 3, "n_projects": 2},
    checks={
        "hysteresis_no_worse": lambda m: m["hyst_frac"] >= m["plain_frac"] - 1e-9,
        "hysteresis_near_optimal": lambda m: m["hyst_frac"] > 0.95,
        "plain_not_always_optimal": lambda m: m["plain_frac"] < 1.0 - 1e-12,
    },
    tags=("bandits", "exact", "counterexample"),
)
def simulate_e9(ss: np.random.SeedSequence, params: Params) -> dict[str, float]:
    """One replication of E9: Switching penalties break Gittins; hysteresis recovers the gap.

    Derives all randomness from ``ss`` and measures the metric
    dictionary the registry entry's shape checks are evaluated on.
    """
    from repro.bandits import (
        evaluate_switching_policy,
        gittins_with_hysteresis,
        optimal_switching_value,
        plain_gittins_switch_policy,
        random_project,
    )

    rng = np.random.default_rng(ss)
    beta, cost = float(params["beta"]), float(params["cost"])
    projects = [
        random_project(int(params["n_states"]), rng)
        for _ in range(int(params["n_projects"]))
    ]
    opt = optimal_switching_value(projects, cost, beta)
    plain = evaluate_switching_policy(
        projects, cost, beta, plain_gittins_switch_policy(projects, beta)
    )
    hyst = evaluate_switching_policy(
        projects, cost, beta, gittins_with_hysteresis(projects, cost, beta)
    )
    return {
        "opt": float(opt),
        "plain_frac": float(plain / opt),
        "hyst_frac": float(hyst / opt),
    }


@PACK.scenario(
    "A1",
    title="Ablation: VWB vs restart-in-state Gittins algorithms",
    claim=(
        "Ablation: the VWB largest-index-first recursion and the "
        "Katehakis–Veinott restart-in-state formulation are independent "
        "algorithms for the same Gittins indices and must agree to "
        "numerical precision."
    ),
    verdict="Agreement to 1e-6 at every tested size.",
    defaults={"n_states": 20, "beta": 0.9},
    checks={
        "algorithms_agree": lambda m: m["algo_diff"] < 1e-6,
        "top_index_is_top_reward": lambda m: m["top_index_err"] < 1e-8,
    },
    tags=("bandits", "exact", "ablation"),
)
def simulate_a1(ss: np.random.SeedSequence, params: Params) -> dict[str, float]:
    """One replication of A1: Ablation: VWB vs restart-in-state Gittins algorithms.

    Derives all randomness from ``ss`` and measures the metric
    dictionary the registry entry's shape checks are evaluated on.
    """
    from repro.bandits import (
        gittins_indices_restart,
        gittins_indices_vwb,
        random_project,
    )

    rng = np.random.default_rng(ss)
    beta = float(params["beta"])
    proj = random_project(int(params["n_states"]), rng)
    g_vwb = gittins_indices_vwb(proj, beta)
    g_restart = gittins_indices_restart(proj, beta, tol=1e-11)
    return {
        "algo_diff": float(np.max(np.abs(g_vwb - g_restart))),
        # the top Gittins index equals the top one-step reward
        "top_index_err": float(abs(np.max(g_vwb) - np.max(proj.R))),
    }


# ---------------------------------------------------------------------------
# vectorized kernels
# ---------------------------------------------------------------------------


def _sequential_argmax(
    values: np.ndarray, tie_rank: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Emulate ``max(range(A), key=lambda a: (values[:, a], tie_rank[a]))``
    per row: a later action replaces the incumbent iff its key tuple is
    strictly greater (value strictly greater, or exactly equal value and
    strictly greater tie rank).  Returns (argmax, max values)."""
    N, A = values.shape
    best = np.zeros(N, dtype=np.int64)
    best_val = values[:, 0].copy()
    for a in range(1, A):
        v = values[:, a]
        better = (v > best_val) | ((v == best_val) & (tie_rank[a] > tie_rank[best]))
        best = np.where(better, a, best)
        best_val = np.where(better, v, best_val)
    return best, best_val


def _policy_values_batch(
    T: np.ndarray, R: np.ndarray, policies: np.ndarray, beta: float
) -> np.ndarray:
    """Batched :meth:`FiniteMDP.policy_value`: exact discounted values of
    per-replication deterministic policies, one LAPACK solve per slice
    (bit-identical to the per-replication solve)."""
    N, _, S, _ = T.shape
    rows = np.arange(N)[:, None]
    cols = np.arange(S)[None, :]
    P_pi = T[rows, policies, cols]
    r_pi = R[rows, policies, cols]
    return np.linalg.solve(np.eye(S) - beta * P_pi, r_pi[..., None])[..., 0]


@PACK.kernel(
    "E9",
    mode="batched",
    note="the joint switching MDP is assembled once for the whole batch "
    "(the event path rebuilds it three times per replication) and both "
    "heuristic policies share one set of VWB index tables",
)
def batch_e9(seeds: Seeds, params: Params) -> list[dict[str, float]]:
    """``batched`` kernel for E9: runs all replications at once on arrays with a replication axis;
    bit-for-bit equal to ``simulate_e9`` on the same seeds.
    """
    from repro.bandits import gittins_indices_vwb, random_project
    from repro.mdp.core import FiniteMDP
    from repro.mdp.solvers import policy_iteration

    beta, cost = float(params["beta"]), float(params["cost"])
    n_proj, n_states = int(params["n_projects"]), int(params["n_states"])
    N = len(seeds)
    # the event path draws every project from one generator in sequence
    projects = []
    for ss in seeds:
        rng = np.random.default_rng(ss)
        projects.append([random_project(n_states, rng) for _ in range(n_proj)])

    Ps = [np.stack([projects[r][a].P for r in range(N)]) for a in range(n_proj)]
    Rs = [np.stack([projects[r][a].R for r in range(N)]) for a in range(n_proj)]
    T, R, states = batched_switching_mdp(Ps, Rs, cost)
    start = states.index((tuple(0 for _ in range(n_proj)), -1))

    opt = np.empty(N)
    for r in range(N):
        mdp = FiniteMDP(T[r], R[r], validate=False)
        opt[r] = policy_iteration(mdp, beta).value[start]

    gammas = np.stack(
        [
            np.stack([gittins_indices_vwb(projects[r][a], beta) for a in range(n_proj)])
            for r in range(N)
        ]
    )
    bonus = cost * (1.0 - beta)
    plain_policy = np.empty((N, len(states)), dtype=np.int64)
    hyst_policy = np.empty((N, len(states)), dtype=np.int64)
    for i, (core, inc) in enumerate(states):
        # key (value, incumbent flag, -a) -> integer tie rank
        tie_rank = np.array(
            [(1 if a == inc else 0) * n_proj + (n_proj - 1 - a) for a in range(n_proj)]
        )
        plain_vals = np.stack(
            [gammas[:, a, core[a]].astype(float) for a in range(n_proj)], axis=1
        )
        hyst_vals = np.stack(
            [
                gammas[:, a, core[a]].astype(float) + (bonus if a == inc else 0.0)
                for a in range(n_proj)
            ],
            axis=1,
        )
        plain_policy[:, i] = _sequential_argmax(plain_vals, tie_rank)[0]
        hyst_policy[:, i] = _sequential_argmax(hyst_vals, tie_rank)[0]
    plain = _policy_values_batch(T, R, plain_policy, beta)[:, start]
    hyst = _policy_values_batch(T, R, hyst_policy, beta)[:, start]
    return _float_rows(
        {"opt": opt, "plain_frac": plain / opt, "hyst_frac": hyst / opt},
        N,
    )


@PACK.kernel(
    "A1",
    mode="batched",
    note="the dominant restart-in-state value iterations run over the "
    "whole batch with stacked matrix-vector products; the VWB recursion "
    "keeps its exact per-replication control flow",
)
def batch_a1(seeds: Seeds, params: Params) -> list[dict[str, float]]:
    """``batched`` kernel for A1: runs all replications at once on arrays with a replication axis;
    bit-for-bit equal to ``simulate_a1`` on the same seeds.
    """
    from repro.bandits import gittins_indices_vwb, random_project

    beta = float(params["beta"])
    n_states = int(params["n_states"])
    projs = [random_project(n_states, np.random.default_rng(ss)) for ss in seeds]
    g_vwb = [gittins_indices_vwb(p, beta) for p in projs]
    Ps = np.stack([p.P for p in projs])
    Rs = np.stack([p.R for p in projs])
    g_restart = restart_gittins_batch(Ps, Rs, beta, tol=1e-11)
    rows = []
    for r, p in enumerate(projs):
        rows.append(
            {
                "algo_diff": float(np.max(np.abs(g_vwb[r] - g_restart[r]))),
                "top_index_err": float(abs(np.max(g_vwb[r]) - np.max(p.R))),
            }
        )
    return rows
