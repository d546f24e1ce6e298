"""Classical-bandit scenario pack (E7, E9, A1).

Gittins-index optimality against the exact product-space DP, the
switching-penalty counterexample with its hysteresis recovery, and the
VWB-vs-restart algorithmic cross-check — each with a ``direct`` kernel.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.experiments.packs import ScenarioPack

Params = Mapping[str, Any]

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
        bandit_product_mdp,
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
    # one product MDP serves the optimum and both priority policies
    product = bandit_product_mdp(projects)
    opt = optimal_bandit_value(projects, beta, product=product)
    git = evaluate_priority_policy(
        projects, gittins_policy(projects, beta).rule, beta, product=product
    )
    myopic_table = {
        (pid, s): float(projects[pid].R[s])
        for pid in range(n_proj)
        for s in range(n_states)
    }
    myop = evaluate_priority_policy(
        projects, StaticIndexRule(myopic_table), beta, product=product
    )

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


@PACK.kernel(
    "E9",
    note="each replication builds its joint switching MDP and its Gittins tables "
    "once, so the deleted batched copy ran only 1.5x faster than this path "
    "(measured at 24 replications), under the 2x a second bit-identical "
    "implementation must earn",
)
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
    from repro.bandits import random_project, switching_policy_values

    rng = np.random.default_rng(ss)
    beta, cost = float(params["beta"]), float(params["cost"])
    projects = [
        random_project(int(params["n_states"]), rng)
        for _ in range(int(params["n_projects"]))
    ]
    opt, plain, hyst = switching_policy_values(projects, cost, beta)
    return {
        "opt": float(opt),
        "plain_frac": float(plain / opt),
        "hyst_frac": float(hyst / opt),
    }


@PACK.kernel(
    "A1",
    note="the restart-in-state value iterations of all states run as one stacked "
    "iteration, so the deleted batched copy was slower than this path "
    "(0.6x, measured at 8 replications)",
)
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
