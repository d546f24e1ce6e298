"""Multiclass queueing-network scenario pack (E10–E14, A2, A3).

The cµ rule and achievable-region polytope for the multiclass M/G/1,
Klimov's feedback index, heavy-traffic asymptotic optimality on parallel
servers, Rybko–Stolyar instability, fluid-model policy ranking, and the
M/M/1 / achievable-region LP ablation anchors — simulated through
:func:`repro.queueing.network.simulate_network`.
"""

from __future__ import annotations

import itertools
from typing import Any, Mapping, Sequence

import numpy as np

from repro.experiments.packs import ScenarioPack
from repro.utils.rng import crn_generators
from repro.experiments.packs._shared import _crn_batches

Params = Mapping[str, Any]
Seeds = Sequence[np.random.SeedSequence]

_POS = {"type": "number", "exclusiveMinimum": 0}

_SCHEMAS = {
    "E10": {
        "type": "object",
        "properties": {"horizon": _POS, "conservation_rtol": _POS},
        "additionalProperties": False,
    },
    "E11": {
        "type": "object",
        "properties": {"horizon": _POS},
        "additionalProperties": False,
    },
    "E12": {
        "type": "object",
        "properties": {
            "mu": {"type": "array", "items": _POS, "minItems": 1},
            "costs": {"type": "array", "items": _POS, "minItems": 1},
            "m": {"type": "integer", "minimum": 1},
            "rhos": {
                "type": "array",
                "items": {
                    "type": "number",
                    "exclusiveMinimum": 0,
                    "exclusiveMaximum": 1,
                },
                "minItems": 1,
            },
            "horizon": _POS,
        },
        "additionalProperties": False,
    },
    "E13": {
        "type": "object",
        "properties": {
            "horizon": _POS, "fluid_dt": _POS, "fluid_horizon": _POS,
        },
        "additionalProperties": False,
    },
    "E14": {
        "type": "object",
        "properties": {
            "horizon": _POS, "fluid_dt": _POS, "fluid_horizon": _POS,
        },
        "additionalProperties": False,
    },
    "A2": {
        "type": "object",
        "properties": {
            "rho": {
                "type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1,
            },
            "horizon": _POS,
        },
        "additionalProperties": False,
    },
    "A3": {
        "type": "object",
        "properties": {"n_classes": {"type": "integer", "minimum": 1}},
        "additionalProperties": False,
    },
}

PACK = ScenarioPack(
    name="queueing-networks",
    version="1.0.0",
    docs="docs/ARCHITECTURE.md#scenario-packs",
    schemas=_SCHEMAS,
)


_E10_ARRIVAL = (0.2, 0.25, 0.15)
_E10_COSTS = (1.0, 2.5, 1.8)


def _e10_services():
    from repro.distributions import Erlang, Exponential, HyperExponential

    return [
        Exponential(1.2),
        Erlang(2, 2.0),
        HyperExponential.balanced_from_mean_scv(0.9, 3.0),
    ]


@PACK.scenario(
    "E10",
    title="cµ rule optimality for the multiclass M/G/1",
    claim=(
        "The cµ rule is optimal for the multiclass M/G/1 [15]; the "
        "achievable region is a polytope whose vertices are the strict "
        "priority rules [14, 17], so simulation, Cobham's formulas and the "
        "conservation laws must agree."
    ),
    verdict=(
        "Reproduced: cµ selects the best priority order; simulation matches "
        "Cobham's formulas; simulated waits satisfy strong conservation."
    ),
    defaults={"horizon": 8000.0, "conservation_rtol": 0.15},
    checks={
        "cmu_is_best_vertex": lambda m: m["cmu_picks_best"] == 1.0,
        "sim_matches_cobham": lambda m: abs(m["cmu_sim_ratio"] - 1.0) < 0.1,
        "conservation_holds": lambda m: m["conservation_ok"] >= 0.5,
        "polytope_has_all_vertices": lambda m: m["n_vertices"] == 6.0,
    },
    tags=("queueing", "simulation", "conservation"),
)
def simulate_e10(ss: np.random.SeedSequence, params: Params) -> dict[str, float]:
    """One replication of E10: cµ rule optimality for the multiclass M/G/1.

    Derives all randomness from ``ss`` and measures the metric
    dictionary the registry entry's shape checks are evaluated on.
    """
    from repro.core.conservation import (
        check_strong_conservation,
        performance_polytope_vertices,
    )
    from repro.queueing import optimal_average_cost, order_average_cost, simulate_network
    from repro.queueing.network import ClassConfig, QueueingNetwork, StationConfig

    services = _e10_services()
    arrival, costs = list(_E10_ARRIVAL), list(_E10_COSTS)
    horizon = float(params["horizon"])

    opt_cost, cmu = optimal_average_cost(arrival, services, costs)
    exact = {
        perm: order_average_cost(arrival, services, costs, perm)
        for perm in itertools.permutations(range(3))
    }
    best_perm = min(exact, key=exact.get)
    worst_perm = max(exact, key=exact.get)

    # CRN: both simulated orders replay the identical event stream.
    sims = {}
    for perm, rng in zip((tuple(cmu), worst_perm), crn_generators(ss, 2)):
        net = QueueingNetwork(
            [
                ClassConfig(0, services[j], arrival_rate=arrival[j], cost=costs[j])
                for j in range(3)
            ],
            [StationConfig(discipline="priority", priority=perm)],
        )
        sims[perm] = simulate_network(net, horizon, rng)

    ms = np.array([s.mean for s in services])
    m2 = np.array([s.second_moment for s in services])
    conserved = check_strong_conservation(
        arrival, ms, m2, sims[tuple(cmu)].mean_waits,
        rtol=float(params["conservation_rtol"]),
    )
    return {
        "opt_cost": float(opt_cost),
        "cmu_picks_best": float(tuple(cmu) == best_perm),
        "cmu_sim_ratio": float(sims[tuple(cmu)].cost_rate / opt_cost),
        "worst_exact_ratio": float(exact[worst_perm] / opt_cost),
        "worst_sim_ratio": float(sims[worst_perm].cost_rate / opt_cost),
        "conservation_ok": float(conserved),
        "n_vertices": float(len(performance_polytope_vertices(arrival, ms, m2))),
    }


_E11_LAM = (0.25, 0.1, 0.0)
_E11_MUS = (2.0, 1.5, 1.0)
_E11_COSTS = (1.0, 3.0, 2.0)
_E11_FEEDBACK = (
    (0.0, 0.3, 0.2),
    (0.0, 0.0, 0.4),
    (0.1, 0.0, 0.0),
)


@PACK.scenario(
    "E11",
    title="Klimov's index rule for the M/G/1 with feedback",
    claim=(
        "Klimov's index rule is optimal for the M/G/1 with Markovian "
        "feedback [24] and reduces to cµ without feedback."
    ),
    verdict=(
        "Reproduced: Klimov's order is best among all simulated priority "
        "orders (within Monte-Carlo noise) and the no-feedback reduction "
        "is exact."
    ),
    defaults={"horizon": 6000.0},
    checks={
        "klimov_best_order": lambda m: m["klimov_vs_best"] <= 1.05,
        "reduces_to_cmu": lambda m: m["reduction_exact"] == 1.0,
    },
    tags=("queueing", "simulation", "feedback"),
)
def simulate_e11(ss: np.random.SeedSequence, params: Params) -> dict[str, float]:
    """One replication of E11: Klimov's index rule for the M/G/1 with feedback.

    Derives all randomness from ``ss`` and measures the metric
    dictionary the registry entry's shape checks are evaluated on.
    """
    from repro.distributions import Exponential
    from repro.queueing.klimov import klimov_indices, klimov_order
    from repro.queueing.mg1 import cmu_order
    from repro.queueing.network import (
        ClassConfig,
        QueueingNetwork,
        StationConfig,
        simulate_network,
    )

    lam, mus, costs = list(_E11_LAM), list(_E11_MUS), list(_E11_COSTS)
    feedback = np.array(_E11_FEEDBACK)
    means = [1.0 / m for m in mus]
    horizon = float(params["horizon"])

    k_order = tuple(klimov_order(costs, means, feedback))
    naive = tuple(cmu_order(costs, means))
    perms = list(itertools.permutations(range(3)))
    # CRN: every priority order replays the same arrival/service stream.
    results = {}
    for perm, rng in zip(perms, crn_generators(ss, len(perms))):
        net = QueueingNetwork(
            [
                ClassConfig(0, Exponential(mus[j]), arrival_rate=lam[j], cost=costs[j])
                for j in range(3)
            ],
            [StationConfig(discipline="priority", priority=perm)],
            routing=feedback,
        )
        results[perm] = simulate_network(net, horizon, rng, warmup_fraction=0.2).cost_rate
    best = min(results.values())
    reduce_ok = np.allclose(
        klimov_indices(costs, means, np.zeros((3, 3))),
        np.asarray(costs) / np.asarray(means),
    )
    return {
        "klimov_cost": float(results[k_order]),
        "best_cost": float(best),
        "klimov_vs_best": float(results[k_order] / best),
        "naive_cmu_ratio": float(results[naive] / results[k_order]),
        "reduction_exact": float(reduce_ok),
    }


@PACK.scenario(
    "E12",
    title="cµ on parallel servers: asymptotic optimality in heavy traffic",
    claim=(
        "On parallel servers the cµ/Klimov heuristic is asymptotically "
        "optimal in heavy traffic (Glazebrook–Niño-Mora [22]): its gap to "
        "the pooled lower bound vanishes as rho -> 1."
    ),
    verdict=(
        "Reproduced: the cost ratio to the pooled preemptive-cµ lower "
        "bound decreases towards 1 as rho -> 1."
    ),
    defaults={
        "mu": (4.0, 1.0),
        "costs": (1.0, 2.0),
        "m": 2,
        "rhos": (0.6, 0.9, 0.95),
        "horizon": 12000.0,
    },
    checks={
        "bound_respected": lambda m: m["min_ratio"] > 0.9,
        # a single-rho grid (e.g. one point of a `repro-sweep` rho sweep,
        # where the decrease is asserted *across* sweep points) has no
        # decrease to show — the check only claims it for real grids
        "ratio_decreases": lambda m: m["n_rhos"] < 2
        or m["last_ratio"] < m["first_ratio"],
        # at the default horizon the rho=0.95 point is still transient-
        # biased; raise `horizon` for the sharper 1.1-style threshold.
        # Tightness is only claimed when the grid actually reaches heavy
        # traffic (top rho >= 0.95)
        "heavy_traffic_tight": lambda m: m["top_rho"] < 0.95
        or m["last_ratio"] < 1.2,
    },
    tags=("queueing", "simulation", "heavy-traffic"),
)
def simulate_e12(ss: np.random.SeedSequence, params: Params) -> dict[str, float]:
    """One replication of E12: cµ on parallel servers: asymptotic optimality in heavy traffic.

    Derives all randomness from ``ss`` and measures the metric
    dictionary the registry entry's shape checks are evaluated on.
    """
    from repro.queueing import parallel_server_experiment

    rng = np.random.default_rng(ss)
    pts = parallel_server_experiment(
        list(params["mu"]),
        list(params["costs"]),
        int(params["m"]),
        list(params["rhos"]),
        rng,
        horizon=float(params["horizon"]),
    )
    ratios = [p.ratio for p in pts]
    return {
        "first_ratio": float(ratios[0]),
        "last_ratio": float(ratios[-1]),
        "min_ratio": float(min(ratios)),
        "last_bound": float(pts[-1].pooled_bound),
        "last_cost": float(pts[-1].cmu_cost),
        # deterministic grid descriptors, so the shape checks can tell a
        # real rho grid from a degenerate single-rho sweep point
        "n_rhos": float(len(pts)),
        "top_rho": float(pts[-1].rho),
    }


@PACK.scenario(
    "E13",
    title="Rybko–Stolyar: priority instability under nominal underload",
    claim=(
        "Stability is subtle in multiclass networks [9]: a priority policy "
        "can diverge with every station underloaded (Rybko–Stolyar); the "
        "naive fluid model misses it and the virtual-station augmented "
        "fluid catches it."
    ),
    verdict=(
        "Reproduced: exit-priority diverges at virtual load 1.2 while FIFO "
        "and the virtual-load-0.8 variant stay stable; only the augmented "
        "fluid model predicts the instability."
    ),
    defaults={"horizon": 2000.0, "fluid_dt": 0.01, "fluid_horizon": 80.0},
    checks={
        "priority_diverges": lambda m: m["instability_ratio"] > 10.0,
        "safe_variant_stable": lambda m: m["safe_backlog"] < 100.0,
        "naive_fluid_blind": lambda m: m["naive_fluid_stable"] == 1.0,
        "augmented_fluid_sees_it": lambda m: m["augmented_fluid_stable"] == 0.0,
    },
    tags=("queueing", "simulation", "stability"),
)
def simulate_e13(ss: np.random.SeedSequence, params: Params) -> dict[str, float]:
    """One replication of E13: Rybko–Stolyar: priority instability under nominal underload.

    Derives all randomness from ``ss`` and measures the metric
    dictionary the registry entry's shape checks are evaluated on.
    """
    from repro.queueing import (
        FluidModel,
        is_fluid_stable,
        rybko_stolyar_network,
        simulate_network,
        virtual_station_load,
    )

    horizon = float(params["horizon"])
    dt, fh = float(params["fluid_dt"]), float(params["fluid_horizon"])
    bad = rybko_stolyar_network(1.0, 0.1, 0.6, priority_to_exit=True)
    fifo = rybko_stolyar_network(1.0, 0.1, 0.6, priority_to_exit=False)
    safe = rybko_stolyar_network(1.0, 0.1, 0.4, priority_to_exit=True)

    rngs = np.random.default_rng(ss).spawn(3)
    res_bad = simulate_network(bad, horizon, rngs[0])
    res_fifo = simulate_network(fifo, horizon, rngs[1])
    res_safe = simulate_network(safe, horizon, rngs[2])

    naive_stable = is_fluid_stable(FluidModel.from_network(bad), horizon=fh, dt=dt)
    aug_stable = is_fluid_stable(
        FluidModel.from_network(bad, virtual_stations=((1, 3),)), horizon=fh, dt=dt
    )
    return {
        "bad_backlog": float(res_bad.final_backlog),
        "fifo_backlog": float(res_fifo.final_backlog),
        "safe_backlog": float(res_safe.final_backlog),
        "instability_ratio": float(
            res_bad.final_backlog / max(res_fifo.final_backlog, 1.0)
        ),
        "virtual_load_bad": float(virtual_station_load(bad)),
        "naive_fluid_stable": float(naive_stable),
        "augmented_fluid_stable": float(aug_stable),
    }


def _e14_network(priority_a, priority_b):
    from repro.distributions import Exponential
    from repro.queueing.network import ClassConfig, QueueingNetwork, StationConfig

    classes = [
        ClassConfig(0, Exponential(3.0), arrival_rate=0.8, cost=1.0),
        ClassConfig(1, Exponential(2.0), arrival_rate=0.0, cost=2.0),
        ClassConfig(0, Exponential(2.5), arrival_rate=0.0, cost=4.0),
    ]
    routing = np.zeros((3, 3))
    routing[0, 1] = 1.0
    routing[1, 2] = 1.0
    return QueueingNetwork(
        classes,
        [
            StationConfig(discipline="priority", priority=tuple(priority_a)),
            StationConfig(discipline="priority", priority=tuple(priority_b)),
        ],
        routing,
    )


@PACK.scenario(
    "E14",
    title="Fluid-model heuristics rank MQN policies correctly",
    claim=(
        "Fluid-model heuristics guide good multiclass-queueing-network "
        "policies (Chen–Yao [11], Atkins–Chen [3]): fluid drain analysis "
        "predicts relative policy quality in the stochastic network."
    ),
    verdict=(
        "Reproduced: fluid drain analysis and stochastic simulation rank "
        "the candidate policies consistently."
    ),
    defaults={"horizon": 6000.0, "fluid_dt": 0.01, "fluid_horizon": 120.0},
    checks={
        "both_drain_finite": lambda m: m["drain_exit_first"] < np.inf
        and m["drain_entry_first"] < np.inf,
        "fluid_choice_wins_sim": lambda m: m["exit_vs_entry_cost"] <= 1.02,
    },
    tags=("queueing", "simulation", "fluid"),
)
def simulate_e14(ss: np.random.SeedSequence, params: Params) -> dict[str, float]:
    """One replication of E14: Fluid-model heuristics rank MQN policies correctly.

    Derives all randomness from ``ss`` and measures the metric
    dictionary the registry entry's shape checks are evaluated on.
    """
    from repro.queueing import FluidModel, fluid_drain_time, simulate_network

    horizon = float(params["horizon"])
    dt, fh = float(params["fluid_dt"]), float(params["fluid_horizon"])
    nets = {
        "exit_first": _e14_network((2, 0), (1,)),
        "entry_first": _e14_network((0, 2), (1,)),
    }
    drains, costs = {}, {}
    # CRN across the two candidate policies.
    for (name, net), rng in zip(nets.items(), crn_generators(ss, len(nets))):
        fm = FluidModel.from_network(net)
        drains[name] = fluid_drain_time(fm, [1, 1, 1], horizon=fh, dt=dt)
        costs[name] = simulate_network(net, horizon, rng).cost_rate
    return {
        "drain_exit_first": float(drains["exit_first"]),
        "drain_entry_first": float(drains["entry_first"]),
        "cost_exit_first": float(costs["exit_first"]),
        "cost_entry_first": float(costs["entry_first"]),
        "exit_vs_entry_cost": float(costs["exit_first"] / costs["entry_first"]),
    }


@PACK.scenario(
    "A2",
    title="Ablation: event-engine M/M/1 accuracy anchor",
    claim=(
        "Ablation: the discrete-event engine must reproduce the M/M/1 "
        "closed forms (L, Wq) within Monte-Carlo tolerance — the accuracy "
        "anchor under every queueing experiment."
    ),
    verdict="Simulator matches closed forms within Monte-Carlo tolerance.",
    defaults={"rho": 0.7, "horizon": 20000.0},
    checks={
        "queue_length_matches": lambda m: m["L_abs_rel_err"] < 0.1,
        "waiting_time_matches": lambda m: m["Wq_abs_rel_err"] < 0.1,
    },
    tags=("sim", "simulation", "ablation"),
)
def simulate_a2(ss: np.random.SeedSequence, params: Params) -> dict[str, float]:
    """One replication of A2: Ablation: event-engine M/M/1 accuracy anchor.

    Derives all randomness from ``ss`` and measures the metric
    dictionary the registry entry's shape checks are evaluated on.
    """
    from repro.distributions import Exponential
    from repro.queueing.mg1 import mm1_metrics
    from repro.queueing.network import (
        ClassConfig,
        QueueingNetwork,
        StationConfig,
        simulate_network,
    )

    rho = float(params["rho"])
    net = QueueingNetwork(
        [ClassConfig(0, Exponential(1.0), arrival_rate=rho)],
        [StationConfig(discipline="priority", priority=(0,))],
    )
    res = simulate_network(
        net, float(params["horizon"]), np.random.default_rng(ss)
    )
    theory = mm1_metrics(rho, 1.0)
    return {
        "L_sim": float(res.mean_queue_lengths[0]),
        "Wq_sim": float(res.mean_waits[0]),
        "L_abs_rel_err": float(abs(res.mean_queue_lengths[0] / theory["L"] - 1.0)),
        "Wq_abs_rel_err": float(abs(res.mean_waits[0] / theory["Wq"] - 1.0)),
    }


@PACK.scenario(
    "A3",
    title="Ablation: achievable-region LP route to the cµ rule",
    claim=(
        "Ablation: the achievable-region LP over the conservation-law "
        "polytope must land on the same priority rule and value as the "
        "interchange-argument/Cobham derivation of cµ."
    ),
    verdict=(
        "The LP reproduces the interchange-argument rule and value exactly "
        "at every class count tested."
    ),
    defaults={"n_classes": 5},
    checks={
        "lp_value_matches_cobham": lambda m: m["cost_rel_gap"] < 1e-7,
        "lp_order_matches_cmu": lambda m: m["orders_match"] == 1.0,
    },
    tags=("core", "exact", "ablation"),
)
def simulate_a3(ss: np.random.SeedSequence, params: Params) -> dict[str, float]:
    """One replication of A3: Ablation: achievable-region LP route to the cµ rule.

    Derives all randomness from ``ss`` and measures the metric
    dictionary the registry entry's shape checks are evaluated on.
    """
    from repro.core import achievable_region_lp
    from repro.distributions import Exponential
    from repro.queueing.mg1 import optimal_average_cost

    rng = np.random.default_rng(ss)
    n = int(params["n_classes"])
    lam = rng.uniform(0.02, 0.8 / n, size=n)
    svcs = [Exponential(rng.uniform(0.8, 3.0)) for _ in range(n)]
    ms = [s.mean for s in svcs]
    m2 = [s.second_moment for s in svcs]
    c = rng.uniform(0.3, 3.0, size=n)
    sol = achievable_region_lp(lam, ms, m2, c)
    exact, order = optimal_average_cost(lam, svcs, c)
    return {
        "lp_cost": float(sol.optimal_cost),
        "cost_rel_gap": float(abs(sol.optimal_cost / exact - 1.0)),
        "orders_match": float(list(sol.priority_order) == list(order)),
    }


# ---------------------------------------------------------------------------
# vectorized kernels
# ---------------------------------------------------------------------------


@PACK.kernel(
    "E10",
    mode="direct",
    note="each replication's CRN network simulations dominate the run; the "
    "cµ/Cobham/polytope analysis is too small a share to hoist",
)
def batch_e10(seeds: Seeds, params: Params) -> list[dict[str, float]]:
    """``direct`` kernel for E10: runs ``simulate_e10`` per replication."""
    return [simulate_e10(ss, params) for ss in seeds]


@PACK.kernel(
    "E11",
    mode="direct",
    note="each replication's six CRN network simulations dominate the run; "
    "the Klimov index analysis is too small a share to hoist",
)
def batch_e11(seeds: Seeds, params: Params) -> list[dict[str, float]]:
    """``direct`` kernel for E11: runs ``simulate_e11`` per replication."""
    return [simulate_e11(ss, params) for ss in seeds]


@PACK.kernel(
    "E12",
    mode="direct",
    note="each replication's rho sweep of M/M/m simulations dominates the "
    "run; the pooled lower bounds are too small a share to hoist",
)
def batch_e12(seeds: Seeds, params: Params) -> list[dict[str, float]]:
    """``direct`` kernel for E12: runs ``simulate_e12`` per replication."""
    return [simulate_e12(ss, params) for ss in seeds]


@PACK.kernel(
    "E13",
    mode="cached",
    note="both deterministic fluid-stability integrations and the three "
    "network constructions are done once for the batch; the stochastic "
    "sample paths call simulate_network as the event path does",
)
def batch_e13(seeds: Seeds, params: Params) -> list[dict[str, float]]:
    """``cached`` kernel for E13: computes the fluid-stability integrations once per batch;
    bit-for-bit equal to ``simulate_e13`` on the same seeds.
    """
    from repro.queueing import (
        FluidModel,
        is_fluid_stable,
        rybko_stolyar_network,
        simulate_network,
        virtual_station_load,
    )

    horizon = float(params["horizon"])
    dt, fh = float(params["fluid_dt"]), float(params["fluid_horizon"])
    bad = rybko_stolyar_network(1.0, 0.1, 0.6, priority_to_exit=True)
    fifo = rybko_stolyar_network(1.0, 0.1, 0.6, priority_to_exit=False)
    safe = rybko_stolyar_network(1.0, 0.1, 0.4, priority_to_exit=True)

    spawned = [np.random.default_rng(ss).spawn(3) for ss in seeds]
    res_bad = [simulate_network(bad, horizon, g[0]) for g in spawned]
    res_fifo = [simulate_network(fifo, horizon, g[1]) for g in spawned]
    res_safe = [simulate_network(safe, horizon, g[2]) for g in spawned]

    naive_stable = float(is_fluid_stable(FluidModel.from_network(bad), horizon=fh, dt=dt))
    aug_stable = float(
        is_fluid_stable(
            FluidModel.from_network(bad, virtual_stations=((1, 3),)), horizon=fh, dt=dt
        )
    )
    v_load = float(virtual_station_load(bad))
    rows = []
    for r in range(len(seeds)):
        rows.append(
            {
                "bad_backlog": float(res_bad[r].final_backlog),
                "fifo_backlog": float(res_fifo[r].final_backlog),
                "safe_backlog": float(res_safe[r].final_backlog),
                "instability_ratio": float(
                    res_bad[r].final_backlog / max(res_fifo[r].final_backlog, 1.0)
                ),
                "virtual_load_bad": v_load,
                "naive_fluid_stable": naive_stable,
                "augmented_fluid_stable": aug_stable,
            }
        )
    return rows


@PACK.kernel(
    "E14",
    mode="cached",
    note="the deterministic fluid drain analysis (each policy's allocation "
    "LPs and Euler integration) is computed once for the batch; the CRN "
    "policy comparison calls simulate_network as the event path does",
)
def batch_e14(seeds: Seeds, params: Params) -> list[dict[str, float]]:
    """``cached`` kernel for E14: computes the fluid drain integrations once per batch;
    bit-for-bit equal to ``simulate_e14`` on the same seeds.
    """
    from repro.queueing import FluidModel, fluid_drain_time, simulate_network

    horizon = float(params["horizon"])
    dt, fh = float(params["fluid_dt"]), float(params["fluid_horizon"])
    nets = {
        "exit_first": _e14_network((2, 0), (1,)),
        "entry_first": _e14_network((0, 2), (1,)),
    }
    drains = {
        name: float(fluid_drain_time(FluidModel.from_network(net), [1, 1, 1], horizon=fh, dt=dt))
        for name, net in nets.items()
    }
    costs = {}
    for (name, net), rngs in zip(nets.items(), _crn_batches(seeds, len(nets))):
        costs[name] = [simulate_network(net, horizon, rng).cost_rate for rng in rngs]
    rows = []
    for r in range(len(seeds)):
        rows.append(
            {
                "drain_exit_first": drains["exit_first"],
                "drain_entry_first": drains["entry_first"],
                "cost_exit_first": float(costs["exit_first"][r]),
                "cost_entry_first": float(costs["entry_first"][r]),
                "exit_vs_entry_cost": float(
                    costs["exit_first"][r] / costs["entry_first"][r]
                ),
            }
        )
    return rows


@PACK.kernel(
    "A2",
    mode="direct",
    note="the M/M/1 sample path dominates the run; the closed forms are too "
    "small a share to hoist",
)
def batch_a2(seeds: Seeds, params: Params) -> list[dict[str, float]]:
    """``direct`` kernel for A2: runs ``simulate_a2`` per replication."""
    return [simulate_a2(ss, params) for ss in seeds]


@PACK.kernel(
    "A3",
    mode="batched",
    note="the polymatroid constraint assembly and the 120-permutation "
    "Cobham vertex scan are batched across replications; each "
    "replication's LP keeps its own exact HiGHS solve",
)
def batch_a3(seeds: Seeds, params: Params) -> list[dict[str, float]]:
    """``batched`` kernel for A3: runs all replications at once on arrays with a replication axis;
    bit-for-bit equal to ``simulate_a3`` on the same seeds.
    """
    from scipy.optimize import linprog

    from repro.distributions import Exponential
    from repro.queueing.mg1 import optimal_average_cost

    n = int(params["n_classes"])
    N = len(seeds)
    lam = np.empty((N, n))
    mus = np.empty((N, n))
    c = np.empty((N, n))
    for r, ss in enumerate(seeds):
        rng = np.random.default_rng(ss)
        lam[r] = rng.uniform(0.02, 0.8 / n, size=n)
        # the event path draws each service rate with its own scalar call
        mus[r] = [rng.uniform(0.8, 3.0) for _ in range(n)]
        c[r] = rng.uniform(0.3, 3.0, size=n)
    svcs = [[Exponential(mus[r, j]) for j in range(n)] for r in range(N)]
    ms = 1.0 / mus  # Exponential.mean
    m2 = np.stack(
        [[s.second_moment for s in row] for row in svcs]
    )  # base-class 2/rate^2 route, computed identically per class
    rho = lam * ms

    # batched workload set function b(S) for every proper subset + full set
    def b_of(S: list[int]) -> np.ndarray:
        rhoS = rho[:, S].sum(axis=1)
        w0_full = (lam * m2).sum(axis=1) / 2.0
        w0S = (lam[:, S] * m2[:, S]).sum(axis=1) / 2.0
        return rhoS * (w0_full / (1.0 - rhoS)) + w0S

    subsets = [
        list(S)
        for r_ in range(1, n)
        for S in itertools.combinations(range(n), r_)
    ]
    A_ub = np.zeros((len(subsets), n))
    for i, S in enumerate(subsets):
        A_ub[i, S] = -1.0
    b_ub_all = np.stack([-b_of(S) for S in subsets], axis=1)  # (N, n_subsets)
    b_eq_all = b_of(list(range(n)))
    A_eq = np.ones((1, n))
    coeff = c / ms

    x = np.empty((N, n))
    for r in range(N):
        res = linprog(
            coeff[r],
            A_ub=A_ub,
            b_ub=b_ub_all[r],
            A_eq=A_eq,
            b_eq=np.array([b_eq_all[r]]),
            bounds=[(0, None)] * n,
            method="highs",
        )
        if not res.success:
            raise RuntimeError(f"achievable-region LP failed: {res.message}")
        x[r] = np.asarray(res.x)
    W = (x - lam * m2 / 2.0) / np.where(rho > 0, rho, 1.0)
    lp_cost = np.empty(N)
    for r in range(N):
        lp_cost[r] = np.dot(c[r], lam[r] * (W[r] + ms[r]))

    # batched Cobham vertex identification over all permutations
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    w0 = (lam * m2).sum(axis=1) / 2.0  # same np.sum reduction as the scalar path
    waits = np.empty((N, len(perms), n))
    sigma_prev = np.zeros((N, len(perms)))
    for pos in range(n):
        cls = perms[:, pos]  # (n_perms,)
        rho_cls = rho[:, cls]  # (N, n_perms)
        sigma_k = sigma_prev + rho_cls
        vals = w0[:, None] / ((1.0 - sigma_prev) * (1.0 - sigma_k))
        np.put_along_axis(
            waits, np.broadcast_to(cls[None, :, None], (N, len(perms), 1)),
            vals[:, :, None], axis=2
        )
        sigma_prev = sigma_k
    errs = np.max(np.abs(waits - W[:, None, :]), axis=2)
    best_idx = np.argmin(errs, axis=1)  # first minimum, like the strict < scan

    rows = []
    for r, ss in enumerate(seeds):
        exact, order = optimal_average_cost(lam[r], svcs[r], c[r])
        sol_order = [int(j) for j in perms[best_idx[r]]]
        rows.append(
            {
                "lp_cost": float(lp_cost[r]),
                "cost_rel_gap": float(abs(lp_cost[r] / exact - 1.0)),
                "orders_match": float(sol_order == list(order)),
            }
        )
    return rows
