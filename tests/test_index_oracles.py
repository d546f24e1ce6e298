"""The stacked, blocked and list-based index computations, and E16's
broadcast tree draw and insertion-sorted makespan simulation, against the
one-at-a-time loops they replaced (``tests/index_oracles.py``).

Golden statistics compare at ``RTOL = 1e-9`` and A1/A3 have no perfbench
pin, so these properties are the exact guard: every result must be
``==`` its oracle's. The block sizes are patched small so that several
blocks run at sizes the oracles finish quickly, and the speculation depth
of the Whittle and Lagrangian searches is varied around its default.
The block-drawn E8 fleet rollouts are checked against the event path,
which draws once per epoch.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from index_oracles import (
    oracle_bisect,
    oracle_closest_priority_order,
    oracle_dual_minimum,
    oracle_gittins_indices_restart,
    oracle_random_intree,
    oracle_simulate_e7,
    oracle_simulate_e9,
    oracle_simulate_e19,
    oracle_simulate_heterogeneous_restless,
    oracle_simulate_intree_makespan,
)
from repro.bandits import (
    ProjectIndexTables,
    gittins_indices_restart,
    random_project,
    random_restless_project,
    relaxation_bounds_and_indices,
    simulate_heterogeneous_restless,
    simulate_restless,
    whittle_index_tables,
)
from repro.bandits import gittins as gittins_module
from repro.bandits import heterogeneous as heterogeneous_module
from repro.bandits import restless as restless_module
from repro.batch import random_intree, simulate_intree_makespan
from repro.batch.precedence import hlf_policy, random_policy
from repro.core import achievable_region as region_module
from repro.core import achievable_region_lp
from repro.experiments import get_scenario
from repro.experiments.registry import get_kernel
from repro.experiments.packs import restless as restless_pack
from repro.sim import vectorized

_SETTINGS = settings(
    max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
_SEED = st.integers(0, 2**32 - 1)


def _bits(row: dict) -> dict:
    # `==` would pass 0.0 == -0.0 and fail NaN == NaN
    return {k: np.float64(v).tobytes() for k, v in row.items()}


@_SETTINGS
@given(
    seed=_SEED,
    n=st.integers(1, 12),
    beta=st.floats(0.0, 0.95),
    tol=st.sampled_from([1e-12, 1e-11, 1e-6]),
    max_iter=st.sampled_from([3, 200_000]),
    block=st.sampled_from([1, 20, gittins_module._RESTART_BLOCK]),
)
def test_restart_gittins_equals_per_state_value_iteration(seed, n, beta, tol, max_iter, block):
    # max_iter=3 stops rows unconverged; block=1 and 20 split the restart
    # states into one or a few per block
    project = random_project(n, np.random.default_rng(seed))
    with mock.patch.object(gittins_module, "_RESTART_BLOCK", block):
        got = gittins_indices_restart(project, beta, tol=tol, max_iter=max_iter)
    want = oracle_gittins_indices_restart(project, beta, tol=tol, max_iter=max_iter)
    assert got.tobytes() == want.tobytes()


def _classes(seed: int, n: int, copies: int):
    # A3's instance draw; `copies` repeats the first class so that several
    # priority orders tie exactly
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.02, 0.8 / n, size=n)
    mus = rng.uniform(0.8, 3.0, size=n)
    lam[:copies] = lam[0]
    mus[:copies] = mus[0]
    ms = 1.0 / mus
    m2 = 2.0 / mus**2
    return lam, ms, m2, rng.uniform(0.3, 3.0, size=n)


@_SETTINGS
@given(
    seed=_SEED,
    n=st.integers(1, 6),
    copies=st.integers(1, 3),
    block=st.sampled_from([1, 40, region_module._ORDER_BLOCK]),
    noise=st.sampled_from([0.0, 1e-3, 1.0]),
)
def test_vertex_scan_equals_permutation_loop(seed, n, copies, block, noise):
    lam, ms, m2, c = _classes(seed, n, min(copies, n))
    with mock.patch.object(region_module, "_ORDER_BLOCK", block):
        sol = achievable_region_lp(lam, ms, m2, c)
        W = sol.waiting_times * (1.0 + noise * np.random.default_rng(seed).random(n))
        got = region_module._closest_priority_order(lam, m2, lam * ms, W)
    assert sol.priority_order == oracle_closest_priority_order(
        lam, ms, m2, sol.waiting_times
    )
    assert got == oracle_closest_priority_order(lam, ms, m2, W)


def test_vertex_scan_at_a_size_the_default_block_splits():
    lam, ms, m2, c = _classes(3, 8, 2)
    sol = achievable_region_lp(lam, ms, m2, c)
    assert sol.priority_order == oracle_closest_priority_order(
        lam, ms, m2, sol.waiting_times
    )


@_SETTINGS
@given(
    seed=_SEED,
    n_projects=st.integers(1, 5),
    n_states=st.integers(2, 4),
    m=st.integers(0, 5),
    horizon=st.integers(1, 60),
    warmup=st.integers(0, 59),
    tied=st.booleans(),
)
def test_list_rollout_equals_searchsorted_rollout(
    seed, n_projects, n_states, m, horizon, warmup, tied
):
    rng = np.random.default_rng(seed)
    projects = [random_restless_project(n_states, rng) for _ in range(n_projects)]
    # small integer indices tie often, so the lowest-id tie break matters
    tables = (
        rng.integers(0, 2, size=(n_projects, n_states)).astype(float)
        if tied
        else rng.normal(size=(n_projects, n_states))
    )
    rule = ProjectIndexTables(tables, "tables")
    m = min(m, n_projects)
    warmup = min(warmup, horizon - 1)
    a, b = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    got = simulate_heterogeneous_restless(projects, m, rule, horizon, a, warmup=warmup)
    want = oracle_simulate_heterogeneous_restless(
        projects, m, rule, horizon, b, warmup=warmup
    )
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    # the same draws were consumed
    assert a.random() == b.random()


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=_SEED,
    n_projects=st.integers(1, 3),
    n_states=st.integers(2, 3),
    beta=st.floats(0.0, 0.95),
    cost=st.sampled_from([0.0, 0.3, 1.0, 5.0]),
)
def test_one_build_e9_equals_three_build_path(seed, n_projects, n_states, beta, cost):
    params = get_scenario("E9").params(
        {"n_projects": n_projects, "n_states": n_states, "beta": beta, "cost": cost}
    )
    ss = np.random.SeedSequence(seed)
    assert _bits(get_scenario("E9").simulate(ss, params)) == _bits(
        oracle_simulate_e9(ss, params)
    )


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=_SEED,
    n_projects=st.integers(1, 3),
    n_states=st.integers(2, 4),
    beta=st.floats(0.0, 0.95),
)
def test_one_build_e7_equals_three_build_path(seed, n_projects, n_states, beta):
    params = get_scenario("E7").params(
        {"n_projects": n_projects, "n_states": n_states, "beta": beta}
    )
    ss = np.random.SeedSequence(seed)
    assert _bits(get_scenario("E7").simulate(ss, params)) == _bits(
        oracle_simulate_e7(ss, params)
    )


@_SETTINGS
@given(seed=_SEED, n=st.integers(0, 400))
def test_broadcast_intree_equals_per_job_draws(seed, n):
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = random_intree(n, a), oracle_random_intree(n, b)
    assert got.parent.tobytes() == want.parent.tobytes()
    assert got.levels().tobytes() == want.levels().tobytes()
    assert a.bit_generator.state == b.bit_generator.state


@_SETTINGS
@given(
    seed=_SEED,
    n=st.integers(1, 200),
    m=st.integers(1, 6),
    policy=st.sampled_from(["hlf", "random"]),
)
def test_insorted_intree_makespan_equals_sorted_per_step(seed, n, m, policy):
    tree = random_intree(n, seed)
    # one generator for service times and one for the random policy's
    # decisions, as E16 draws them
    runs = []
    for simulate in (simulate_intree_makespan, oracle_simulate_intree_makespan):
        rng = np.random.default_rng(seed + 1)
        decide = np.random.default_rng(seed + 2)
        choose = hlf_policy(tree) if policy == "hlf" else random_policy(decide)
        t = simulate(tree, m, 1.0, choose, rng)
        states = (rng.bit_generator.state, decide.bit_generator.state)
        runs.append((np.float64(t).tobytes(), states))
    assert runs[0] == runs[1]


@settings(max_examples=4, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=_SEED,
    n_projects=st.integers(1, 3),
    n_states=st.integers(2, 3),
    m=st.integers(1, 3),
)
def test_one_run_e19_equals_bound_and_tables_solved_apart(seed, n_projects, n_states, m):
    params = get_scenario("E19").params(
        {
            "n_projects": n_projects,
            "n_states": n_states,
            "m": min(m, n_projects),
            "horizon": 60,
            "warmup": 6,
        }
    )
    # a fresh SeedSequence per call: rng.spawn advances the one it is given
    assert _bits(get_scenario("E19").simulate(np.random.SeedSequence(seed), params)) == _bits(
        oracle_simulate_e19(np.random.SeedSequence(seed), params)
    )


def _one_step_per_round():
    return (
        mock.patch.object(restless_module, "_bisect", oracle_bisect),
        mock.patch.object(heterogeneous_module, "_dual_minimum", oracle_dual_minimum),
    )


@_SETTINGS
@given(
    seed=_SEED,
    n_projects=st.integers(2, 6),
    n_states=st.integers(2, 5),
    m=st.integers(1, 5),
    depth=st.sampled_from([1, 2, restless_module._SPECULATION, 4]),
)
def test_speculating_searches_equal_one_step_per_round(seed, n_projects, n_states, m, depth):
    rng = np.random.default_rng(seed)
    projects = [random_restless_project(n_states, rng) for _ in range(n_projects)]
    m = min(m, n_projects - 1)
    with mock.patch.object(restless_module, "_SPECULATION", depth):
        (bound, lam_star), tables = relaxation_bounds_and_indices(projects, m)
    bisect, dual_minimum = _one_step_per_round()
    with bisect, dual_minimum:
        (want_bound, want_lam), want = relaxation_bounds_and_indices(projects, m)
    assert _bits({"bound": bound, "lam": lam_star}) == _bits(
        {"bound": want_bound, "lam": want_lam}
    )
    assert [t.tobytes() for t in tables] == [t.tobytes() for t in want]


@pytest.mark.parametrize("criterion", ["average", "discounted"])
def test_speculating_bisection_on_the_e8_project(criterion):
    project = restless_pack._e8_project()
    got = whittle_index_tables([project], criterion=criterion)
    bisect, _ = _one_step_per_round()
    with bisect:
        want = whittle_index_tables([project], criterion=criterion)
    assert got[0].tobytes() == want[0].tobytes()


# (fleet size, active, horizon, warmup, draw block in values): a block of
# one epoch, blocks that do not divide the horizon, a block smaller than
# one epoch's draws (rounded up to one epoch), and the default
_ROLLOUTS = [
    (5, 2, 23, 4, 5),
    (5, 2, 23, 4, 20),
    (5, 2, 23, 4, 23),
    (4, 0, 10, 0, 3),
    (3, 3, 12, 11, 3 * 12),
    (6, 2, 40, 5, vectorized._DRAW_BLOCK),
]


@pytest.mark.parametrize("n, m, horizon, warmup, block", _ROLLOUTS)
def test_block_drawn_rollouts_equal_per_epoch_draws(n, m, horizon, warmup, block):
    project = random_restless_project(4, np.random.default_rng(n + m))
    table = np.random.default_rng(horizon).integers(0, 2, size=4).astype(float)
    seeds = [np.random.SeedSequence(r) for r in range(3)]
    gens = [np.random.default_rng(ss) for ss in seeds]
    with mock.patch.object(vectorized, "_DRAW_BLOCK", block):
        got = vectorized.lockstep_restless_rollouts(
            np.cumsum(project.P0, axis=1),
            np.cumsum(project.P1, axis=1),
            project.R0,
            project.R1,
            table,
            n,
            m,
            horizon,
            gens,
            warmup=warmup,
        )
    rule = ProjectIndexTables([table], "tables")
    for r, ss in enumerate(seeds):
        event = np.random.default_rng(ss)
        want = simulate_restless(project, n, m, rule, horizon, event, warmup=warmup)
        assert np.float64(got[r]).tobytes() == np.float64(want).tobytes()
        # no more and no fewer draws than one per project and epoch
        assert gens[r].random() == event.random()


def test_cached_e8_analysis_cannot_be_changed_by_a_caller():
    sc = get_scenario("E8")
    params = sc.params({"horizon": 60, "warmup": 6, "fleet_sizes": (5, 10)})
    restless_pack._e8_analysis.cache_clear()
    first = sc.simulate(np.random.SeedSequence(1), params)
    analysis = restless_pack._e8_analysis(float(params["alpha"]))
    bound, whittle, myopic = analysis
    for table in (whittle, myopic):
        with pytest.raises(TypeError):
            table[0] = 1e9
    # what the kernels build from the tables are their own copies
    rows = get_kernel("E8").fn([np.random.SeedSequence(1)], params)
    assert restless_pack._e8_analysis(float(params["alpha"])) == analysis
    assert _bits(rows[0]) == _bits(first)
    assert _bits(sc.simulate(np.random.SeedSequence(1), params)) == _bits(first)
