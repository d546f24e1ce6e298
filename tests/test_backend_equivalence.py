"""Cross-backend equivalence harness.

The vectorized kernels promise *bit-for-bit* agreement with the
event-driven backend: fed the same spawned seed sequences, every kernel
must return exactly the per-replication metric dictionaries the
scenario's ``simulate`` function returns — same keys, identical floats.
These tests enforce that promise for every registered kernel, through
both the raw kernel interface and the runner, plus property-based tests
that randomise the scenario parameters of the single-machine,
parallel-machine, heavy-traffic (E12) and polling (E15) kernels and
the E13/E14 fluid memos.  The
queueing engines themselves (``simulate_network`` and
``PollingSystem.simulate``) are checked bit-for-bit against the
heap-calendar oracles in ``tests/queueing_oracles.py`` over randomised
networks and polling systems.

A failure here means a kernel (or a platform's numpy) broke one of the
bitwise-equality rules documented in :mod:`repro.sim.vectorized` — the
vectorized backend must then not be trusted until fixed.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.experiments import kernel_ids, run_scenario, scenario_ids
from repro.experiments.runner import (
    MissingKernelError,
    resolve_backend,
    simulate_scenario_batch,
)
from repro.experiments.registry import KERNEL_MODES, get_kernel, get_scenario
from repro.utils.rng import spawn_seed_sequences

# parameter overrides that shrink the slow scenarios so the exhaustive
# equivalence sweep stays fast; equivalence must hold for any parameters
FAST_PARAMS: dict[str, dict] = {
    "E2": {"n_quanta": 6},
    "E6": {"ns": (3, 5)},
    "E7": {"algo_states": 5},
    "E8": {"horizon": 80, "warmup": 10, "fleet_sizes": (5, 9)},
    "E10": {"horizon": 300.0},
    "E11": {"horizon": 250.0},
    "E12": {"horizon": 300.0, "rhos": (0.6, 0.8)},
    "E13": {"horizon": 200.0, "fluid_horizon": 10.0},
    "E14": {"horizon": 300.0, "fluid_horizon": 30.0},
    "E15": {"horizon": 800.0},
    "E16": {"sizes": (8, 15)},
    "E19": {"horizon": 60, "warmup": 10},
    "A2": {"horizon": 800.0},
}

REPLICATIONS = 3


def assert_rows_identical(event_rows, vec_rows, context=""):
    """Exact equality of per-replication metric dictionaries."""
    assert len(event_rows) == len(vec_rows), context
    for r, (ev, vec) in enumerate(zip(event_rows, vec_rows)):
        assert set(ev) == set(vec), f"{context} rep {r}: metric keys differ"
        for key in ev:
            a, b = ev[key], vec[key]
            if math.isnan(a) and math.isnan(b):
                continue
            assert a == b, (
                f"{context} rep {r} metric {key!r}: event={a!r} vectorized={b!r}"
            )


@pytest.mark.parametrize("sid", kernel_ids())
def test_kernel_matches_event_backend_bitwise(sid):
    sc = get_scenario(sid)
    params = sc.params(FAST_PARAMS.get(sid))
    event_rows = [sc.simulate(ss, params) for ss in spawn_seed_sequences(101, REPLICATIONS)]
    vec_rows = simulate_scenario_batch(
        sid, spawn_seed_sequences(101, REPLICATIONS), params
    )
    assert_rows_identical(event_rows, vec_rows, context=sid)


@pytest.mark.parametrize("sid", ["E1", "E4", "E8", "E13", "E15", "E16"])
def test_runner_samples_identical_across_backends(sid):
    kwargs = dict(
        replications=REPLICATIONS, seed=11, workers=1, params=FAST_PARAMS.get(sid)
    )
    ev = run_scenario(sid, backend="event", **kwargs)
    vec = run_scenario(sid, backend="vectorized", **kwargs)
    assert ev.backend == "event" and vec.backend == "vectorized"
    assert ev.samples == vec.samples
    assert ev.means() == vec.means()
    assert ev.checks == vec.checks


def test_auto_backend_picks_kernel_and_vectorized_is_strict():
    assert resolve_backend("E1", "auto") == "vectorized"
    assert resolve_backend("E1", "event") == "event"
    # a scenario without a kernel: auto silently falls back, an explicit
    # vectorized request is an error naming the scenario
    assert resolve_backend("X99", "auto") == "event"
    with pytest.raises(MissingKernelError, match="X99"):
        resolve_backend("X99", "vectorized")
    with pytest.raises(ValueError):
        resolve_backend("E1", "warp-speed")


def test_vectorized_request_for_adhoc_scenario_errors():
    from repro.experiments.registry import Scenario

    sc = Scenario(
        scenario_id="ADHOC",
        title="ad-hoc",
        claim="-",
        verdict="-",
        simulate=lambda ss, params: {"x": 0.0},
        defaults={},
        checks={},
    )
    with pytest.raises(MissingKernelError, match="ADHOC"):
        run_scenario(sc, replications=1, seed=0, workers=1, backend="vectorized")
    # auto still falls back to the event engine for ad-hoc scenarios
    res = run_scenario(sc, replications=1, seed=0, workers=1, backend="auto")
    assert res.backend == "event"


def test_every_kernel_id_is_a_registered_scenario():
    # (the converse — every registered scenario has a kernel — is the
    # coverage guard in tests/test_benchmark_coverage.py)
    registered = set(scenario_ids())
    for sid in kernel_ids():
        assert sid in registered
        assert get_kernel(sid).mode in KERNEL_MODES


def test_vectorized_chunking_cannot_change_results():
    # one kernel call over all seeds == two kernel calls over a split —
    # each replication consumes only its own seed's streams
    sc = get_scenario("E3")
    params = sc.params()
    seeds = spawn_seed_sequences(5, 6)
    whole = simulate_scenario_batch("E3", seeds, params)
    split = simulate_scenario_batch("E3", seeds[:2], params) + simulate_scenario_batch(
        "E3", seeds[2:], params
    )
    assert_rows_identical(whole, split, context="chunking")


def test_vectorized_backend_worker_count_invariance():
    one = run_scenario("E4", replications=6, seed=9, workers=1, backend="vectorized")
    two = run_scenario("E4", replications=6, seed=9, workers=2, backend="vectorized")
    assert one.samples == two.samples


# ---------------------------------------------------------------------------
# Property-based equivalence over randomised scenario parameters
# ---------------------------------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_PROPERTY_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.mark.parametrize("n", [1, 2, 5, 8])
@pytest.mark.parametrize("max_elements", [1 << 20, 50])
def test_batched_brute_force_matches_the_event_path(n, max_elements):
    # the batched prefix-tree minimum over all n! sequences is bitwise the
    # event path's, with one block or with many small ones
    from repro.batch import Job, brute_force_optimal_sequence
    from repro.distributions import Deterministic
    from repro.sim.vectorized import min_flowtime_over_permutations

    rng = np.random.default_rng(n)
    means = rng.uniform(0.1, 10.0, (3, n))
    weights = rng.uniform(0.1, 5.0, (3, n))
    expected = [
        brute_force_optimal_sequence(
            [Job(j, Deterministic(m), w) for j, (m, w) in enumerate(zip(ms, ws))]
        )[1]
        for ms, ws in zip(means, weights)
    ]
    got = min_flowtime_over_permutations(means, weights, max_elements=max_elements)
    assert got.tolist() == expected


@_PROPERTY_SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_brute=st.integers(min_value=2, max_value=6),
    n_jobs=st.integers(min_value=2, max_value=40),
)
def test_property_single_machine_kernel_equivalence(seed, n_brute, n_jobs):
    sc = get_scenario("E1")
    params = sc.params({"n_brute": n_brute, "n_jobs": n_jobs})
    event_rows = [sc.simulate(ss, params) for ss in spawn_seed_sequences(seed, 2)]
    vec_rows = simulate_scenario_batch("E1", spawn_seed_sequences(seed, 2), params)
    assert_rows_identical(event_rows, vec_rows, context=f"E1 seed={seed}")


@_PROPERTY_SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_jobs=st.integers(min_value=2, max_value=7),
    m=st.integers(min_value=1, max_value=3),
    lo=st.floats(min_value=0.05, max_value=1.0),
    width=st.floats(min_value=0.1, max_value=4.0),
    sid=st.sampled_from(["E3", "E4"]),
)
def test_property_parallel_machine_kernel_equivalence(seed, n_jobs, m, lo, width, sid):
    sc = get_scenario(sid)
    params = sc.params({"n_jobs": n_jobs, "m": m, "rate_range": (lo, lo + width)})
    event_rows = [sc.simulate(ss, params) for ss in spawn_seed_sequences(seed, 2)]
    vec_rows = simulate_scenario_batch(sid, spawn_seed_sequences(seed, 2), params)
    assert_rows_identical(event_rows, vec_rows, context=f"{sid} seed={seed}")


@_PROPERTY_SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    rho_lo=st.floats(min_value=0.3, max_value=0.7),
    rho_step=st.floats(min_value=0.05, max_value=0.25),
    horizon=st.floats(min_value=50.0, max_value=300.0),
)
def test_property_heavy_traffic_kernel_equivalence(seed, rho_lo, rho_step, horizon):
    # randomised traffic intensities: the lockstep M/M/m engine must track
    # the event engine draw-for-draw across the whole rho sweep
    sc = get_scenario("E12")
    params = sc.params(
        {"rhos": (rho_lo, min(rho_lo + rho_step, 0.95)), "horizon": horizon}
    )
    event_rows = [sc.simulate(ss, params) for ss in spawn_seed_sequences(seed, 2)]
    vec_rows = simulate_scenario_batch("E12", spawn_seed_sequences(seed, 2), params)
    assert_rows_identical(event_rows, vec_rows, context=f"E12 seed={seed}")


@_PROPERTY_SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    # short is either exactly zero (exercising the zero-switchover idle
    # rule) or bounded away from it: a tiny-but-positive deterministic
    # switchover forces *both* backends to tick ~horizon/switchover empty
    # cycles — an inherent property of the model, not a backend difference
    short=st.one_of(st.just(0.0), st.floats(min_value=0.02, max_value=0.3)),
    extra=st.floats(min_value=0.05, max_value=0.5),
    horizon=st.floats(min_value=100.0, max_value=1500.0),
)
def test_property_polling_kernel_equivalence(seed, short, extra, horizon):
    # randomised switchover times, *including exactly zero* — the kernel
    # must reproduce the polling engine's zero-switchover idle rule
    sc = get_scenario("E15")
    params = sc.params(
        {"switchover_means": (short, short + extra), "horizon": horizon}
    )
    event_rows = [sc.simulate(ss, params) for ss in spawn_seed_sequences(seed, 2)]
    vec_rows = simulate_scenario_batch("E15", spawn_seed_sequences(seed, 2), params)
    assert_rows_identical(event_rows, vec_rows, context=f"E15 seed={seed}")


@_PROPERTY_SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    policy=st.sampled_from(["exhaustive", "gated", "limited"]),
    horizon=st.floats(min_value=100.0, max_value=1500.0),
    data=st.data(),
)
def test_property_polling_engine_equivalence(seed, policy, horizon, data):
    # engine-level coverage beyond E15: Erlang services and exponential or
    # exactly-zero switchovers take the scalar-draw source, exponential
    # services with deterministic switchovers the pre-drawn blocks —
    # PollingSystem.simulate must match the pending-list oracle either way.
    # Two to four queues, one of which may never see an arrival, and
    # switchovers up to 2.0, so that most visits find their queue empty.
    from queueing_oracles import oracle_polling_simulate

    from repro.distributions import Deterministic, Erlang, Exponential
    from repro.queueing import PollingSystem

    n = data.draw(st.integers(2, 4), label="n_queues")
    # rates up to 0.6 / n keep the load below 1/2 for every service drawn
    lam = [data.draw(st.floats(0.05, 0.6 / n), label=f"lam{i}") for i in range(n)]
    silent = data.draw(st.one_of(st.none(), st.integers(0, n - 1)), label="silent")
    if silent is not None:
        lam[silent] = 0.0
    services = []
    for i in range(n):
        rate = data.draw(st.floats(1.2, 3.0), label=f"rate{i}")
        if data.draw(st.booleans(), label=f"erlang{i}"):
            services.append(Erlang(2, 2.0 * rate))
        else:
            services.append(Exponential(rate))
    # switchovers: all exactly zero (the idle rule), deterministic and
    # bounded away from zero, or exponential
    kind = data.draw(st.sampled_from(["zero", "det", "exp"]), label="switchover")
    if kind == "zero":
        switchovers = [Deterministic(0.0)] * n
    elif kind == "det":
        switchovers = [
            Deterministic(data.draw(st.floats(0.02, 2.0), label=f"sw{i}"))
            for i in range(n)
        ]
    else:
        switchovers = [
            Exponential(data.draw(st.floats(2.0, 50.0), label=f"sw{i}"))
            for i in range(n)
        ]
    system = PollingSystem(lam, services, switchovers, policy)
    rng_oracle, rng_engine = np.random.default_rng(seed), np.random.default_rng(seed)
    ev = oracle_polling_simulate(system, horizon, rng_oracle)
    vec = system.simulate(horizon, rng_engine)
    ctx = f"polling seed={seed} {policy} {kind}"
    np.testing.assert_array_equal(ev.mean_waits, vec.mean_waits, err_msg=ctx)
    np.testing.assert_array_equal(ev.served, vec.served, err_msg=ctx)
    assert ev.cycle_time == vec.cycle_time or (
        math.isnan(ev.cycle_time) and math.isnan(vec.cycle_time)
    ), ctx
    assert ev.weighted_wait_sum == vec.weighted_wait_sum, ctx
    if kind == "exp" or any(type(s) is Erlang for s in services):
        # scalar draws: the generator ends exactly where the oracle's does
        assert rng_oracle.bit_generator.state == rng_engine.bit_generator.state


def test_e15_polling_cases_take_the_block_draw_path():
    # E15's systems (exponential services, deterministic switchovers) must
    # serve their service times from pre-drawn standard-exponential
    # blocks, the engine's fast draw source: the numbers equal the
    # oracle's scalar draws, but the generator ends ahead of the oracle's
    from queueing_oracles import oracle_polling_simulate

    from repro.distributions import Deterministic, Exponential
    from repro.queueing import PollingSystem

    for policy in ("exhaustive", "gated", "limited"):
        system = PollingSystem(
            [0.3, 0.2],
            [Exponential(2.0), Exponential(1.5)],
            [Deterministic(0.1), Deterministic(0.1)],
            policy,
        )
        rng_oracle, rng_engine = np.random.default_rng(5), np.random.default_rng(5)
        ev = oracle_polling_simulate(system, 800.0, rng_oracle)
        vec = system.simulate(800.0, rng_engine)
        assert ev.weighted_wait_sum == vec.weighted_wait_sum, policy
        assert rng_oracle.bit_generator.state != rng_engine.bit_generator.state, policy


@_PROPERTY_SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    horizon=st.floats(min_value=50.0, max_value=250.0),
    fluid_horizons=st.tuples(st.floats(1.0, 12.0), st.floats(1.0, 12.0)),
    fluid_dts=st.tuples(st.floats(0.02, 0.2), st.floats(0.02, 0.2)),
    sid=st.sampled_from(["E13", "E14"]),
)
def test_property_network_scenario_kernel_equivalence(
    seed, horizon, fluid_horizons, fluid_dts, sid
):
    # E13/E14 memoise their seed-free fluid analysis on (fluid_horizon,
    # fluid_dt). Rows from a memo warmed by points sharing one coordinate
    # must equal rows from a cleared memo, so a memo keyed on one
    # coordinate only (or holding a stale value) fails here
    from repro.experiments.packs.queueing import _e13_fluid, _e14_drain

    memo = {"E13": _e13_fluid, "E14": _e14_drain}[sid]
    (fh, fh2), (dt, dt2) = fluid_horizons, fluid_dts
    sc = get_scenario(sid)
    points = [
        sc.params({"horizon": horizon, "fluid_horizon": a, "fluid_dt": b})
        for a, b in ((fh, dt2), (fh2, dt), (fh, dt))
    ]
    warm = [
        simulate_scenario_batch(sid, spawn_seed_sequences(seed, 2), p) for p in points
    ]
    for p, rows in zip(points, warm):
        memo.cache_clear()
        cold = [sc.simulate(ss, p) for ss in spawn_seed_sequences(seed, 2)]
        assert_rows_identical(cold, rows, context=f"{sid} seed={seed} {p}")


def _service_law(data, j):
    """A random service law of mean about 1/mu: every family the network
    engine samples differently (bound exponential draws vs ``sample``)."""
    from repro.distributions import Deterministic, Erlang, Exponential, HyperExponential

    mu = data.draw(st.floats(0.8, 3.0), label=f"mu{j}")
    family = data.draw(
        st.sampled_from(["exp", "erlang", "hyper", "det"]), label=f"family{j}"
    )
    if family == "exp":
        return Exponential(mu)
    if family == "erlang":
        k = data.draw(st.integers(2, 4), label=f"k{j}")
        return Erlang(k, k * mu)
    if family == "hyper":
        return HyperExponential.balanced_from_mean_scv(
            1.0 / mu, data.draw(st.floats(1.0, 6.0), label=f"scv{j}")
        )
    return Deterministic(1.0 / mu)


def _assert_network_results_identical(ev, vec, ctx):
    np.testing.assert_array_equal(
        ev.mean_queue_lengths, vec.mean_queue_lengths, err_msg=ctx
    )
    np.testing.assert_array_equal(ev.mean_waits, vec.mean_waits, err_msg=ctx)
    np.testing.assert_array_equal(ev.visit_counts, vec.visit_counts, err_msg=ctx)
    assert ev.cost_rate == vec.cost_rate or (
        math.isnan(ev.cost_rate) and math.isnan(vec.cost_rate)
    ), ctx
    assert ev.final_backlog == vec.final_backlog, ctx
    assert ev.peak_backlog == vec.peak_backlog, ctx
    if ev.trajectory is None:
        assert vec.trajectory is None, ctx
    else:
        np.testing.assert_array_equal(ev.trajectory, vec.trajectory, err_msg=ctx)


@_PROPERTY_SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    horizon=st.floats(min_value=30.0, max_value=200.0),
    warmup=st.sampled_from([0.0, 0.1]),
    record_trajectory=st.booleans(),
    max_events=st.one_of(st.just(20_000_000), st.integers(1, 300)),
    data=st.data(),
)
def test_property_flat_network_engine_equivalence(
    seed, horizon, warmup, record_trajectory, max_events, data
):
    # engine-level coverage beyond the registered scenarios: a random
    # 3-class 2-station network with randomised disciplines (all four),
    # service families, arrival rates, routing chain and server counts —
    # simulate_network must return bit-for-bit the heap-calendar oracle's
    # NetworkResult (trajectory included, at any event budget) and leave
    # the generator in the same state
    from queueing_oracles import oracle_simulate_network

    from repro.queueing.network import (
        ClassConfig,
        QueueingNetwork,
        StationConfig,
        simulate_network,
    )

    station_of = [0, data.draw(st.integers(0, 1), label="station1"), 1]
    services = [_service_law(data, j) for j in range(3)]
    # optional rates are exactly zero or bounded away from it — a
    # subnormal rate yields an infinite inter-arrival time, which the
    # oracle's event calendar refuses to schedule (simulate_network treats
    # it as rate 0; see test_subnormal_arrival_rate_never_arrives)
    opt_rate = st.one_of(st.just(0.0), st.floats(0.05, 0.5))
    lams = [
        data.draw(st.floats(0.2, 0.6), label="lam0"),
        data.draw(opt_rate, label="lam1"),
        data.draw(opt_rate, label="lam2"),
    ]
    routing = np.zeros((3, 3))
    routing[0, 1] = data.draw(st.floats(0.0, 0.9), label="p01")
    routing[1, 2] = data.draw(st.floats(0.0, 0.9), label="p12")
    stations = []
    for k in range(2):
        classes_here = [j for j in range(3) if station_of[j] == k]
        disc = data.draw(
            st.sampled_from(["priority", "preemptive", "fifo", "lcfs"]),
            label=f"disc{k}",
        )
        stations.append(
            StationConfig(
                n_servers=data.draw(st.integers(1, 2), label=f"ns{k}"),
                discipline=disc,
                priority=tuple(
                    data.draw(st.permutations(classes_here), label=f"prio{k}")
                ),
            )
        )
    net = QueueingNetwork(
        [
            ClassConfig(station_of[j], services[j], arrival_rate=lams[j])
            for j in range(3)
        ],
        stations,
        routing,
    )
    kwargs = dict(
        warmup_fraction=warmup,
        max_events=max_events,
        record_trajectory=record_trajectory,
        trajectory_points=data.draw(st.integers(1, 50), label="points"),
    )
    for r, ss in enumerate(np.random.SeedSequence(seed).spawn(2)):
        rng_oracle, rng_engine = np.random.default_rng(ss), np.random.default_rng(ss)
        ev = oracle_simulate_network(net, horizon, rng_oracle, **kwargs)
        vec = simulate_network(net, horizon, rng_engine, **kwargs)
        ctx = f"network seed={seed} rep={r}"
        _assert_network_results_identical(ev, vec, ctx)
        assert rng_oracle.bit_generator.state == rng_engine.bit_generator.state, ctx


def test_subnormal_arrival_rate_never_arrives():
    # 1.0 / 5e-324 overflows to inf: the class's first inter-arrival time
    # is infinite, so it never arrives, and the run is the rate-0 run
    # after the one draw that sampled that infinite time
    from repro.distributions import Exponential
    from repro.queueing.network import (
        ClassConfig,
        QueueingNetwork,
        StationConfig,
        simulate_network,
    )

    def network(rate):
        return QueueingNetwork(
            [
                ClassConfig(0, Exponential(2.0), arrival_rate=rate),
                ClassConfig(0, Exponential(1.5), arrival_rate=0.5),
            ],
            [StationConfig(discipline="fifo")],
        )

    rng_sub = np.random.default_rng(3)
    sub = simulate_network(network(5e-324), 400.0, rng_sub)
    rng_zero = np.random.default_rng(3)
    rng_zero.exponential(1.0)  # the subnormal class's one draw
    zero = simulate_network(network(0.0), 400.0, rng_zero)
    assert sub.visit_counts[0] == 0 and math.isnan(sub.mean_waits[0])
    _assert_network_results_identical(sub, zero, "subnormal vs rate 0")
    assert rng_sub.bit_generator.state == rng_zero.bit_generator.state
