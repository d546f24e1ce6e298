"""The fluid integrator against its step-by-step oracle.

:func:`repro.queueing.fluid.fluid_trajectory` produces whole regime blocks
with one accumulate; ``oracle_fluid_trajectory`` in
``tests/queueing_oracles.py`` is the clipped Euler loop it replaced. The
two must agree byte for byte (``.tobytes()``) in ``times`` and ``levels``
on the E13/E14 fluids, on a trajectory long enough to cross the largest
block, and on randomised fluid models whose starts sit exactly on, and
just below, the empty threshold.
"""

from __future__ import annotations

import numpy as np
import pytest
from queueing_oracles import oracle_fluid_trajectory

from repro.experiments.packs.queueing import _e14_network
from repro.queueing import FluidModel, fluid_trajectory, rybko_stolyar_network
from repro.queueing import fluid as fluid_module


def assert_trajectories_identical(model, q0, horizon, dt):
    t_old, l_old = oracle_fluid_trajectory(model, q0, horizon, dt)
    t_new, l_new = fluid_trajectory(model, q0, horizon, dt)
    assert t_new.tobytes() == t_old.tobytes()
    assert l_new.shape == l_old.shape
    if l_new.tobytes() != l_old.tobytes():
        row = int(np.nonzero(np.any(l_new != l_old, axis=1))[0][0])
        pytest.fail(f"levels differ from step {row}: {l_new[row]!r} vs {l_old[row]!r}")


def _rybko_stolyar(virtual_stations=()):
    net = rybko_stolyar_network(1.0, 0.1, 0.6, priority_to_exit=True)
    return FluidModel.from_network(net, virtual_stations=virtual_stations)


@pytest.mark.parametrize(
    "model, q0, horizon",
    [
        pytest.param(_rybko_stolyar(), [1.0] * 4, 80.0, id="E13-naive"),
        # the augmented fluid slides along the virtual-station constraint,
        # its empty pattern flipping every step or two
        pytest.param(_rybko_stolyar(((1, 3),)), [1.0] * 4, 80.0, id="E13-augmented"),
        pytest.param(
            FluidModel.from_network(_e14_network((2, 0), (1,))), [1.0] * 3, 120.0,
            id="E14-exit-first",
        ),
        pytest.param(
            FluidModel.from_network(_e14_network((0, 2), (1,))), [1.0] * 3, 120.0,
            id="E14-entry-first",
        ),
    ],
)
def test_scenario_fluids_match_oracle(model, q0, horizon):
    assert_trajectories_identical(model, q0, horizon, 0.01)


def _single_queue(alpha, mu=1.0):
    return FluidModel(
        alpha=np.array([alpha]),
        mu=np.array([mu]),
        routing=np.zeros((1, 1)),
        station_of=np.array([0]),
        priority=((0,),),
    )


@pytest.mark.parametrize(
    "alpha, q0",
    [(1.3, [0.5]), (0.4, [0.0]), (0.4, [30.0])],
    ids=["growing", "empty", "draining"],
)
def test_long_regime_crosses_the_largest_block(monkeypatch, alpha, q0):
    # one regime held for over 3 * _MAX_BLOCK steps: blocks double up to
    # the cap and are then taken at the cap, and every row stays exact
    sizes = []
    block = fluid_module._regime_block

    def spy(q, c, empty, m, out):
        sizes.append(m)
        return block(q, c, empty, m, out)

    monkeypatch.setattr(fluid_module, "_regime_block", spy)
    dt = 1e-3
    horizon = 3.5 * fluid_module._MAX_BLOCK * dt
    assert_trajectories_identical(_single_queue(alpha), q0, horizon, dt)
    assert sizes.count(fluid_module._MAX_BLOCK) >= 2, sizes


def test_slow_drain_into_the_empty_threshold_ends_the_block():
    # the level creeps down by 1e-13 a step and lands inside (0, 1e-12]
    # mid-block with room for more steps before it would go negative: only
    # the pattern check ends the block there, and the empty regime's
    # allocation then holds the level still
    model = _single_queue(1.0 - 1e-6)
    assert_trajectories_identical(model, [1e-11], 2e-5, 1e-7)
    _, levels = fluid_trajectory(model, [1e-11], 2e-5, 1e-7)
    assert 1e-13 < levels[-1, 0] <= 1e-12


def test_zero_horizon_and_threshold_starts_match_oracle():
    model = _rybko_stolyar()
    assert_trajectories_identical(model, [1.0] * 4, 0.0, 0.01)
    assert_trajectories_identical(model, [0.0, 1e-12, 5e-13, -0.0], 5.0, 0.01)


# ---------------------------------------------------------------------------
# Property: randomised fluid models
# ---------------------------------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_LEVELS = st.one_of(
    st.sampled_from([0.0, 1e-12, 5e-13, 1e-15]),
    st.floats(min_value=1e-3, max_value=3.0),
)


@st.composite
def fluid_models(draw):
    n = draw(st.integers(1, 5), label="n_classes")
    n_st = draw(st.integers(1, min(3, n)), label="n_stations")
    station_of = [draw(st.integers(0, n_st - 1), label=f"station{j}") for j in range(n)]
    station_of[:n_st] = range(n_st)  # every station serves some class
    priority = tuple(
        tuple(draw(st.permutations([j for j in range(n) if station_of[j] == k])))
        for k in range(n_st)
    )
    alpha = [
        draw(st.just(0.0) | st.floats(0.05, 1.0), label=f"alpha{j}")
        for j in range(n)
    ]
    mu = [draw(st.floats(0.5, 4.0), label=f"mu{j}") for j in range(n)]
    routing = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j and draw(st.booleans(), label=f"route{i}{j}"):
                routing[i, j] = draw(st.floats(0.05, 1.0), label=f"p{i}{j}")
        total = routing[i].sum()
        if total > 0:
            routing[i] *= draw(st.floats(0.1, 0.95), label=f"keep{i}") / total
    virtual = ()
    if n >= 2 and draw(st.booleans(), label="virtual"):
        virtual = (tuple(draw(st.permutations(range(n)))[:2]),)
    return FluidModel(
        alpha=np.array(alpha),
        mu=np.array(mu),
        routing=routing,
        station_of=np.array(station_of),
        priority=priority,
        virtual_stations=virtual,
    )


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    model=fluid_models(),
    dt=st.sampled_from([1e-3, 1e-2, 5e-2]),
    n_steps=st.integers(0, 1500),
    data=st.data(),
)
def test_property_fluid_trajectory_matches_oracle(model, dt, n_steps, data):
    q0 = [data.draw(_LEVELS, label=f"q0_{j}") for j in range(model.n_classes)]
    assert_trajectories_identical(model, q0, n_steps * dt, dt)
