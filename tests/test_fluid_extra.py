"""Additional fluid-model coverage: allocation caching, trajectory
properties, and load-based criteria."""

import numpy as np
import pytest

from repro.queueing import (
    FluidModel,
    fluid_drain_time,
    fluid_trajectory,
    is_fluid_stable,
    rybko_stolyar_network,
)


def simple_queue(alpha=0.5, mu=1.0):
    return FluidModel(
        alpha=np.array([alpha]),
        mu=np.array([mu]),
        routing=np.zeros((1, 1)),
        station_of=np.array([0]),
        priority=((0,),),
    )


class TestAllocation:
    def test_full_effort_when_backlogged(self):
        fm = simple_queue()
        u = fm.allocation(np.array([5.0]))
        assert u[0] == pytest.approx(1.0)

    def test_rate_matched_when_empty(self):
        fm = simple_queue(alpha=0.5, mu=2.0)
        u = fm.allocation(np.array([0.0]))
        # serve exactly the inflow: mu * u = alpha
        assert u[0] == pytest.approx(0.25)

    def test_cache_hits_by_empty_pattern(self):
        fm = simple_queue()
        u1 = fm.allocation(np.array([3.0]))
        u2 = fm.allocation(np.array([7.0]))  # same empty pattern
        assert u1 is u2  # cached object identity

    def test_different_patterns_different_entries(self):
        fm = simple_queue()
        fm.allocation(np.array([3.0]))
        fm.allocation(np.array([0.0]))
        assert len(fm._alloc_cache) == 2

    def test_station_capacity_respected(self):
        net = rybko_stolyar_network(1.0, 0.1, 0.6)
        fm = FluidModel.from_network(net)
        for q in ([1, 1, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 0, 0]):
            u = fm.allocation(np.array(q, dtype=float))
            assert u[0] + u[3] <= 1 + 1e-9  # station 0
            assert u[1] + u[2] <= 1 + 1e-9  # station 1
            assert np.all(u >= -1e-12)


class TestTrajectories:
    def test_mass_balance_single_queue(self):
        """dq = alpha - mu u integrates exactly for the linear phase."""
        fm = simple_queue(alpha=0.3, mu=1.0)
        times, levels = fluid_trajectory(fm, [2.0], horizon=1.0, dt=1e-3)
        assert levels[-1, 0] == pytest.approx(2.0 - 0.7 * 1.0, abs=5e-3)

    def test_negative_start_rejected(self):
        fm = simple_queue()
        with pytest.raises(ValueError):
            fluid_trajectory(fm, [-1.0], horizon=1.0)

    def test_shapes(self):
        fm = simple_queue()
        times, levels = fluid_trajectory(fm, [1.0], horizon=0.5, dt=0.01)
        assert times.shape[0] == levels.shape[0]
        assert levels.shape[1] == 1

    def test_empty_stays_empty_when_underloaded(self):
        fm = simple_queue(alpha=0.5, mu=1.0)
        _, levels = fluid_trajectory(fm, [0.0], horizon=2.0, dt=1e-3)
        assert float(levels.max()) < 1e-9


class TestTrajectoryArguments:
    @pytest.mark.parametrize("dt", [0.0, -0.01, float("nan"), float("inf")])
    def test_bad_dt(self, dt):
        with pytest.raises(ValueError, match="dt must be finite and > 0"):
            fluid_trajectory(simple_queue(), [1.0], horizon=1.0, dt=dt)

    @pytest.mark.parametrize("horizon", [-0.1, float("nan"), float("inf")])
    def test_bad_horizon(self, horizon):
        with pytest.raises(ValueError, match="horizon must be finite and >= 0"):
            fluid_trajectory(simple_queue(), [1.0], horizon=horizon, dt=0.01)

    def test_step_count_overflow(self):
        with pytest.raises(ValueError, match="horizon / dt"):
            fluid_trajectory(simple_queue(), [1.0], horizon=1e300, dt=1e-300)

    @pytest.mark.parametrize("q0", [[1.0, 1.0], [], [[1.0]]])
    def test_bad_q0_shape(self, q0):
        with pytest.raises(ValueError, match=r"q0 must have shape \(1,\)"):
            fluid_trajectory(simple_queue(), q0, horizon=1.0, dt=0.01)

    @pytest.mark.parametrize("level", [float("nan"), float("inf")])
    def test_nonfinite_q0(self, level):
        with pytest.raises(ValueError, match="q0 entries must be finite"):
            fluid_trajectory(simple_queue(), [level], horizon=1.0, dt=0.01)

    def test_zero_horizon_is_the_start_row(self):
        times, levels = fluid_trajectory(simple_queue(), [2.0], horizon=0.0, dt=0.01)
        assert times.tolist() == [0.0]
        assert levels.tolist() == [[2.0]]

    def test_drain_time_and_stability_inherit_the_checks(self):
        fm = simple_queue()
        with pytest.raises(ValueError, match="dt"):
            fluid_drain_time(fm, [1.0], dt=0.0)
        with pytest.raises(ValueError, match="q0"):
            fluid_drain_time(fm, [1.0, 2.0])
        with pytest.raises(ValueError, match="horizon"):
            is_fluid_stable(fm, horizon=float("inf"))
        with pytest.raises(ValueError, match="q0"):
            is_fluid_stable(fm, from_levels=float("nan"))


class TestModelValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            FluidModel(
                alpha=np.array([1.0]),
                mu=np.array([1.0, 2.0]),
                routing=np.zeros((1, 1)),
                station_of=np.array([0]),
                priority=((0,),),
            )

    def test_nonpositive_mu(self):
        with pytest.raises(ValueError):
            FluidModel(
                alpha=np.array([1.0]),
                mu=np.array([0.0]),
                routing=np.zeros((1, 1)),
                station_of=np.array([0]),
                priority=((0,),),
            )
