"""Tests for the test-only event engine and monitors (``sim_engine.py``,
``sim_monitor.py``) the queueing oracles run on."""

import math

import numpy as np
import pytest

from repro.sim import run_replications
from sim_engine import EventQueue, Simulator
from sim_monitor import TallyMonitor, TimeWeightedMonitor


class TestEventQueue:
    def test_time_order(self):
        q = EventQueue()
        out = []
        q.push(2.0, lambda: out.append("b"))
        q.push(1.0, lambda: out.append("a"))
        q.pop().action()
        q.pop().action()
        assert out == ["a", "b"]

    def test_fifo_among_ties(self):
        q = EventQueue()
        out = []
        q.push(1.0, lambda: out.append(1))
        q.push(1.0, lambda: out.append(2))
        q.pop().action()
        q.pop().action()
        assert out == [1, 2]

    def test_priority_breaks_ties(self):
        q = EventQueue()
        out = []
        q.push(1.0, lambda: out.append("low"), priority=5)
        q.push(1.0, lambda: out.append("high"), priority=-5)
        q.pop().action()
        assert out == ["high"]

    def test_cancellation(self):
        q = EventQueue()
        ev = q.push(1.0, lambda: None)
        ev.cancel()
        assert q.pop() is None
        assert len(q) == 0

    def test_peek_time_skips_cancelled(self):
        q = EventQueue()
        ev = q.push(1.0, lambda: None)
        q.push(3.0, lambda: None)
        ev.cancel()
        assert q.peek_time() == 3.0

    def test_infinite_time_rejected(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.push(math.inf, lambda: None)


class TestSimulator:
    def test_clock_advances(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]

    def test_run_until_horizon(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(2))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0

    def test_cascading_events(self):
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 10:
                sim.schedule(1.0, tick)

        sim.schedule(1.0, tick)
        sim.run()
        assert count[0] == 10
        assert sim.now == 10.0

    def test_max_events(self):
        sim = Simulator()

        def forever():
            sim.schedule(1.0, forever)

        sim.schedule(1.0, forever)
        sim.run(max_events=100)
        assert sim.event_count == 100

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda: None)


class TestMonitors:
    def test_time_weighted_average(self):
        m = TimeWeightedMonitor()
        m.update(0.0, 2.0)  # level 0 on [0,0], then 2
        m.update(4.0, 0.0)  # level 2 on [0,4]
        assert m.time_average(8.0) == pytest.approx(1.0)  # 8 area / 8 time

    def test_increment(self):
        m = TimeWeightedMonitor()
        m.increment(1.0)  # level 1 from t=1
        m.increment(3.0)  # level 2 from t=3
        assert m.level == 2.0
        assert m.time_average(5.0) == pytest.approx((2.0 + 4.0) / 5.0)

    def test_reset_keeps_level(self):
        m = TimeWeightedMonitor()
        m.update(0.0, 5.0)
        m.reset(10.0)
        assert m.level == 5.0
        assert m.time_average(12.0) == pytest.approx(5.0)

    def test_peak(self):
        m = TimeWeightedMonitor()
        m.update(0.0, 3.0)
        m.update(1.0, 1.0)
        assert m.peak == 3.0

    def test_time_monotonicity_enforced(self):
        m = TimeWeightedMonitor()
        m.update(5.0, 1.0)
        with pytest.raises(ValueError):
            m.update(2.0, 0.0)

    def test_tally_reset(self):
        t = TallyMonitor()
        t.record(100.0)
        t.reset()
        t.record(2.0)
        t.record(4.0)
        assert t.count == 2
        assert t.mean == pytest.approx(3.0)


class TestReplications:
    def test_reproducible(self):
        f = lambda rng: float(rng.random())
        a = run_replications(f, 10, seed=1)
        b = run_replications(f, 10, seed=1)
        assert np.allclose(a.samples, b.samples)

    def test_interval_covers_known_mean(self):
        f = lambda rng: float(rng.exponential(2.0, size=200).mean())
        res = run_replications(f, 40, seed=0)
        assert res.interval.contains(2.0)

    def test_requires_positive_replications(self):
        with pytest.raises(ValueError):
            run_replications(lambda rng: 0.0, 0)
