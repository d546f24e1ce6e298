"""Test-only simulation output monitors, used by ``queueing_oracles.py``."""

from __future__ import annotations

import math

from repro.utils.stats import RunningStats

__all__ = ["TimeWeightedMonitor", "TallyMonitor"]


class TimeWeightedMonitor:
    """Time-average of a piecewise-constant sample path (queue lengths,
    number in system, server busyness).

    Call :meth:`update` whenever the tracked level changes; the monitor
    integrates level x time between updates. Supports resetting statistics at
    a warm-up instant without losing the current level.
    """

    def __init__(self, initial: float = 0.0, start_time: float = 0.0):
        self._level = float(initial)
        self._last_time = float(start_time)
        self._area = 0.0
        self._start = float(start_time)
        self._peak = float(initial)

    def update(self, time: float, level: float) -> None:
        """Record that the level becomes ``level`` at ``time``."""
        if time < self._last_time - 1e-9:
            raise ValueError("time must be nondecreasing")
        self._area += self._level * (time - self._last_time)
        self._level = float(level)
        self._last_time = max(time, self._last_time)
        self._peak = max(self._peak, self._level)

    def increment(self, time: float, delta: float = 1.0) -> None:
        """Shift the level by ``delta`` at ``time``."""
        self.update(time, self._level + delta)

    def reset(self, time: float) -> None:
        """Discard accumulated area (warm-up) but keep the current level."""
        self._area = self._level * 0.0
        self._area = 0.0
        self._start = time
        self._last_time = max(time, self._last_time)
        self._peak = self._level

    @property
    def level(self) -> float:
        """Current level."""
        return self._level

    @property
    def peak(self) -> float:
        """Maximum level since the last reset."""
        return self._peak

    def time_average(self, time: float) -> float:
        """Time-average level over [start, time]."""
        horizon = time - self._start
        if horizon <= 0:
            return math.nan
        area = self._area + self._level * (time - self._last_time)
        return area / horizon


class TallyMonitor:
    """Per-observation statistics (waiting times, flowtimes) with a warm-up
    cutoff: observations recorded before :meth:`reset` are discarded."""

    def __init__(self) -> None:
        self._stats = RunningStats()

    def record(self, value: float) -> None:
        """Record one observation."""
        self._stats.push(value)

    def reset(self) -> None:
        """Discard everything recorded so far (end of warm-up)."""
        self._stats = RunningStats()

    @property
    def count(self) -> int:
        """Number of retained observations."""
        return self._stats.count

    @property
    def mean(self) -> float:
        """Mean of retained observations."""
        return self._stats.mean

    @property
    def std(self) -> float:
        """Standard deviation of retained observations."""
        return self._stats.std
