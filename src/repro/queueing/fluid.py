"""Fluid approximations of multiclass queueing networks (Chen–Yao [11],
Atkins–Chen [3], E14).

The fluid model replaces stochastic queues by deterministic buffer levels
``q_j(t)`` obeying

``dq_j/dt = alpha_j - mu_j u_j(t) + sum_i p_ij mu_i u_i(t)``

where ``u_j`` is the fraction of class j's station devoted to j
(``sum_{j at k} u_j <= 1``). Two uses surveyed:

* **stability**: a policy whose fluid model drains to zero in finite time
  from every start is stable in the original network (Dai's theorem; the
  converse failure is E13);
* **policy design**: priority/effort rules derived from the fluid
  optimal-control problem perform well in the stochastic network.

**Allocation: one LP per regime.** Under strict priorities the effort
``u`` solves a small LP (:meth:`FluidModel.allocation`): maximise
priority-weighted throughput subject to station (and virtual-station)
capacities, with every empty buffer processed no faster than its inflow,
so empty buffers with inflow are held at zero. The LP depends on the
levels only through their *empty pattern* ``q <= 1e-12``, so it is solved
once per pattern (a *regime*) and cached.

**Integration: Euler, a regime block at a time.** :func:`fluid_trajectory`
takes the Euler steps ``q <- max(q + dt * dq, 0)``. Within a regime the
increment ``c = dt * dq`` is a constant vector, so once a pattern has held
for a couple of steps a whole block of steps is produced by one
``np.add.accumulate`` over the rows ``[q, c, c, ...]``. The block is
bit-identical to stepping one at a time:

* accumulate adds strictly sequentially, so row k is exactly
  ``(...((q + c) + c)...) + c``, the same rounding as k separate steps;
* a column with ``q == 0`` and ``c <= 0`` is pinned at ``+0.0``, which is
  what the clip makes of it at every step;
* row k is kept only while row k-1 still has the regime's pattern (so
  ``c`` was the right increment) and no other column of row k is negative
  (so the clip would not have changed it). The first row that fails ends
  the block, and the ordinary clipped step takes over from there, through
  the regime change, until the new pattern has held again.

Blocks start small and double while they are accepted whole, so a long
drain costs a few dozen numpy calls, while a sliding mode whose pattern
flips every step or two (the augmented Rybko–Stolyar fluid) rarely pays
for a block it cannot use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.queueing.network import QueueingNetwork
from repro.utils.validation import check_substochastic_matrix

__all__ = ["FluidModel", "fluid_trajectory", "fluid_drain_time", "is_fluid_stable"]

# a buffer at or below this level counts as empty
_EMPTY_LEVEL = 1e-12

# regime blocks: tried after the pattern held for _HOLD clipped steps,
# starting at _MIN_BLOCK rows and doubling up to _MAX_BLOCK while accepted
# whole; a block that breaks resets both
_HOLD = 2
_MIN_BLOCK = 8
_MAX_BLOCK = 4096


@dataclass(frozen=True)
class FluidModel:
    """Deterministic fluid counterpart of a multiclass network.

    ``virtual_stations`` optionally lists groups of classes whose *combined*
    effort is capped at 1. This implements the Dai–Vande Vate augmentation:
    the naive fluid model of a priority policy can be stable while the
    stochastic network diverges (Rybko–Stolyar, E13), because after the
    network polarises, certain class pairs at *different* stations are never
    served simultaneously. Declaring them a virtual station restores the
    missing constraint; the augmented fluid's stability condition is the
    virtual load being below 1.
    """

    alpha: np.ndarray  # exogenous inflow rates
    mu: np.ndarray  # service rates (1 / mean service)
    routing: np.ndarray  # substochastic class-to-class matrix
    station_of: np.ndarray  # class -> station
    priority: tuple  # per station: class ids, highest priority first
    virtual_stations: tuple = ()  # groups of class ids sharing capacity 1

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        mu = np.asarray(self.mu, dtype=float)
        P = check_substochastic_matrix(np.asarray(self.routing, dtype=float), "routing")
        st = np.asarray(self.station_of, dtype=np.int64)
        n = alpha.size
        if mu.size != n or P.shape != (n, n) or st.size != n:
            raise ValueError("dimension mismatch")
        if np.any(mu <= 0) or np.any(alpha < 0):
            raise ValueError("mu must be positive, alpha nonnegative")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "routing", P)
        object.__setattr__(self, "station_of", st)
        object.__setattr__(self, "priority", tuple(tuple(p) for p in self.priority))
        vs = tuple(tuple(int(j) for j in group) for group in self.virtual_stations)
        for group in vs:
            if any(not 0 <= j < n for j in group):
                raise ValueError("virtual station references unknown class")
        object.__setattr__(self, "virtual_stations", vs)

    @classmethod
    def from_network(
        cls, network: QueueingNetwork, virtual_stations: tuple = ()
    ) -> "FluidModel":
        """Extract the fluid data (rates, routing, priorities) from a
        stochastic network description; optionally add virtual-station
        groups (see class docstring)."""
        alpha = np.array([c.arrival_rate for c in network.classes])
        mu = np.array([1.0 / c.service.mean for c in network.classes])
        st = np.array([c.station for c in network.classes])
        prio = []
        for k, s in enumerate(network.stations):
            if s.priority:
                prio.append(tuple(s.priority))
            else:  # FIFO fluid: serve classes proportionally — approximate
                prio.append(tuple(j for j in range(network.n_classes) if st[j] == k))
        return cls(alpha=alpha, mu=mu, routing=network.routing,
                   station_of=st, priority=tuple(prio),
                   virtual_stations=virtual_stations)

    @property
    def n_classes(self) -> int:
        """Number of fluid classes."""
        return self.alpha.size

    def allocation(self, q: np.ndarray) -> np.ndarray:
        """Effort fractions ``u`` under strict priorities at the current
        buffer levels.

        The fluid dynamics of a priority discipline are a linear
        complementarity system: a station gives its highest-priority
        *nonempty* class full remaining effort, while an *empty* class may
        only be processed at its instantaneous inflow rate (which depends on
        every other station's allocation). Naive fixed-point iteration on
        this best response diverges when priority stations feed each other
        (the Rybko–Stolyar topology), so the allocation is computed exactly
        as a small LP: maximise priority-weighted throughput subject to
        station capacities and the no-draining-below-zero constraints
        ``mu_j u_j - sum_i P_ij mu_i u_i <= alpha_j`` for empty buffers.

        The solution depends on ``q`` only through its *empty pattern*, so
        results are cached on that pattern — one LP per regime, not per
        integration step.
        """
        empty = tuple(bool(q[j] <= _EMPTY_LEVEL) for j in range(self.n_classes))
        cached = self._alloc_cache.get(empty)
        if cached is None:
            cached = self._solve_allocation(empty)
            self._alloc_cache[empty] = cached
        return cached

    @property
    def _alloc_cache(self) -> dict:
        cache = getattr(self, "_alloc_cache_store", None)
        if cache is None:
            cache = {}
            object.__setattr__(self, "_alloc_cache_store", cache)
        return cache

    def _solve_allocation(self, empty: tuple) -> np.ndarray:
        from scipy.optimize import linprog

        n = self.n_classes
        n_st = int(self.station_of.max()) + 1 if n else 0
        # weights: within a station, priority position p gets weight B^-p,
        # with B large enough that one unit of a higher class always beats
        # everything below it.
        B = 16.0 * max(1.0, float(self.mu.max() / max(self.mu.min(), 1e-12)))
        w = np.zeros(n)
        for k in range(n_st):
            for pos, j in enumerate(self.priority[k] if k < len(self.priority) else ()):
                w[j] = B ** (-pos)
        c = -(w * self.mu)  # maximise weighted throughput
        A_ub, b_ub = [], []
        for k in range(n_st):
            row = np.zeros(n)
            for j in range(n):
                if self.station_of[j] == k:
                    row[j] = 1.0
            A_ub.append(row)
            b_ub.append(1.0)
        for group in self.virtual_stations:
            row = np.zeros(n)
            for j in group:
                row[j] = 1.0
            A_ub.append(row)
            b_ub.append(1.0)
        for j in range(n):
            if empty[j]:
                row = -self.routing[:, j] * self.mu
                row[j] += self.mu[j]
                A_ub.append(row)
                b_ub.append(self.alpha[j])
        res = linprog(
            c,
            A_ub=np.asarray(A_ub),
            b_ub=np.asarray(b_ub),
            bounds=[(0.0, 1.0)] * n,
            method="highs",
        )
        if not res.success:  # pragma: no cover - LP is always feasible (u=0)
            raise RuntimeError(f"fluid allocation LP failed: {res.message}")
        return np.asarray(res.x)


def fluid_trajectory(
    model: FluidModel, q0: Sequence[float], horizon: float, dt: float = 1e-3
) -> tuple[np.ndarray, np.ndarray]:
    """Euler-integrate the fluid dynamics; returns (times, levels) with
    levels of shape (n_steps + 1, n_classes).

    ``dt`` must be finite and positive, ``horizon`` finite and
    nonnegative, and ``q0`` a finite, nonnegative vector of length
    ``n_classes``; anything else raises ``ValueError``.
    """
    dt, horizon = float(dt), float(horizon)
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and > 0, got {dt!r}")
    if not (math.isfinite(horizon) and horizon >= 0):
        raise ValueError(f"horizon must be finite and >= 0, got {horizon!r}")
    if not math.isfinite(horizon / dt):
        raise ValueError(f"horizon / dt overflows: horizon={horizon!r}, dt={dt!r}")
    n = model.n_classes
    q = np.array(q0, dtype=float)
    if q.shape != (n,):
        raise ValueError(f"q0 must have shape ({n},), got {q.shape}")
    if not np.all(np.isfinite(q)):
        raise ValueError("q0 entries must be finite")
    if np.any(q < 0):
        raise ValueError("buffer levels must be nonnegative")
    steps = int(np.ceil(horizon / dt))
    times = np.linspace(0.0, steps * dt, steps + 1)
    out = np.empty((steps + 1, n))
    out[0] = q
    increments: dict[bytes, np.ndarray] = {}  # empty pattern -> dt * dq
    key_prev, run, block = b"", 0, _MIN_BLOCK
    t = 0
    while t < steps:
        empty = q <= _EMPTY_LEVEL
        key = empty.tobytes()
        c = increments.get(key)
        if c is None:
            u = model.allocation(q)
            c = dt * (model.alpha - model.mu * u + (model.mu * u) @ model.routing)
            increments[key] = c
        if key != key_prev:
            key_prev, run, block = key, 0, _MIN_BLOCK
        elif run >= _HOLD:
            m = min(block, steps - t)
            taken = _regime_block(q, c, empty, m, out[t + 1 :])
            if taken == m:
                block = min(2 * block, _MAX_BLOCK)
            else:
                run, block = 0, _MIN_BLOCK
            if taken:
                t += taken
                q = out[t]
                continue
        # np.clip(q + c, 0.0, None) without its Python-level dispatch:
        # numpy's clip calls exactly this ufunc when there is no upper bound
        q = np.maximum(q + c, 0.0)
        t += 1
        out[t] = q
        run += 1
    return times, out


def _regime_block(
    q: np.ndarray, c: np.ndarray, empty: np.ndarray, m: int, out: np.ndarray
) -> int:
    """Up to ``m`` Euler steps of one regime (pattern ``empty``, increment
    ``c``) from ``q`` in one accumulate; writes the exact prefix to
    ``out[:k]`` and returns its length ``k`` (see the module docstring)."""
    pinned = (q == 0.0) & (c <= 0.0)
    rows = np.empty((m + 1, q.size))
    rows[0] = q
    rows[1:] = c
    rows = np.add.accumulate(rows, axis=0)
    exact = np.all((rows[:-1] <= _EMPTY_LEVEL) == empty, axis=1)
    exact &= np.all((rows[1:] >= 0.0) | pinned, axis=1)
    k = m if exact.all() else int(exact.argmin())
    out[:k] = rows[1 : k + 1]
    out[:k, pinned] = 0.0
    return k


def fluid_drain_time(
    model: FluidModel, q0: Sequence[float], *, horizon: float = 200.0, dt: float = 1e-3,
    tol: float = 1e-6,
) -> float:
    """First time the total fluid mass reaches ~0 (inf if it never does
    within the horizon)."""
    times, levels = fluid_trajectory(model, q0, horizon, dt)
    total = levels.sum(axis=1)
    hit = np.nonzero(total <= tol)[0]
    return float(times[hit[0]]) if hit.size else float("inf")


def is_fluid_stable(
    model: FluidModel, *, horizon: float = 200.0, dt: float = 1e-3, from_levels: float = 1.0
) -> bool:
    """Fluid-stability check: from the uniform start ``from_levels * 1`` the
    model must drain to zero within the horizon *and stay* drained over the
    last 10% of it."""
    times, levels = fluid_trajectory(model, np.full(model.n_classes, from_levels), horizon, dt)
    total = levels.sum(axis=1)
    tail = total[int(0.9 * total.size):]
    return bool(np.all(tail <= 1e-4 * max(1.0, from_levels)))
