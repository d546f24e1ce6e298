"""Test-only oracles: the heap-calendar queueing simulators and the
step-by-step fluid integrator.

These are the original bodies of :func:`repro.queueing.network.simulate_network`
(a generic ``(time, priority, seq)`` event calendar with monitor objects),
:meth:`repro.queueing.polling.PollingSystem.simulate` (per-queue
pending lists and one scalar ``sample(rng)`` call per draw) and
:func:`repro.queueing.fluid.fluid_trajectory` (one clipped Euler step per
loop iteration), kept verbatim apart from their names (``self`` is
``system`` in the polling oracle).  The library's engines replaced them
with a flat ``heapq`` calendar of plain tuples (no ``Event`` objects,
callbacks or monitors), a pointer-window server walk and regime-block
accumulation, which must stay bit-for-bit equal;
``tests/test_backend_equivalence.py`` checks the queueing engines
against these oracles on randomised networks (with and without
simultaneous events), on a scripted run of fixed draws and on
randomised polling systems, and ``tests/test_fluid_oracle.py`` the fluid
integrator on randomised fluid models.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.queueing.fluid import FluidModel
from repro.queueing.network import NetworkResult, QueueingNetwork
from repro.queueing.polling import PollingResult, PollingSystem
from sim_engine import Simulator
from sim_monitor import TallyMonitor, TimeWeightedMonitor

__all__ = ["oracle_simulate_network", "oracle_polling_simulate", "oracle_fluid_trajectory"]



class _Jb:
    """Mutable in-flight job record."""

    __slots__ = ("cls", "arrived", "remaining", "started")

    def __init__(self, cls: int, arrived: float):
        self.cls = cls
        self.arrived = arrived
        self.remaining = -1.0  # sampled at first service start
        self.started = -1.0


def oracle_simulate_network(
    network: QueueingNetwork,
    horizon: float,
    rng: np.random.Generator,
    *,
    warmup_fraction: float = 0.1,
    max_events: int = 20_000_000,
    record_trajectory: bool = False,
    trajectory_points: int = 200,
) -> NetworkResult:
    """Simulate the network and return steady-state estimates.

    Statistics are reset at ``warmup_fraction * horizon``. For unstable
    systems the estimates do not converge, but ``final_backlog`` /
    ``peak_backlog`` and the optional trajectory expose the divergence
    (E13's measurement).
    """
    n = network.n_classes
    sim = Simulator()
    queues: list[list[_Jb]] = [[] for _ in range(n)]
    # per-station: list of (job, completion_event, start_time) per busy server
    busy: list[list] = [[] for _ in network.stations]
    qmon = [TimeWeightedMonitor() for _ in range(n)]
    wmon = [TallyMonitor() for _ in range(n)]
    visits = np.zeros(n, dtype=np.int64)
    total_in_system = TimeWeightedMonitor()
    traj_t: list[float] = []
    traj_q: list[float] = []

    prio_pos: list[dict[int, int]] = []
    for st in network.stations:
        prio_pos.append({c: p for p, c in enumerate(st.priority)})

    cum_routing = np.cumsum(network.routing, axis=1)

    def class_priority(k: int, cls: int) -> int:
        return prio_pos[k].get(cls, 0)

    def pick_next(k: int) -> _Jb | None:
        st = network.stations[k]
        if st.discipline in ("fifo", "lcfs"):
            newest = st.discipline == "lcfs"
            best, best_cls, best_pos = None, -1, -1
            for j in range(n):
                if network.classes[j].station == k and queues[j]:
                    pos = -1 if newest else 0
                    cand = queues[j][pos]
                    if best is None or (
                        cand.arrived > best.arrived
                        if newest
                        else cand.arrived < best.arrived
                    ):
                        best, best_cls, best_pos = cand, j, pos
            if best is not None:
                queues[best_cls].pop(best_pos)
            return best
        for cls in network.stations[k].priority:
            if queues[cls]:
                return queues[cls].pop(0)
        return None

    def start_service(k: int, job: _Jb) -> None:
        if job.remaining < 0:
            job.remaining = float(network.classes[job.cls].service.sample(rng))
        if job.started < 0:
            job.started = sim.now
            wmon[job.cls].record(sim.now - job.arrived)
        entry = [job, None, sim.now]
        entry[1] = sim.schedule(job.remaining, lambda e=entry: complete(k, e))
        busy[k].append(entry)

    def complete(k: int, entry) -> None:
        job = entry[0]
        busy[k].remove(entry)
        visits[job.cls] += 1
        leave_class(job.cls)
        # route
        u = rng.random()
        row = cum_routing[job.cls]
        if u < row[-1]:
            nxt = int(np.searchsorted(row, u, side="right"))
            enter_class(nxt, _Jb(nxt, sim.now))
        else:
            total_in_system.increment(sim.now, -1.0)
        serve_if_possible(k)

    def leave_class(cls: int) -> None:
        qmon[cls].increment(sim.now, -1.0)

    def enter_class(cls: int, job: _Jb) -> None:
        qmon[cls].increment(sim.now, +1.0)
        k = network.classes[cls].station
        st = network.stations[k]
        if len(busy[k]) < st.n_servers:
            start_service(k, job)
            return
        if st.discipline == "preemptive":
            # preempt the lowest-priority running job if strictly lower
            worst = max(busy[k], key=lambda e: class_priority(k, e[0].cls))
            if class_priority(k, cls) < class_priority(k, worst[0].cls):
                wjob, wev, wstart = worst
                wev.cancel()
                busy[k].remove(worst)
                wjob.remaining -= sim.now - wstart
                wjob.remaining = max(wjob.remaining, 1e-12)
                queues[wjob.cls].insert(0, wjob)
                start_service(k, job)
                return
        queues[cls].append(job)

    def serve_if_possible(k: int) -> None:
        st = network.stations[k]
        while len(busy[k]) < st.n_servers:
            job = pick_next(k)
            if job is None:
                return
            start_service(k, job)

    def exo_arrival(cls: int) -> None:
        rate = network.classes[cls].arrival_rate
        total_in_system.increment(sim.now, +1.0)
        enter_class(cls, _Jb(cls, sim.now))
        sim.schedule(rng.exponential(1.0 / rate), lambda: exo_arrival(cls))

    for j in range(n):
        if network.classes[j].arrival_rate > 0:
            sim.schedule(
                rng.exponential(1.0 / network.classes[j].arrival_rate),
                lambda j=j: exo_arrival(j),
            )

    warmup = warmup_fraction * horizon

    def end_warmup() -> None:
        for m in qmon:
            m.reset(sim.now)
        for m in wmon:
            m.reset()
        visits[:] = 0

    if warmup > 0:
        sim.schedule(warmup, end_warmup, priority=-10)

    if record_trajectory:
        step = horizon / trajectory_points

        def snapshot() -> None:
            traj_t.append(sim.now)
            traj_q.append(total_in_system.level)
            if sim.now + step <= horizon:
                sim.schedule(step, snapshot, priority=10)

        sim.schedule(0.0, snapshot, priority=10)

    sim.run(until=horizon, max_events=max_events)

    Lbar = np.array([m.time_average(horizon) for m in qmon])
    W = np.array([m.mean if m.count else math.nan for m in wmon])
    costs = np.array([c.cost for c in network.classes])
    traj = np.column_stack([traj_t, traj_q]) if record_trajectory else None
    return NetworkResult(
        mean_queue_lengths=Lbar,
        mean_waits=W,
        visit_counts=visits.copy(),
        cost_rate=float(np.dot(costs, Lbar)),
        final_backlog=float(total_in_system.level),
        peak_backlog=float(total_in_system.peak),
        horizon=horizon,
        trajectory=traj,
    )


def oracle_polling_simulate(
    system: PollingSystem,
    horizon: float,
    rng: np.random.Generator,
    *,
    warmup_fraction: float = 0.1,
) -> PollingResult:
    """Simulate until ``horizon`` (server time) and return estimates."""
    n = system.n_queues
    # Pre-generate arrival streams with margin; extend lazily if needed.
    arrivals: list[np.ndarray] = []
    for i in range(n):
        lam = system.arrival_rates[i]
        if lam == 0:
            arrivals.append(np.array([np.inf]))
            continue
        m = int(lam * horizon * 1.3) + 50
        gaps = rng.exponential(1.0 / lam, size=m)
        ts = np.cumsum(gaps)
        while ts[-1] < horizon:
            more = rng.exponential(1.0 / lam, size=m // 2 + 10)
            ts = np.concatenate([ts, ts[-1] + np.cumsum(more)])
        arrivals.append(ts)
    heads = [0] * n  # next-arrival pointer per queue
    pending: list[list[float]] = [[] for _ in range(n)]  # arrival times waiting
    warmup = warmup_fraction * horizon
    waits = np.zeros(n)
    served = np.zeros(n, dtype=np.int64)
    t = 0.0
    i = 0
    cycles = 0
    cycle_start = 0.0
    cycle_durations: list[float] = []

    def admit(i: int, upto: float) -> None:
        ts = arrivals[i]
        h = heads[i]
        while h < ts.size and ts[h] <= upto:
            pending[i].append(ts[h])
            h += 1
        heads[i] = h

    while t < horizon:
        # switch into queue i
        t += float(system.switchovers[i].sample(rng))
        admit(i, t)
        if system.policy == "gated":
            batch = len(pending[i])
        elif system.policy == "limited":
            batch = min(1, len(pending[i]))
        else:
            batch = -1  # exhaustive: until empty
        served_this_visit = 0
        while pending[i] and (batch < 0 or served_this_visit < batch):
            arr = pending[i].pop(0)
            if t > warmup:
                waits[i] += t - arr
                served[i] += 1
            t += float(system.services[i].sample(rng))
            served_this_visit += 1
            admit(i, t)
            if batch < 0 and t > horizon * 4:  # runaway guard
                raise RuntimeError("polling simulation diverged")
        i = (i + 1) % n
        if i == 0:
            if (
                system._switchover_always_zero
                and t == cycle_start
                and not any(pending)
            ):
                # Zero-length sweep with a.s.-zero switchovers: the
                # server would spin at this instant forever (with merely
                # an atom at 0 the next sweep's draws can still advance
                # the clock, so no jump is taken there). Idle until the
                # next arrival, and do not record the sweep as a cycle
                # (a stream of 0.0 durations would bias the mean cycle
                # time).
                nxt = min(
                    (
                        float(arrivals[j][heads[j]])
                        for j in range(n)
                        if heads[j] < arrivals[j].size
                    ),
                    default=np.inf,
                )
                t = min(max(t, nxt), horizon)
                cycle_start = t
                continue
            if cycles > 0:
                cycle_durations.append(t - cycle_start)
            cycle_start = t
            cycles += 1

    mean_waits = np.where(served > 0, waits / np.maximum(served, 1), np.nan)
    rho_i = system.arrival_rates * np.array([s.mean for s in system.services])
    weighted = float(np.nansum(rho_i * mean_waits))
    return PollingResult(
        mean_waits=mean_waits,
        served=served,
        cycle_time=float(np.mean(cycle_durations)) if cycle_durations else np.nan,
        weighted_wait_sum=weighted,
    )


def oracle_fluid_trajectory(
    model: FluidModel, q0: Sequence[float], horizon: float, dt: float = 1e-3
) -> tuple[np.ndarray, np.ndarray]:
    """Euler-integrate the fluid dynamics; returns (times, levels) with
    levels of shape (n_steps + 1, n_classes)."""
    q = np.asarray(q0, dtype=float).copy()
    if np.any(q < 0):
        raise ValueError("buffer levels must be nonnegative")
    steps = int(np.ceil(horizon / dt))
    times = np.linspace(0.0, steps * dt, steps + 1)
    out = np.empty((steps + 1, model.n_classes))
    out[0] = q
    for t in range(steps):
        u = model.allocation(q)
        dq = model.alpha - model.mu * u + (model.mu * u) @ model.routing
        q = np.clip(q + dt * dq, 0.0, None)
        out[t + 1] = q
    return times, out
