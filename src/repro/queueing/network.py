"""Multiclass queueing-network simulator.

A network is a set of single- or multi-server *stations* and a set of job
*classes*; each class belongs to a station, has its own Poisson exogenous
arrivals, service distribution and holding cost, and routes Markovianly to
another class (possibly at another station) or out of the system — exactly
the MQN model of survey §3. A single station with feedback is Klimov's
model; a single station without feedback is the multiclass M/G/1 of the cµ
rule; two stations with deterministic routing give the Rybko–Stolyar
instability example.

Scheduling policies per station: FIFO, nonpreemptive static priority,
preemptive-resume static priority. Priorities come from any index order, so
cµ, Klimov, and fluid-derived rules plug in directly.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.distributions.base import Distribution
from repro.distributions.continuous import Exponential
from repro.utils.validation import check_substochastic_matrix

__all__ = [
    "ClassConfig",
    "StationConfig",
    "QueueingNetwork",
    "NetworkResult",
    "simulate_network",
    "simulate_network_replications",
]


@dataclass(frozen=True)
class ClassConfig:
    """One job class: its station, service law, exogenous arrival rate and
    holding-cost rate."""

    station: int
    service: Distribution
    arrival_rate: float = 0.0
    cost: float = 1.0
    name: str = ""

    def __post_init__(self):
        if self.arrival_rate < 0 or self.cost < 0:
            raise ValueError("arrival_rate and cost must be nonnegative")


@dataclass(frozen=True)
class StationConfig:
    """One service station.

    ``discipline`` is ``'priority'`` (static order, nonpreemptive),
    ``'preemptive'`` (static order, preemptive-resume), ``'fifo'``
    (head-of-line across classes by arrival instant) or ``'lcfs'``
    (nonpreemptive last-come-first-served — a work-conserving discipline
    with the same mean waits as FIFO but different higher moments, useful
    for exercising the conservation laws). ``priority`` lists class ids
    from highest to lowest priority and is required for the two priority
    disciplines.
    """

    n_servers: int = 1
    discipline: str = "priority"
    priority: tuple = ()

    def __post_init__(self):
        if self.n_servers < 1:
            raise ValueError("stations need at least one server")
        if self.discipline not in ("priority", "preemptive", "fifo", "lcfs"):
            raise ValueError(f"unknown discipline {self.discipline!r}")


class QueueingNetwork:
    """Immutable network description (classes, stations, routing)."""

    def __init__(
        self,
        classes: Sequence[ClassConfig],
        stations: Sequence[StationConfig],
        routing: np.ndarray | None = None,
    ):
        self.classes = tuple(classes)
        self.stations = tuple(stations)
        n = len(self.classes)
        if routing is None:
            routing = np.zeros((n, n))
        self.routing = check_substochastic_matrix(np.asarray(routing, dtype=float), "routing")
        if self.routing.shape != (n, n):
            raise ValueError("routing must be n_classes x n_classes")
        for j, cc in enumerate(self.classes):
            if not 0 <= cc.station < len(self.stations):
                raise ValueError(f"class {j} references unknown station {cc.station}")
        for k, st in enumerate(self.stations):
            if st.discipline in ("priority", "preemptive"):
                local = [j for j in range(n) if self.classes[j].station == k]
                if sorted(st.priority) != sorted(local):
                    raise ValueError(
                        f"station {k} priority {st.priority} must order exactly "
                        f"its classes {local}"
                    )

    @property
    def n_classes(self) -> int:
        """Number of job classes."""
        return len(self.classes)

    def effective_rates(self) -> np.ndarray:
        """Traffic-equation visit rates ``lambda = alpha (I - P)^{-1}``."""
        alpha = np.array([c.arrival_rate for c in self.classes])
        n = self.n_classes
        return np.linalg.solve((np.eye(n) - self.routing).T, alpha)

    def station_loads(self) -> np.ndarray:
        """Nominal load ``rho_k = sum_{j at k} lambda_j m_j / n_servers``."""
        lam = self.effective_rates()
        rho = np.zeros(len(self.stations))
        for j, cc in enumerate(self.classes):
            rho[cc.station] += lam[j] * cc.service.mean
        return rho / np.array([s.n_servers for s in self.stations])


@dataclass(frozen=True)
class NetworkResult:
    """Steady-state estimates from one simulation run."""

    mean_queue_lengths: np.ndarray  # time-avg number in system per class
    mean_waits: np.ndarray  # mean wait (queue time) per class visit
    visit_counts: np.ndarray  # completed visits per class (post-warmup)
    cost_rate: float  # sum_j c_j * Lbar_j
    final_backlog: float  # total jobs in system at the horizon
    peak_backlog: float  # max total jobs seen (instability telltale)
    horizon: float
    trajectory: np.ndarray | None = None  # optional (time, total jobs) samples


def simulate_network(
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
    (E13's measurement). The trajectory holds ``(time, total jobs)``
    snapshots from time 0 on, spaced ``horizon / trajectory_points``
    apart up to the horizon; each is taken after every event at or
    before its time, and snapshots count toward ``max_events`` like
    every other event.

    A class whose first inter-arrival time is infinite never arrives: a
    positive but subnormal ``arrival_rate`` (``1.0 / rate`` overflows)
    gives the rate-0 answer, after consuming that one draw.

    The engine is one ``heapq`` calendar of ``(time, seq, class, job)``
    tuples: the pending arrival per class (``job`` is ``None``) and the
    completion of every job in service, ordered by time and then by
    scheduling order. The warm-up reset and the next snapshot live
    outside it: the reset wins time ties and a snapshot loses them. A
    job record is ``[class, arrived, remaining, segment start,
    completion seq]``, with ``remaining`` negative until the first
    service start samples it. Preempting a job clears its completion
    seq, so the completion left on the calendar is skipped when it
    surfaces and does not count toward ``max_events``. Every draw is
    made when the event that needs it happens, so ``rng`` is left
    exactly after the run's last draw; E12's rho sweep carries one
    generator from run to run and relies on this.
    """
    n = network.n_classes
    classes = network.classes
    stations = network.stations
    K = len(stations)
    rexp = rng.exponential
    rrand = rng.random
    push = heapq.heappush
    pop = heapq.heappop
    replace = heapq.heapreplace
    inf = math.inf
    cum = np.cumsum(network.routing, axis=1)
    cum_rows = [list(cum[j]) for j in range(n)]
    row_last = [float(cum[j, -1]) for j in range(n)]
    # Exponential services collapse to one bound rng.exponential call with
    # the very scale Exponential.sample computes (the same draw, without
    # the method call); every other family keeps its own sample method.
    samplers = [
        (True, 1.0 / c.service.rate)
        if type(c.service) is Exponential
        else (False, c.service.sample)
        for c in classes
    ]
    station_of = [c.station for c in classes]
    prio_pos = [{c: p for p, c in enumerate(st.priority)} for st in stations]
    station_classes = [[j for j in range(n) if station_of[j] == k] for k in range(K)]
    # integer discipline codes keep the hot loop off string compares:
    # 0 priority, 1 preemptive, 2 fifo, 3 lcfs
    codes = {"priority": 0, "preemptive": 1, "fifo": 2, "lcfs": 3}
    disc_codes = [codes[st.discipline] for st in stations]
    n_servers = [st.n_servers for st in stations]
    priorities = [list(st.priority) for st in stations]
    queues = [deque() for _ in range(n)]
    busy: list[list] = [[] for _ in range(K)]  # job records in service
    qlevel = [0.0] * n
    qarea = [0.0] * n
    qlast = [0.0] * n
    mon_start = 0.0
    wsum = [0.0] * n
    wmean = [0.0] * n
    visits = [0] * n
    tlevel = 0.0
    tpeak = 0.0
    seq = 0
    cal: list[tuple] = []
    ascale = [(1.0 / c.arrival_rate) if c.arrival_rate > 0 else None for c in classes]
    for j in range(n):
        if ascale[j] is not None:
            push(cal, (rexp(ascale[j]), seq, j, None))
            seq += 1
    warmup = warmup_fraction * horizon
    wu_time = warmup if warmup > 0 else inf
    traj_t: list[float] = []
    traj_q: list[float] = []
    snap_time = 0.0 if record_trajectory else inf
    step = horizon / trajectory_points if record_trajectory else inf

    for _ in range(max_events):
        while cal:
            t, eseq, cls, job = cal[0]
            if job is None or job[4] == eseq:
                break
            pop(cal)  # a preempted service's completion
        else:
            t = inf
        if wu_time <= t and wu_time <= snap_time:
            # --- warm-up reset --------------------------------------------
            now = wu_time
            if now > horizon:
                break
            wu_time = inf
            for j in range(n):
                qarea[j] = 0.0
                qlast[j] = now
                wsum[j] = 0.0
                wmean[j] = 0.0
                visits[j] = 0
            mon_start = now
            continue
        if snap_time < t:
            # --- trajectory snapshot --------------------------------------
            now = snap_time
            traj_t.append(now)
            traj_q.append(tlevel)
            snap_time = now + step if now + step <= horizon else inf
            continue
        if t > horizon:
            break
        now = t
        # the event stays the calendar's head until the first event it
        # schedules replaces it in one sift; later ones are pushed
        put = replace
        if job is None:
            # --- exogenous arrival ----------------------------------------
            ent = cls
            tlevel += 1.0
            if tlevel > tpeak:
                tpeak = tlevel
        else:
            # --- service completion: route the job on ---------------------
            k = station_of[cls]
            busy_k = busy[k]
            busy_k.remove(job)
            visits[cls] += 1
            qarea[cls] += qlevel[cls] * (now - qlast[cls])
            qlevel[cls] -= 1.0
            qlast[cls] = now
            u = rrand()
            if u < row_last[cls]:
                ent = bisect_right(cum_rows[cls], u)
            else:
                ent = -1
                tlevel -= 1.0
        if ent >= 0:
            # --- job enters class ent: start, preempt, or queue -----------
            qarea[ent] += qlevel[ent] * (now - qlast[ent])
            qlevel[ent] += 1.0
            qlast[ent] = now
            ke = station_of[ent]
            busy_e = busy[ke]
            start = len(busy_e) < n_servers[ke]
            if not start and disc_codes[ke] == 1:
                # preemptive: bump the worst job in service if outranked
                pp = prio_pos[ke]
                worst = None
                worst_p = -1
                for w in busy_e:
                    p = pp[w[0]]
                    if p > worst_p:
                        worst, worst_p = w, p
                if pp[ent] < worst_p:
                    busy_e.remove(worst)
                    worst[2] -= now - worst[3]
                    if worst[2] < 1e-12:
                        worst[2] = 1e-12
                    worst[4] = -1
                    queues[worst[0]].appendleft(worst)
                    start = True
            if start:
                is_exp, s = samplers[ent]
                rem = float(rexp(s)) if is_exp else float(s(rng))
                wsum[ent] += 1.0  # a wait of 0
                wmean[ent] += (1.0 / wsum[ent]) * (0.0 - wmean[ent])
                njob = [ent, now, rem, now, seq]
                busy_e.append(njob)
                put(cal, (now + rem, seq, ent, njob))
                put = push
                seq += 1
            else:
                queues[ent].append([ent, now, -1.0, -1.0, -1])
        if job is None:
            put(cal, (now + rexp(ascale[ent]), seq, ent, None))
            seq += 1
        else:
            # --- backfill freed servers from the queues -------------------
            ns = n_servers[k]
            d = disc_codes[k]
            while len(busy_k) < ns:
                njob = None
                if d <= 1:
                    for cls2 in priorities[k]:
                        q2 = queues[cls2]
                        if q2:
                            njob = q2.popleft()
                            break
                else:
                    newest = d == 3
                    best_q = None
                    for j2 in station_classes[k]:
                        q2 = queues[j2]
                        if q2:
                            cand = q2[-1] if newest else q2[0]
                            if njob is None or (
                                cand[1] > njob[1] if newest else cand[1] < njob[1]
                            ):
                                njob, best_q = cand, q2
                    if njob is not None:
                        if newest:
                            best_q.pop()
                        else:
                            best_q.popleft()
                if njob is None:
                    break
                cls2 = njob[0]
                rem = njob[2]
                if rem < 0:
                    # first service start: sample the work, record the wait
                    is_exp, s = samplers[cls2]
                    rem = float(rexp(s)) if is_exp else float(s(rng))
                    njob[2] = rem
                    wsum[cls2] += 1.0
                    wmean[cls2] += (1.0 / wsum[cls2]) * ((now - njob[1]) - wmean[cls2])
                njob[3] = now
                njob[4] = seq
                busy_k.append(njob)
                put(cal, (now + rem, seq, cls2, njob))
                put = push
                seq += 1
            if put is replace:
                pop(cal)

    denom = horizon - mon_start
    Lbar = np.array(
        [
            (qarea[j] + qlevel[j] * (horizon - qlast[j])) / denom
            if denom > 0
            else math.nan
            for j in range(n)
        ]
    )
    W = np.array([wmean[j] if wsum[j] else math.nan for j in range(n)])
    costs = np.array([c.cost for c in classes])
    return NetworkResult(
        mean_queue_lengths=Lbar,
        mean_waits=W,
        visit_counts=np.array(visits, dtype=np.int64),
        cost_rate=float(np.dot(costs, Lbar)),
        final_backlog=float(tlevel),
        peak_backlog=float(tpeak),
        horizon=horizon,
        trajectory=np.column_stack([traj_t, traj_q]) if record_trajectory else None,
    )


def simulate_network_replications(
    network: QueueingNetwork,
    horizon: float,
    n_replications: int,
    *,
    seed: int | None = None,
    warmup_fraction: float = 0.1,
    level: float = 0.95,
):
    """Run independent replications of :func:`simulate_network` and return
    confidence intervals for the cost rate and per-class queue lengths.

    Returns a dict with keys ``cost_rate`` (a
    :class:`repro.utils.stats.ConfidenceInterval`) and ``queue_lengths`` (a
    list of intervals, one per class). Streams are spawned via SeedSequence
    so replications never share randomness.
    """
    from repro.utils.rng import spawn_generators
    from repro.utils.stats import mean_confidence_interval

    if n_replications < 2:
        raise ValueError("need at least two replications for an interval")
    rngs = spawn_generators(seed, n_replications)
    costs = np.empty(n_replications)
    lengths = np.empty((n_replications, network.n_classes))
    for r, rng in enumerate(rngs):
        res = simulate_network(
            network, horizon, rng, warmup_fraction=warmup_fraction
        )
        costs[r] = res.cost_rate
        lengths[r] = res.mean_queue_lengths
    return {
        "cost_rate": mean_confidence_interval(costs, level=level),
        "queue_lengths": [
            mean_confidence_interval(lengths[:, j], level=level)
            for j in range(network.n_classes)
        ],
    }
