"""Polling systems: one server, several queues, switchover times
(Levy–Sidi [25], E15).

The server visits queues in cyclic order; moving from queue i to the next
takes a random switchover time. Service at each visit follows a local
policy:

* ``exhaustive`` — serve the queue until it empties (including new arrivals
  during the visit);
* ``gated`` — serve exactly the customers present at the server's arrival;
* ``limited`` — serve at most one customer per visit.

Changeover costs qualitatively change optimal control: a cµ rule that
ignores them can switch itself into starvation. The classical quantitative
anchor is the Boxma–Groenendijk *pseudo-conservation law*, implemented in
:func:`pseudo_conservation_rhs` and verified against the simulator.

The simulator pre-generates per-queue Poisson arrival streams and walks the
server sequentially — no event calendar needed for a single-server system,
and the inner loop stays tight. Per queue it keeps a ``ready`` time, the
server time from which a visit there has work, so a visit that finds its
queue empty costs its switchover and one comparison. With short
switchovers most visits are of that kind.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.distributions.base import Distribution
from repro.distributions.continuous import Deterministic, Exponential

__all__ = ["PollingSystem", "PollingResult", "pseudo_conservation_rhs"]

_POLICIES = ("exhaustive", "gated", "limited")

# pre-drawn standard exponentials per block of service times
_BLOCK = 4096


@dataclass(frozen=True)
class PollingResult:
    """Steady-state estimates for one polling simulation."""

    mean_waits: np.ndarray  # per-queue mean waiting time (queue time)
    served: np.ndarray  # customers served per queue (post-warmup)
    cycle_time: float  # mean duration of a full server cycle
    weighted_wait_sum: float  # sum_i rho_i * W_i (pseudo-conservation LHS)


class PollingSystem:
    """A cyclic polling system.

    Parameters
    ----------
    arrival_rates:
        Poisson rate per queue.
    services:
        Service-time distribution per queue.
    switchovers:
        Switchover-time distribution entering each queue (the time to *reach*
        queue i from its predecessor).
    policy:
        'exhaustive', 'gated' or 'limited' (applied at every queue).
    """

    def __init__(
        self,
        arrival_rates: Sequence[float],
        services: Sequence[Distribution],
        switchovers: Sequence[Distribution],
        policy: str = "exhaustive",
    ):
        self.arrival_rates = np.asarray(arrival_rates, dtype=float)
        n = self.arrival_rates.size
        if len(services) != n or len(switchovers) != n:
            raise ValueError("services and switchovers must match arrival_rates")
        if np.any(self.arrival_rates < 0):
            raise ValueError("arrival rates must be nonnegative")
        if policy not in _POLICIES:
            raise ValueError(f"policy must be one of {_POLICIES}")
        self.services = tuple(services)
        self.switchovers = tuple(switchovers)
        self.policy = policy
        # Degenerate-at-zero switchovers (mean and variance both 0) are the
        # only case in which an empty sweep cannot advance the clock; the
        # simulator then idles to the next arrival instead of spinning.
        self._switchover_always_zero = all(
            s.mean == 0 and s.variance == 0 for s in self.switchovers
        )
        rho = float(np.sum(self.arrival_rates * [s.mean for s in self.services]))
        if rho >= 1:
            raise ValueError(f"unstable: total service load rho = {rho:.3f} >= 1")
        self.rho = rho

    @property
    def n_queues(self) -> int:
        """Number of queues."""
        return self.arrival_rates.size

    def simulate(
        self,
        horizon: float,
        rng: np.random.Generator,
        *,
        warmup_fraction: float = 0.1,
    ) -> PollingResult:
        """Simulate until ``horizon`` (server time) and return estimates.

        The arrival streams are pre-generated first. After that, each
        switchover and each service takes one ``sample(rng)`` draw at the
        moment the server needs it. When every service is
        :class:`~repro.distributions.Exponential` and every switchover is
        :class:`~repro.distributions.Deterministic` (so services are the
        only draws left), service times are served from pre-drawn
        ``standard_exponential`` blocks times the queue's mean instead:
        numpy computes ``rng.exponential(scale)`` as one multiply of a
        standard exponential from the same stream, so these are the same
        numbers, bit for bit, at a fraction of the call cost.

        ``rng`` is consumed: with pre-drawn blocks it ends ahead of the
        last draw the run used, so do not draw further results from it.

        A visit to queue ``i`` at server time ``t`` has work exactly when
        ``ready[i] <= t``, where ``ready[i]`` is ``-inf`` while customers
        wait there, the time of its next arrival otherwise, and ``inf``
        once its stream is exhausted. Only such a visit runs the admission
        and service body, which refreshes ``ready[i]`` at its end; any
        other visit draws nothing and changes nothing, so it only adds its
        switchover.
        """
        n = self.n_queues
        # Pre-generate arrival streams with margin; extend lazily if needed.
        arrivals: list[list[float]] = []
        for i in range(n):
            lam = self.arrival_rates[i]
            if lam == 0:
                arrivals.append([np.inf])
                continue
            m = int(lam * horizon * 1.3) + 50
            gaps = rng.exponential(1.0 / lam, size=m)
            ts = np.cumsum(gaps)
            while ts[-1] < horizon:
                more = rng.exponential(1.0 / lam, size=m // 2 + 10)
                ts = np.concatenate([ts, ts[-1] + np.cumsum(more)])
            arrivals.append(ts.tolist())
        sizes = [len(a) for a in arrivals]
        blocks = all(type(s) is Exponential for s in self.services) and all(
            type(s) is Deterministic for s in self.switchovers
        )
        if blocks:
            svc_scales = [1.0 / s.rate for s in self.services]
            sw_values = [float(s.value) for s in self.switchovers]
            std_exp = rng.standard_exponential
            buf = std_exp(_BLOCK).tolist()
        bpos = 0
        # the customers waiting at queue i are arrivals[i][serve_ptr[i]:
        # admit_ptr[i]]: arrivals are served in order, so two pointers
        # replace a pending list
        admit_ptr = [0] * n
        serve_ptr = [0] * n
        # the server time from which a visit to queue i has work
        ready = [a[0] for a in arrivals]
        warmup = warmup_fraction * horizon
        waits = [0.0] * n
        served = [0] * n
        t = 0.0
        i = 0
        cycles = 0
        cycle_start = 0.0
        cycle_durations: list[float] = []
        gated = self.policy == "gated"
        limited = self.policy == "limited"
        h4 = horizon * 4
        always_zero = self._switchover_always_zero

        while t < horizon:
            # switch into queue i
            if blocks:
                t += sw_values[i]
            else:
                t += float(self.switchovers[i].sample(rng))
            if ready[i] <= t:
                ts = arrivals[i]
                sz = sizes[i]
                h = admit_ptr[i]
                if h < sz and ts[h] <= t:
                    h = bisect_right(ts, t, h)
                sp = serve_ptr[i]
                if gated:
                    batch = h - sp
                elif limited:
                    batch = 1 if h > sp else 0
                else:
                    batch = -1  # exhaustive: until empty
                sv = 0
                while h > sp and (batch < 0 or sv < batch):
                    arr = ts[sp]
                    sp += 1
                    if t > warmup:
                        waits[i] += t - arr
                        served[i] += 1
                    if blocks:
                        if bpos == _BLOCK:
                            buf = std_exp(_BLOCK).tolist()
                            bpos = 0
                        t += svc_scales[i] * buf[bpos]
                        bpos += 1
                    else:
                        t += float(self.services[i].sample(rng))
                    sv += 1
                    while h < sz and ts[h] <= t:
                        h += 1
                    if batch < 0 and t > h4:  # runaway guard
                        raise RuntimeError("polling simulation diverged")
                admit_ptr[i] = h
                serve_ptr[i] = sp
                ready[i] = -np.inf if h > sp else ts[h] if h < sz else np.inf
            i += 1
            if i == n:
                i = 0
                if (
                    always_zero
                    and t == cycle_start
                    and not any(admit_ptr[j] > serve_ptr[j] for j in range(n))
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
                            float(arrivals[j][admit_ptr[j]])
                            for j in range(n)
                            if admit_ptr[j] < sizes[j]
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

        waits = np.array(waits)
        served = np.array(served, dtype=np.int64)
        mean_waits = np.where(served > 0, waits / np.maximum(served, 1), np.nan)
        rho_i = self.arrival_rates * np.array([s.mean for s in self.services])
        weighted = float(np.nansum(rho_i * mean_waits))
        return PollingResult(
            mean_waits=mean_waits,
            served=served,
            cycle_time=float(np.mean(cycle_durations)) if cycle_durations else np.nan,
            weighted_wait_sum=weighted,
        )


def pseudo_conservation_rhs(
    arrival_rates: Sequence[float],
    services: Sequence[Distribution],
    switchovers: Sequence[Distribution],
    policy: str = "exhaustive",
) -> float:
    """Boxma–Groenendijk pseudo-conservation law for cyclic polling:

    ``sum_i rho_i W_i = rho sum_i lam_i E[B_i^2] / (2 (1 - rho))
    + rho * E[S_tot^2] / (2 E[S_tot])
    + (E[S_tot] / (2 (1 - rho))) * (rho^2 -+ sum_i rho_i^2)``

    with ``S_tot`` the total switchover per cycle; the last bracket is
    ``rho^2 - sum rho_i^2`` for exhaustive and ``rho^2 + sum rho_i^2`` for
    gated service. (No closed form for limited service.)
    """
    lam = np.asarray(arrival_rates, dtype=float)
    b1 = np.array([s.mean for s in services])
    b2 = np.array([s.second_moment for s in services])
    rho_i = lam * b1
    rho = float(rho_i.sum())
    if rho >= 1:
        raise ValueError("rho must be < 1")
    s_means = np.array([s.mean for s in switchovers])
    s_vars = np.array([s.variance for s in switchovers])
    s1 = float(s_means.sum())
    s2 = float(s_vars.sum() + s1**2)  # independent switchovers
    term1 = rho * float(np.sum(lam * b2)) / (2.0 * (1.0 - rho))
    term2 = rho * s2 / (2.0 * s1) if s1 > 0 else 0.0
    if policy == "exhaustive":
        bracket = rho**2 - float(np.sum(rho_i**2))
    elif policy == "gated":
        bracket = rho**2 + float(np.sum(rho_i**2))
    else:
        raise ValueError("pseudo-conservation law implemented for exhaustive/gated only")
    term3 = s1 / (2.0 * (1.0 - rho)) * bracket
    return term1 + term2 + term3
