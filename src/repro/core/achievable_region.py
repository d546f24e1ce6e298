"""The achievable-region method as an explicit optimisation
(Bertsimas–Niño-Mora [4], Dacre–Glazebrook–Niño-Mora [16]).

For the multiclass M/G/1 queue, the per-class expected workloads
``x_i = rho_i W_i + lambda_i E[S_i^2]/2`` of *any* admissible policy form a
polymatroid-like region described by

* subset inequalities  ``sum_{i in S} x_i >= b(S)``  for every S, and
* the full-set equality ``sum_i x_i = b(N)``,

with ``b`` from :func:`repro.core.conservation.workload_set_function`.
Minimising a linear holding cost over this region is an LP whose optimum is
attained at a vertex — and every vertex is the performance vector of a
strict priority rule. Solving the LP therefore *derives* the cµ rule rather
than assuming it: the optimal basis identifies the optimal priority order.

This module exposes that derivation as code, giving an independent,
optimisation-based construction of the optimal scheduling policy that the
interchange-argument construction in :mod:`repro.queueing.mg1` must match.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.conservation import (
    priority_performance_vector,
    workload_set_function,
)

__all__ = ["achievable_region_lp", "AchievableRegionSolution"]


@dataclass(frozen=True)
class AchievableRegionSolution:
    """Output of the achievable-region LP.

    Attributes
    ----------
    workloads:
        Optimal per-class expected workload vector ``x``.
    waiting_times:
        The waiting times implied by ``x`` (inverting
        ``x_i = rho_i W_i + lambda_i m2_i / 2``).
    optimal_cost:
        ``sum_i c_i lambda_i (W_i + m_i)`` — the holding-cost rate.
    priority_order:
        The strict priority order whose Cobham performance vector matches
        the LP vertex (highest priority first).
    """

    workloads: np.ndarray
    waiting_times: np.ndarray
    optimal_cost: float
    priority_order: tuple


def achievable_region_lp(
    arrival_rates: Sequence[float],
    mean_services: Sequence[float],
    second_moments: Sequence[float],
    costs: Sequence[float],
) -> AchievableRegionSolution:
    """Minimise the holding-cost rate over the achievable workload region.

    The LP has one variable per class and ``2^N - 1`` constraints; the
    optimal vertex is matched (by value) to a strict priority order via
    Cobham's formulas. Intended for the survey's regime of a handful of
    classes (N <= ~12).
    """
    from scipy.optimize import linprog

    lam = np.asarray(arrival_rates, dtype=float)
    ms = np.asarray(mean_services, dtype=float)
    m2 = np.asarray(second_moments, dtype=float)
    c = np.asarray(costs, dtype=float)
    n = lam.size
    if not (ms.size == m2.size == c.size == n):
        raise ValueError("all inputs must share the class dimension")
    if n > 12:
        raise ValueError("achievable-region LP limited to 12 classes (2^N constraints)")
    rho = lam * ms

    # cost in terms of workloads: cost = sum_i c_i lam_i (W_i + m_i)
    #   = sum_i (c_i / m_i) x_i + const, with
    # x_i = rho_i W_i + lam_i m2_i / 2  =>  W_i = (x_i - lam_i m2_i/2)/rho_i
    coeff = c / ms  # the c-mu weights appear naturally
    const = float(np.sum(c * lam * ms) - np.sum(coeff * lam * m2 / 2.0))

    A_ub, b_ub = [], []
    for r in range(1, n):
        for S in itertools.combinations(range(n), r):
            row = np.zeros(n)
            row[list(S)] = -1.0  # -sum x <= -b(S)
            A_ub.append(row)
            b_ub.append(-workload_set_function(lam, ms, m2, S))
    A_eq = np.ones((1, n))
    b_eq = np.array([workload_set_function(lam, ms, m2, range(n))])
    res = linprog(
        coeff,
        A_ub=np.asarray(A_ub) if A_ub else None,
        b_ub=np.asarray(b_ub) if b_ub else None,
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=[(0, None)] * n,
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"achievable-region LP failed: {res.message}")
    x = np.asarray(res.x)
    W = (x - lam * m2 / 2.0) / np.where(rho > 0, rho, 1.0)
    cost = float(np.dot(c, lam * (W + ms)))

    # identify the priority order realising this vertex
    best_order, best_err = None, np.inf
    for order in itertools.permutations(range(n)):
        W_ord = priority_performance_vector(lam, ms, m2, order)
        err = float(np.max(np.abs(W_ord - W)))
        if err < best_err:
            best_err, best_order = err, order
    return AchievableRegionSolution(
        workloads=x,
        waiting_times=W,
        optimal_cost=cost,
        priority_order=tuple(best_order),
    )
