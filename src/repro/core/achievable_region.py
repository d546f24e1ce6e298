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
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.conservation import workload_set_function

__all__ = ["achievable_region_lp", "AchievableRegionSolution"]

#: elements of one block's ``(orders, classes)`` arrays in the vertex scan
_ORDER_BLOCK = 1 << 16


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

    best_order = _closest_priority_order(lam, m2, rho, W)
    return AchievableRegionSolution(
        workloads=x,
        waiting_times=W,
        optimal_cost=cost,
        priority_order=best_order,
    )


def _closest_priority_order(
    lam: np.ndarray, m2: np.ndarray, rho: np.ndarray, W: np.ndarray
) -> tuple:
    """The first strict priority order, in ``itertools.permutations``
    order, whose Cobham waiting times lie closest to ``W`` in max norm.

    The orders are scanned in blocks sharing a prefix, a block's
    ``sigma``/``W_k`` recurrence running down a column per priority
    position. Each order's floats are the ones
    :func:`repro.core.conservation.priority_performance_vector` computes
    for it, and ``argmin`` keeps the first minimum within a block as the
    strict ``<`` across blocks does, so ties go to the earliest order.
    """
    n = lam.size
    w0 = float(np.sum(lam * m2) / 2.0)
    depth = 0
    while depth < n and math.factorial(n - depth) * n > _ORDER_BLOCK:
        depth += 1
    tails = np.array(list(itertools.permutations(range(n - depth))), dtype=np.intp)
    best_order, best_err = None, np.inf
    for head in itertools.permutations(range(n), depth):
        rest = np.array(sorted(set(range(n)) - set(head)), dtype=np.intp)
        # itertools.permutations is lexicographic, so the orders extending
        # `head` are its remaining classes permuted as range(n - depth) is
        block = np.concatenate(
            [np.broadcast_to(np.array(head, dtype=np.intp), (len(tails), depth)), rest[tails]],
            axis=1,
        )
        sigma_prev = np.zeros(len(block))
        err = np.zeros(len(block))
        for cls in block.T:
            sigma_k = sigma_prev + rho[cls]
            waits = w0 / ((1.0 - sigma_prev) * (1.0 - sigma_k))
            err = np.maximum(err, np.abs(waits - W[cls]))
            sigma_prev = sigma_k
        i = int(np.argmin(err))
        if err[i] < best_err:
            best_err, best_order = err[i], tuple(int(j) for j in block[i])
    return best_order
