"""Heterogeneous restless-bandit fleets (Bertsimas–Niño-Mora [7]).

The Weber–Weiss experiment (E8) uses N i.i.d. copies of one project; [7]
tests index heuristics computationally on *heterogeneous* instances. The
Whittle relaxation still decouples: for a subsidy ``lam`` each project k
solves its own average-reward subsidy problem, and the Lagrangian

``L(lam) = sum_k g_k(lam) - lam * (N - m)``

upper-bounds the original problem for every ``lam`` (the subsidy prices the
passivity budget ``N - m``). Minimising over ``lam`` (the dual is convex)
gives the tightest decoupled bound; the minimiser ``lam*`` is the fleet's
shadow price of service capacity, and each project's Whittle indices are
computed per project as usual. :func:`relaxation_bounds_and_indices` runs
both searches for many fleets in lockstep.
"""

from __future__ import annotations

from typing import Generator, Sequence

import numpy as np

from repro.bandits.restless import (
    RestlessProject,
    _drive,
    _gather,
    _SubsidyProblems,
    _whittle,
    whittle_index_tables,
)
from repro.core.indices import IndexRule

__all__ = [
    "heterogeneous_relaxation_bound",
    "heterogeneous_whittle_rule",
    "relaxation_bounds_and_indices",
    "simulate_heterogeneous_restless",
]


def _subsidy_value(project: RestlessProject, lam: float) -> float:
    """Optimal average reward of one project's lam-subsidy problem."""
    (gain,) = _SubsidyProblems([project]).solve([("gain", 0, lam)])
    return gain


def _dual(ks: range, lam: float, passive_budget: int) -> Generator:
    """The dual function ``L(lam) = sum_k g_k(lam) - lam * (N - m)`` of the
    fleet of projects ``ks``: the subsidy prices the passivity budget."""
    gains = yield [("gain", k, lam) for k in ks]
    return sum(gains) - lam * passive_budget


def _dual_minimum(
    ks: range, passive_budget: int, lo: float, hi: float, tol: float
) -> Generator:
    """Golden-section search for the minimum of the fleet's dual function,
    as a lockstep search (see :mod:`repro.bandits.restless`)."""

    def duals(*lams: float) -> Generator:
        return _gather([_dual(ks, lam, passive_budget) for lam in lams])

    # expand until the minimum is interior (convexity: compare endpoints)
    for _ in range(30):
        f_lo, f_in = yield from duals(lo, lo + tol * 10)
        if f_lo > f_in:
            break
        lo -= (hi - lo)
    for _ in range(30):
        f_hi, f_in = yield from duals(hi, hi - tol * 10)
        if f_hi > f_in:
            break
        hi += (hi - lo)
    # golden-section search
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = yield from duals(c, d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = yield from _dual(ks, c, passive_budget)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = yield from _dual(ks, d, passive_budget)
    lam_star = 0.5 * (a + b)
    bound = yield from _dual(ks, lam_star, passive_budget)
    return bound, lam_star


def _bound_searches(
    fleets: list[list[RestlessProject]],
    m_active: int,
    tol: float,
    bracket: tuple[float, float] | None,
) -> list[Generator]:
    """One dual-minimum search per fleet; project ``k`` of the searches is
    position ``k`` of the concatenated fleets."""
    searches, first = [], 0
    for fleet in fleets:
        N = len(fleet)
        if not 0 <= m_active <= N:
            raise ValueError("need 0 <= m_active <= N")
        if bracket is None:
            span = max(
                float(max(p.R1.max(), p.R0.max()) - min(p.R1.min(), p.R0.min()))
                for p in fleet
            )
            span = max(span, 1.0)
            lo, hi = -5.0 * span, 5.0 * span
        else:
            lo, hi = bracket
        ks = range(first, first + N)
        searches.append(_dual_minimum(ks, N - m_active, lo, hi, tol))
        first += N
    return searches


def relaxation_bounds_and_indices(
    fleets: Sequence[Sequence[RestlessProject]], m_active: int
) -> tuple[list[tuple[float, float]], list[list[np.ndarray]]]:
    """Everything E19 derives from its fleets, in one lockstep run: each
    fleet's ``(bound, lam_star)`` (:func:`heterogeneous_relaxation_bound`)
    and each of its projects' average-criterion Whittle index table
    (:func:`heterogeneous_whittle_rule`).

    Every fleet's golden-section search and every Whittle bisection
    advance one step per round, and each round's distinct subsidy solves
    — bound and index solves alike — form one stacked
    relative-value-iteration call. Each result is bit-for-bit the one the
    fleet or project solved alone gets.
    """
    fleets = [list(fleet) for fleet in fleets]
    projects = [p for fleet in fleets for p in fleet]
    # the default tolerances of the one-fleet and one-project calls
    search = _gather([
        _gather(_bound_searches(fleets, m_active, 1e-5, None)),
        _gather([_whittle(k, p, 1e-6) for k, p in enumerate(projects)]),
    ])
    bounds, tables = _drive(search, _SubsidyProblems(projects).solve)
    first = np.cumsum([0] + [len(fleet) for fleet in fleets])
    return bounds, [tables[i:j] for i, j in zip(first[:-1], first[1:])]


def heterogeneous_relaxation_bound(
    projects: Sequence[RestlessProject],
    m_active: int,
    *,
    tol: float = 1e-5,
    bracket: tuple[float, float] | None = None,
) -> tuple[float, float]:
    """Tightest Lagrangian/Whittle relaxation bound for a heterogeneous
    fleet with ``m_active`` of ``len(projects)`` active per epoch.

    Returns ``(bound_total_per_epoch, lam_star)``. The dual function
    ``L(lam)`` is convex and piecewise linear; it is minimised by golden-
    section search over an automatically expanded bracket.
    :func:`relaxation_bounds_and_indices` runs the same search for many
    fleets at once.
    """
    projects = list(projects)
    (search,) = _bound_searches([projects], m_active, tol, bracket)
    return _drive(search, _SubsidyProblems(projects).solve)


class _HeterogeneousWhittle(IndexRule):
    """Per-project Whittle tables keyed by project position."""

    def __init__(self, tables: list[np.ndarray]):
        self._tables = tables

    def index(self, item, state=None):
        return float(self._tables[int(item)][0 if state is None else int(state)])

    @property
    def name(self):
        return "Whittle[heterogeneous]"


def heterogeneous_whittle_rule(
    projects: Sequence[RestlessProject], **kwargs
) -> IndexRule:
    """Whittle-index rule for a heterogeneous fleet: each project gets its
    own index table; the policy activates the m projects of highest current
    index across the fleet."""
    return _HeterogeneousWhittle(whittle_index_tables(projects, **kwargs))


def simulate_heterogeneous_restless(
    projects: Sequence[RestlessProject],
    m_active: int,
    rule: IndexRule,
    horizon: int,
    rng: np.random.Generator,
    *,
    warmup: int = 0,
) -> float:
    """Average total reward per epoch of a priority rule on a heterogeneous
    fleet (cf. :func:`repro.bandits.relaxation.simulate_restless`, which is
    the vectorised homogeneous special case)."""
    N = len(projects)
    if not 0 <= m_active <= N:
        raise ValueError("need 0 <= m_active <= N")
    states = [0] * N
    cums = [
        (np.cumsum(p.P0, axis=1), np.cumsum(p.P1, axis=1)) for p in projects
    ]
    total = 0.0
    counted = 0
    for t in range(horizon):
        prio = np.array([rule.index(k, states[k]) for k in range(N)])
        order = np.lexsort((np.arange(N), -prio))
        active = set(order[:m_active].tolist())
        reward = 0.0
        u = rng.random(N)
        for k in range(N):
            p = projects[k]
            if k in active:
                reward += p.R1[states[k]]
                states[k] = int(np.searchsorted(cums[k][1][states[k]], u[k], side="right"))
            else:
                reward += p.R0[states[k]]
                states[k] = int(np.searchsorted(cums[k][0][states[k]], u[k], side="right"))
        if t >= warmup:
            total += reward
            counted += 1
    if counted == 0:
        raise ValueError("horizon must exceed warmup")
    return total / counted
