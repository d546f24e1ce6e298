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
the bound's search and every index bisection of one fleet in lockstep, and
:func:`simulate_heterogeneous_restless` rolls a fleet out under any
state-indexed rule, such as :class:`ProjectIndexTables`.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Generator, Sequence

import numpy as np

from repro.bandits.restless import (
    RestlessProject,
    _drive,
    _gather,
    _speculate,
    _SubsidyProblems,
    _whittle,
    whittle_index_tables,
)
from repro.core.indices import IndexRule

__all__ = [
    "heterogeneous_relaxation_bound",
    "heterogeneous_whittle_rule",
    "ProjectIndexTables",
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
    as a speculating lockstep search (see :mod:`repro.bandits.restless`)."""
    phi = (np.sqrt(5.0) - 1.0) / 2.0

    def evaluate(lams: list) -> Generator:
        return _gather([_dual(ks, lam, passive_budget) for lam in lams])

    def step(state):
        phase = state[0]
        if phase < 2:
            # expand until the minimum is interior (convexity: compare
            # endpoints): phase 0 moves lo down and phase 1 hi up, each at
            # most 30 times
            _, lo, hi, n = state

            def advance(ok, _):
                lo1, hi1 = lo, hi
                if not ok:
                    if phase == 0:
                        lo1 = lo - (hi - lo)
                    else:
                        hi1 = hi + (hi - lo)
                    if n < 29:
                        return phase, lo1, hi1, n + 1
                if phase == 0:
                    return 1, lo1, hi1, 0
                c, d = hi1 - phi * (hi1 - lo1), lo1 + phi * (hi1 - lo1)
                return 2, lo1, hi1, c, d, None, None, "cd"

            points = (lo, lo + tol * 10) if phase == 0 else (hi, hi - tol * 10)
            return points, lambda f: f[0] > f[1], advance
        if phase == 3:  # the bound at the minimiser
            lam_star = state[1]
            return (
                (lam_star,),
                lambda f: True,
                lambda ok, f: (4, lam_star, None if f is None else f[0]),
            )
        if phase == 4:
            return None
        # golden-section step: solve the pending points ("c", "d" or both),
        # then narrow [a, b] towards the smaller of fc and fd
        _, a, b, c, d, fc, fd, pending = state

        def filled(f):
            if f is None:  # not solved yet: only the points matter
                return None, None
            if pending == "cd":
                return f[0], f[1]
            return (f[0], fd) if pending == "c" else (fc, f[0])

        def decide(f):
            fc1, fd1 = filled(f)
            return fc1 < fd1

        def advance(ok, f):
            fc1, fd1 = filled(f)
            if not b - a > tol:
                return 3, 0.5 * (a + b)
            if ok:
                b1, d1 = d, c
                return 2, a, b1, b1 - phi * (b1 - a), d1, None, fc1, "c"
            a1, c1 = c, d
            return 2, a1, b, c1, a1 + phi * (b - a1), fd1, None, "d"

        points = {"cd": (c, d), "c": (c,), "d": (d,)}[pending]
        return points, decide, advance

    _, lam_star, bound = yield from _speculate((0, lo, hi, 0), step, evaluate)
    return bound, lam_star


def _bound_search(
    projects: list[RestlessProject],
    m_active: int,
    tol: float,
    bracket: tuple[float, float] | None,
) -> Generator:
    """The fleet's dual-minimum search; project ``k`` is ``projects[k]``."""
    N = len(projects)
    if not 0 <= m_active <= N:
        raise ValueError("need 0 <= m_active <= N")
    if bracket is None:
        span = max(
            float(max(p.R1.max(), p.R0.max()) - min(p.R1.min(), p.R0.min()))
            for p in projects
        )
        span = max(span, 1.0)
        lo, hi = -5.0 * span, 5.0 * span
    else:
        lo, hi = bracket
    return _dual_minimum(range(N), N - m_active, lo, hi, tol)


def relaxation_bounds_and_indices(
    projects: Sequence[RestlessProject], m_active: int
) -> tuple[tuple[float, float], list[np.ndarray]]:
    """Everything E19 derives from its fleet, in one lockstep run: the
    fleet's ``(bound, lam_star)`` (:func:`heterogeneous_relaxation_bound`)
    and each project's average-criterion Whittle index table
    (:func:`heterogeneous_whittle_rule`).

    The golden-section search and every Whittle bisection advance side by
    side, each speculating several steps per round, and each round's
    distinct subsidy solves — bound and index solves alike — form one
    stacked relative-value-iteration call. Each result is bit-for-bit the
    one the fleet or project solved alone, one step per round, gets.
    """
    projects = list(projects)
    # the default tolerances of the bound and the index-table calls
    search = _gather([
        _bound_search(projects, m_active, 1e-5, None),
        _gather([_whittle(k, p, 1e-6) for k, p in enumerate(projects)]),
    ])
    bound, tables = _drive(search, _SubsidyProblems(projects).solve)
    return bound, tables


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
    :func:`relaxation_bounds_and_indices` runs the same search side by side
    with the fleet's Whittle bisections.
    """
    projects = list(projects)
    search = _bound_search(projects, m_active, tol, bracket)
    return _drive(search, _SubsidyProblems(projects).solve)


class ProjectIndexTables(IndexRule):
    """An index rule given by one table per project: project ``k`` in
    state ``s`` has index ``tables[k][s]``."""

    def __init__(self, tables: Sequence[np.ndarray], name: str):
        self._tables = list(tables)
        self._name = name

    def index(self, item, state=None):
        return float(self._tables[int(item)][0 if state is None else int(state)])

    @property
    def name(self):
        return self._name


def heterogeneous_whittle_rule(
    projects: Sequence[RestlessProject], **kwargs
) -> IndexRule:
    """Whittle-index rule for a heterogeneous fleet: each project gets its
    own index table; the policy activates the m projects of highest current
    index across the fleet."""
    return ProjectIndexTables(whittle_index_tables(projects, **kwargs), "Whittle[heterogeneous]")


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
    fleet (cf. :func:`repro.bandits.relaxation.simulate_restless`, the
    homogeneous special case).

    The rule is read once per (project, state), so it may depend on the
    state only, as in :func:`~repro.bandits.relaxation.simulate_restless`.
    Each epoch activates the ``m_active`` largest indices (ties to the
    lowest id), draws ``rng.random(N)`` once, and moves project ``k`` to
    the first state whose cumulative transition probability exceeds its
    draw; the epoch reward adds up in ascending project id.
    """
    N = len(projects)
    if not 0 <= m_active <= N:
        raise ValueError("need 0 <= m_active <= N")
    index = [[rule.index(k, s) for s in range(p.n_states)] for k, p in enumerate(projects)]
    # per project, (passive, active) rewards and cumulative transition rows
    rewards = [(p.R0.tolist(), p.R1.tolist()) for p in projects]
    cums = [
        (np.cumsum(p.P0, axis=1).tolist(), np.cumsum(p.P1, axis=1).tolist())
        for p in projects
    ]
    states = [0] * N
    total = 0.0
    counted = 0
    for t in range(horizon):
        prio = [index[k][s] for k, s in enumerate(states)]
        # a stable descending sort keeps equal indices in ascending id
        active = [0] * N
        for k in sorted(range(N), key=prio.__getitem__, reverse=True)[:m_active]:
            active[k] = 1
        reward = 0.0
        u = rng.random(N).tolist()
        for k in range(N):
            a, s = active[k], states[k]
            reward += rewards[k][a][s]
            states[k] = bisect_right(cums[k][a][s], u[k])
        if t >= warmup:
            total += reward
            counted += 1
    if counted == 0:
        raise ValueError("horizon must exceed warmup")
    return total / counted
