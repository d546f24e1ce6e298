"""Restless bandits and the Whittle index (Whittle [48]).

A restless project evolves (and may earn) under *both* actions: active
(engaged) and passive. With ``N`` projects of which exactly ``m`` must be
active at each epoch, the problem is PSPACE-hard in general; Whittle's
heuristic relaxes the per-epoch constraint to an *average* activation
constraint, decouples the projects via a Lagrange multiplier ``lam`` (a
subsidy paid for passivity), and defines:

* **indexability**: the set of states where passivity is optimal grows
  monotonically from empty to everything as ``lam`` sweeps (-inf, +inf);
* the **Whittle index** of state s: the critical subsidy ``lam(s)`` at which
  active and passive become equally attractive in s.

The Whittle policy activates the m projects of highest current index; it
reduces to Gittins for classical bandits and is asymptotically optimal as
``N -> inf`` with ``m/N`` fixed (Weber–Weiss [44], E8).

This module computes the index by *bisection on the subsidy* against exact
single-project solves (value iteration for the discounted criterion,
relative value iteration for the average criterion) and checks indexability
on a subsidy grid. The searches run in lockstep: every bisection of every
state of every project advances one step per round, and a round's distinct
``(project, subsidy)`` solves form one stacked relative-value-iteration
call (:func:`repro.mdp.solvers.stacked_relative_value_iteration`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Sequence

import numpy as np

from repro.mdp.core import FiniteMDP
from repro.mdp.solvers import stacked_relative_value_iteration, value_iteration
from repro.utils.rng import as_generator
from repro.utils.validation import check_probability_matrix

__all__ = [
    "RestlessProject",
    "random_restless_project",
    "whittle_indices",
    "whittle_index_tables",
    "is_indexable",
    "passive_set",
]

_PASSIVE, _ACTIVE = 0, 1


@dataclass(frozen=True)
class RestlessProject:
    """A restless arm: per-action transition matrices and rewards.

    ``P0/R0`` describe the passive dynamics/rewards, ``P1/R1`` the active
    ones. Classical bandits are the special case ``P0 = I, R0 = 0``.
    """

    P0: np.ndarray
    P1: np.ndarray
    R0: np.ndarray
    R1: np.ndarray

    def __post_init__(self):
        P0 = check_probability_matrix(np.asarray(self.P0, dtype=float), "P0")
        P1 = check_probability_matrix(np.asarray(self.P1, dtype=float), "P1")
        n = P0.shape[0]
        if P1.shape != (n, n):
            raise ValueError("P0 and P1 must have the same shape")
        R0 = np.asarray(self.R0, dtype=float)
        R1 = np.asarray(self.R1, dtype=float)
        if R0.shape != (n,) or R1.shape != (n,):
            raise ValueError("R0 and R1 must have one entry per state")
        object.__setattr__(self, "P0", P0)
        object.__setattr__(self, "P1", P1)
        object.__setattr__(self, "R0", R0)
        object.__setattr__(self, "R1", R1)

    @property
    def n_states(self) -> int:
        """Number of states."""
        return self.P0.shape[0]

    @property
    def transitions(self) -> np.ndarray:
        """``(2, S, S)`` stack of the passive and active transition matrices."""
        # P0/P1 were validated at construction and never change; stack
        # them once (index computations stack hundreds of solves per project)
        T = self.__dict__.get("_T_stacked")
        if T is None:
            T = np.stack([self.P0, self.P1])
            object.__setattr__(self, "_T_stacked", T)
        return T

    def subsidized_mdp(self, lam: float) -> FiniteMDP:
        """The single-project MDP where passivity earns an extra subsidy
        ``lam`` per period."""
        R = np.stack([self.R0 + lam, self.R1])
        return FiniteMDP(self.transitions, R, validate=False)


def random_restless_project(
    n_states: int,
    rng=None,
    *,
    reward_scale: float = 1.0,
    passive_drift: float = 0.3,
) -> RestlessProject:
    """A random restless project. Active dynamics are Dirichlet; passive
    dynamics mix a downward drift (decay towards state 0) with noise —
    a caricature of 'projects deteriorate while unattended'."""
    rng = as_generator(rng)
    n = n_states
    P1 = rng.dirichlet(np.ones(n), size=n)
    P0 = np.zeros((n, n))
    for i in range(n):
        noise = rng.dirichlet(np.ones(n))
        drift = np.zeros(n)
        drift[max(i - 1, 0)] = 1.0
        P0[i] = passive_drift * drift + (1 - passive_drift) * noise
    R1 = np.sort(rng.uniform(0.0, reward_scale, size=n))  # higher states pay more
    R0 = np.zeros(n)
    return RestlessProject(P0=P0, P1=P1, R0=R0, R1=R1)


_PASSIVE_TOL = 1e-9  # a state is passive-optimal when its Q-gap is at most this
# relative-value-iteration tolerance of each kind of subsidy solve
_RVI_TOL = {"gap": 1e-10, "gain": 1e-9}


class _SubsidyProblems:
    """The lam-subsidy problems of a list of projects, solved many at a time.

    A request is ``(kind, k, lam)``: the subsidy problem of
    ``projects[k]`` at ``lam``, answered with the active-minus-passive
    Q-gap of every state (``kind == "gap"``, under ``criterion``) or the
    optimal average reward (``kind == "gain"``). :meth:`solve` stacks the
    requests into one relative-value-iteration call per state count. Each
    answer is bit-for-bit the single-project solve of
    ``projects[k].subsidized_mdp(lam)``, so batching never changes a number.
    """

    def __init__(
        self,
        projects: Sequence[RestlessProject],
        criterion: str = "average",
        beta: float = 0.95,
    ):
        if criterion not in ("discounted", "average"):
            raise ValueError("criterion must be 'discounted' or 'average'")
        self.projects = list(projects)
        self.criterion = criterion
        self.beta = beta

    def solve(self, requests: Sequence[tuple[str, int, float]]) -> list:
        """The answer to every request, in order."""
        discounted = self.criterion == "discounted"
        groups: dict[tuple[int, bool], list[int]] = {}
        for i, (kind, k, _) in enumerate(requests):
            key = (self.projects[k].n_states, discounted and kind == "gap")
            groups.setdefault(key, []).append(i)
        out: list[Any] = [None] * len(requests)
        for (_, vi), rows in groups.items():
            ps = [self.projects[requests[i][1]] for i in rows]
            lam = np.array([requests[i][2] for i in rows], dtype=float)
            T = np.stack([p.transitions for p in ps])
            R0 = np.stack([p.R0 for p in ps]) + lam[:, None]
            R = np.stack([R0, np.stack([p.R1 for p in ps])], axis=1)
            if vi:
                h = np.stack([
                    value_iteration(FiniteMDP(t, r, validate=False), self.beta, tol=1e-10).value
                    for t, r in zip(T, R)
                ])
                T = self.beta * T
                gains = None
            else:
                tol = [_RVI_TOL[requests[i][0]] for i in rows]
                sol = stacked_relative_value_iteration(T, R, tol=np.array(tol))
                h, gains = sol.value, sol.gain
            # stacked matvecs: a stacked einsum would differ in the last ulp
            q0 = R[:, _PASSIVE] + (T[:, _PASSIVE] @ h[:, :, None])[:, :, 0]
            q1 = R[:, _ACTIVE] + (T[:, _ACTIVE] @ h[:, :, None])[:, :, 0]
            for j, (i, gap) in enumerate(zip(rows, q1 - q0)):
                out[i] = gap if requests[i][0] == "gap" else float(gains[j])
        return out


# ---------------------------------------------------------------------------
# Lockstep searches. Each search is a generator that yields the list of
# (project, subsidy) solves it needs next and is sent their results, so
# per-state bisections and per-fleet golden-section searches read like
# scalar loops while `_drive` advances all of them one step per round.
# ---------------------------------------------------------------------------


def _gather(searches: Sequence[Generator]) -> Generator:
    """Run ``searches`` side by side as one search: each round requests
    the concatenation of their requests; returns their results in order."""
    results: list[Any] = [None] * len(searches)
    pending: dict[int, list] = {}
    for i, search in enumerate(searches):
        try:
            pending[i] = next(search)
        except StopIteration as stop:
            results[i] = stop.value
    while pending:
        answers = yield [req for reqs in pending.values() for req in reqs]
        step: dict[int, list] = {}
        pos = 0
        for i, reqs in pending.items():
            part, pos = answers[pos : pos + len(reqs)], pos + len(reqs)
            try:
                step[i] = searches[i].send(part)
            except StopIteration as stop:
                results[i] = stop.value
        pending = step
    return results


def _drive(search: Generator, solve: Callable[[list], Sequence]) -> Any:
    """Run ``search`` to completion; each round's distinct requests go to
    one ``solve`` call."""
    try:
        requests = next(search)
        while True:
            distinct = list(dict.fromkeys(requests))
            answer = dict(zip(distinct, solve(distinct)))
            requests = search.send([answer[r] for r in requests])
    except StopIteration as stop:
        return stop.value


def _bracket(k: int, project: RestlessProject) -> Generator:
    """A subsidy interval on which project ``k``'s passive set sweeps from
    empty to full. Starts from the reward span and expands geometrically —
    under the average criterion the critical subsidy can exceed the one-step
    reward span by a large factor (an occasional activation with lasting
    state benefit stays worthwhile)."""
    span = float(
        max(project.R1.max(), project.R0.max()) - min(project.R1.min(), project.R0.min())
    )
    span = max(span, 1.0)
    lo = float(project.R1.min() - project.R0.max()) - 2.0 * span
    hi = float(project.R1.max() - project.R0.min()) + 2.0 * span
    for _ in range(40):
        (gap,) = yield [("gap", k, lo)]
        if not (gap <= _PASSIVE_TOL).any():
            break
        lo -= 4.0 * span
    for _ in range(40):
        (gap,) = yield [("gap", k, hi)]
        if (gap <= _PASSIVE_TOL).all():
            break
        hi += 4.0 * span
    return lo, hi


def _bisect(k: int, s: int, lo0: float, hi0: float, tol: float) -> Generator:
    """Whittle index of state ``s`` of project ``k``: bisection on the
    subsidy for the zero of the state's Q-gap."""
    lo, hi = lo0, hi0
    # ensure bracketing: gap(lo) >= 0 >= gap(hi)
    for _ in range(60):
        (gap,) = yield [("gap", k, lo)]
        if gap[s] >= -tol:
            break
        lo -= hi0 - lo0
    for _ in range(60):
        (gap,) = yield [("gap", k, hi)]
        if gap[s] <= tol:
            break
        hi += hi0 - lo0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        (gap,) = yield [("gap", k, mid)]
        if gap[s] > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _whittle(k: int, project: RestlessProject, tol: float) -> Generator:
    """Project ``k``'s Whittle index table: its bracket, then every
    state's bisection side by side."""
    lo0, hi0 = yield from _bracket(k, project)
    indices = yield from _gather(
        [_bisect(k, s, lo0, hi0, tol) for s in range(project.n_states)]
    )
    return np.array(indices)


def _indexable(project: RestlessProject, grid: int) -> Generator:
    """Indexability of a lone project (position 0), from one request for
    the whole subsidy grid."""
    lo, hi = yield from _bracket(0, project)
    gaps = yield [("gap", 0, lam) for lam in np.linspace(lo, hi, grid)]
    prev = np.zeros(project.n_states, dtype=bool)
    for gap in gaps:
        cur = gap <= _PASSIVE_TOL
        if np.any(prev & ~cur):
            return False
        prev = prev | cur
    return bool(prev.all())


def passive_set(
    project: RestlessProject, lam: float, *, criterion: str = "average", beta: float = 0.95
) -> np.ndarray:
    """Boolean mask of states where passivity is optimal under subsidy lam."""
    (gap,) = _SubsidyProblems([project], criterion, beta).solve([("gap", 0, lam)])
    return gap <= _PASSIVE_TOL


def is_indexable(
    project: RestlessProject,
    *,
    criterion: str = "average",
    beta: float = 0.95,
    grid: int = 60,
) -> bool:
    """Numeric indexability check: the passive set must be monotone
    nondecreasing (as a set) along an increasing subsidy grid wide enough
    that passivity is nowhere optimal at the bottom and everywhere optimal
    at the top. The whole grid is one stacked solve."""
    problems = _SubsidyProblems([project], criterion, beta)
    return _drive(_indexable(project, grid), problems.solve)


def whittle_index_tables(
    projects: Sequence[RestlessProject],
    *,
    criterion: str = "average",
    beta: float = 0.95,
    tol: float = 1e-6,
    check_indexability: bool = False,
) -> list[np.ndarray]:
    """Whittle index of every state of every project, by bisection on the
    subsidy (see :func:`whittle_indices`).

    All bisections — every state of every project — advance one step per
    round, and each round's distinct ``(project, subsidy)`` solves form
    one stacked relative-value-iteration call. The bisections share solves
    freely: all start from the same bracket and descend the same binary
    tree of midpoints, so states whose indices are close request the same
    subsidies in the same rounds. Every solve is a deterministic function
    of the exact subsidy float, so each table is bit-for-bit the one a
    project solved alone gets.
    """
    projects = list(projects)
    if check_indexability and not all(
        is_indexable(p, criterion=criterion, beta=beta) for p in projects
    ):
        raise ValueError("project is not indexable; the Whittle index is undefined")
    problems = _SubsidyProblems(projects, criterion, beta)
    search = _gather([_whittle(k, p, tol) for k, p in enumerate(projects)])
    return _drive(search, problems.solve)


def whittle_indices(
    project: RestlessProject,
    *,
    criterion: str = "average",
    beta: float = 0.95,
    tol: float = 1e-6,
    check_indexability: bool = False,
) -> np.ndarray:
    """Whittle index of every state by bisection on the subsidy.

    For each state s the index is the subsidy at which the active/passive
    Q-gap crosses zero; monotonicity of the gap in ``lam`` (guaranteed for
    indexable projects) makes bisection valid. Set ``check_indexability``
    to verify the premise first (raises ``ValueError`` if it fails). The
    one-project call of :func:`whittle_index_tables`.
    """
    (table,) = whittle_index_tables(
        [project],
        criterion=criterion,
        beta=beta,
        tol=tol,
        check_indexability=check_indexability,
    )
    return table
