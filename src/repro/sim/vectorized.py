"""Batched primitives of the vectorized backend.

The event-driven path runs one replication at a time through a scenario's
``simulate`` function.  A *vectorized kernel* runs **all replications of a
scenario at once** on batched numpy arrays, while consuming exactly the
same randomness per replication: each replication's draws still come from
its own child :class:`numpy.random.SeedSequence` (the ones
:func:`repro.utils.rng.spawn_seed_sequences` hands the runner), in the
same order the event-driven path draws them.  The contract is therefore
*bit-for-bit*: for the same spawned seeds a kernel must return exactly the
per-replication metric dictionaries the event-driven backend returns —
``tests/test_backend_equivalence.py`` enforces this for every registered
kernel, and ``docs/ARCHITECTURE.md`` ("Seed-handling contract") lists
the rules a kernel follows to keep it.  The runner maps a backend
request to the backend that runs
(:func:`repro.experiments.runner.resolve_backend`).

The kernels themselves are defined in the scenario packs under
:mod:`repro.experiments.packs` and registered beside their scenarios in
:mod:`repro.experiments.registry`.  What lives here are the **generic
batched primitives** — scenario-agnostic numerics shared by the
``batched`` kernels: batched sequence flowtimes and brute-force
permutation minima, the batched subset DP for exponential parallel
machines, lockstep restless-fleet rollouts for E8 (all replications
advance one epoch per step), batched flow-shop recurrences, and batched
stochastic-order certification.

A ``direct`` kernel is the scenario's own ``simulate``, run once per
replication, and has no primitive here; ``repro-experiments packs``
lists which kernels are which.  A batched kernel is kept only while it
beats its event path by 2x or more, as measured by the a04 benchmark
(``benchmarks/bench_a04_vectorized_speedup.py``): a second
implementation under that does not pay for keeping it bit-identical, so
the event path is made faster instead and the kernel becomes ``direct``.

Bitwise-equality rules the primitives rely on (verified by the
equivalence tests, so a platform where one failed would fail loudly):

* elementwise array ops replicate the identical scalar IEEE-754 ops;
* ``np.cumsum`` accumulates left-to-right, matching ``t += x`` loops;
* ``a.sum(axis=-1)`` on a C-contiguous array applies the same pairwise
  reduction per row as ``row.sum()`` on the equal-length 1-D row (from
  length 8 on the order is unrolled, so the layout matters: ``w[:, idx]``
  mixes a slice with an index array and may come back non-C-contiguous,
  while ``w[rows, idx]`` with an index array on every axis is C order);
* ``np.argsort(key, kind="stable")`` equals
  ``np.lexsort((np.arange(n), key))`` and
  ``sorted(range(n), key=lambda j: (key[j], j))``;
* boolean indexing of a 2-D array enumerates row-major, i.e. per row in
  ascending column order — the order a per-replication boolean mask
  produces;
* ``np.linalg.solve`` on a stacked ``(N, S, S)`` system applies the same
  LAPACK routine per slice as the ``(S, S)`` solve;
* a stacked ``(N, S, S) @ (N, S, 1)`` matmul equals the per-slice
  ``(S, S) @ (S,)`` matrix–vector product, and ``(N, 1, S) @ (N, S, 1)``
  equals the per-slice 1-D dot (a stacked ``einsum`` matvec does not:
  it can differ in the last ulp);
* ``np.einsum("bast,bt->bas", T, v)`` equals ``np.einsum("ast,t->as",
  T[b], v[b])`` per slice (what lets a stacked relative value iteration
  replay the scalar one);
* ``rng.exponential(scale, size=k)`` consumes the same bit stream as
  ``k`` successive scalar ``rng.exponential(scale)`` calls, and
  ``rng.exponential(scale) == scale * rng.standard_exponential()``
  bit-for-bit (the scale is applied by one IEEE multiply), so scalar
  exponential draws may be served from a pre-drawn
  ``standard_exponential`` block even when consecutive draws use
  different scales.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

__all__ = [
    "all_permutations",
    "sequence_flowtime_batch",
    "min_flowtime_over_permutations",
    "subset_dp_batch",
    "lockstep_restless_rollouts",
    "exponential_family_st_ordered",
    "flowshop_makespan_batch",
]

# ---------------------------------------------------------------------------
# Batched single-machine sequencing
# ---------------------------------------------------------------------------

_PERM_CACHE: dict[int, np.ndarray] = {}


def all_permutations(n: int) -> np.ndarray:
    """All permutations of ``range(n)`` as an ``(n!, n)`` int array, in
    ``itertools.permutations`` order (cached — reused across batches)."""
    if n not in _PERM_CACHE:
        if n > 10:
            raise ValueError("permutation enumeration is limited to n <= 10")
        _PERM_CACHE[n] = np.array(
            list(itertools.permutations(range(n))), dtype=np.intp
        )
    return _PERM_CACHE[n]


def sequence_flowtime_batch(
    means: np.ndarray, weights: np.ndarray, orders: np.ndarray
) -> np.ndarray:
    """``E[sum_i w_i C_i]`` of serving jobs in the given orders on one
    machine, batched over leading dimensions.

    ``means``/``weights`` and ``orders`` broadcast against each other on
    every axis but the last (job axis).  Bit-for-bit identical to the
    sequential loop ``t += p; total += w * t`` of
    :func:`repro.batch.single_machine.expected_weighted_flowtime`: the
    completion times come from ``cumsum`` (left-to-right) and the weighted
    total from the last element of a second ``cumsum``.
    """
    p = np.take_along_axis(means, orders, axis=-1)
    w = np.take_along_axis(weights, orders, axis=-1)
    t = np.cumsum(p, axis=-1)
    return np.cumsum(w * t, axis=-1)[..., -1]


def min_flowtime_over_permutations(
    means: np.ndarray, weights: np.ndarray, *, max_elements: int = 1 << 20
) -> np.ndarray:
    """Brute-force minimum expected weighted flowtime over all n!
    sequences, batched over replications.

    ``means``/``weights`` have shape ``(N, n)``; returns ``(N,)``.  The
    sequences are walked as a prefix tree in ``itertools.permutations``
    order: level ``k`` holds ``(t, total)`` for every distinct prefix of
    length ``k + 1``, each prefix's row repeated once per child, then
    ``t += p; total += w * t`` for the job each child appends.  These
    are the float operations of
    :func:`repro.batch.single_machine.expected_weighted_flowtime`, in its
    order, while a prefix shared by many sequences is summed once.  The
    sequences are processed in blocks (all completions of one prefix) of
    at most ``max_elements`` values per array where possible; the
    running elementwise minimum is exact, so blocking cannot change the
    result.
    """
    means_t = np.ascontiguousarray(np.asarray(means, dtype=float).T)
    weights_t = np.ascontiguousarray(np.asarray(weights, dtype=float).T)
    n, N = means_t.shape
    perms = all_permutations(n)
    depth = 0
    while depth < n and math.factorial(n - depth) * N > max_elements:
        depth += 1
    size = math.factorial(n - depth)
    best = np.full(N, np.inf)
    for lo in range(0, perms.shape[0], size):
        block = perms[lo : lo + size]
        t = np.zeros((1, N))
        total = np.zeros((1, N))
        for k in range(n):
            # the job at position k of each distinct prefix of length k + 1
            jobs = block[:: math.factorial(n - k - 1), k]
            children = len(jobs) // len(t)
            if children > 1:
                t = np.repeat(t, children, axis=0)
                total = np.repeat(total, children, axis=0)
            t += means_t[jobs]
            total += weights_t[jobs] * t
        best = np.minimum(best, total.min(axis=0))
    return best


# ---------------------------------------------------------------------------
# Batched subset DP for exponential jobs on identical parallel machines
# ---------------------------------------------------------------------------

#: elements per (replications, masks, actions, machines) temporary of one
#: block of a subset-DP layer
_DP_BLOCK = 1 << 20


def subset_dp_batch(
    rates: np.ndarray,
    m: int,
    *,
    objective: str = "flowtime",
    weights: np.ndarray | None = None,
    policy: str | None = None,
    priority: np.ndarray | None = None,
) -> np.ndarray:
    """Batched version of :func:`repro.batch.exponential_dp._dp`.

    ``rates`` has shape ``(N, n)`` — one row of exponential rates per
    replication; the DP over the ``2^n`` uncompleted-job bitmasks runs
    once, with every state's value an ``(N,)`` vector.  ``objective`` is
    ``"flowtime"`` (holding cost ``sum of weights of uncompleted jobs``)
    or ``"makespan"`` (holding cost 1).  ``policy`` is ``None`` (optimise
    over the ``C(|U|, k)`` actions), ``"sept"`` (largest rates first),
    ``"lept"`` (smallest rates first) or ``"index"`` (largest entries of
    the per-replication ``priority`` array of shape ``(N, n)`` first —
    the static list policy E6's WSEPT action uses); policy ties break to
    the lowest job id, exactly like
    :func:`repro.batch.exponential_dp.sept_action`.

    Returns ``V[full mask]`` of shape ``(N,)``, bit-for-bit equal to
    running the scalar DP per replication. The DP runs one popcount layer
    at a time: all masks with the same number of uncompleted jobs (and,
    when optimising, all their actions) form one array computation.
    """
    rates = np.asarray(rates, dtype=float)
    if rates.ndim != 2:
        raise ValueError("rates must be (N, n)")
    N, n = rates.shape
    if m < 1:
        raise ValueError("need at least one machine")
    if np.any(rates <= 0):
        raise ValueError("rates must be positive")
    if objective not in ("flowtime", "makespan"):
        raise ValueError(f"unknown objective {objective!r}")
    if policy not in (None, "sept", "lept", "index"):
        raise ValueError(f"unknown policy {policy!r}")
    if policy == "index":
        if priority is None:
            raise ValueError("policy='index' requires a priority array")
        priority = np.asarray(priority, dtype=float)
        if priority.shape != rates.shape:
            raise ValueError("priority must have the same shape as rates")
    if objective == "flowtime":
        w = np.ones_like(rates) if weights is None else np.asarray(weights, dtype=float)
    rows = np.arange(N)[:, None, None, None]
    V = np.zeros((N, 1 << n))
    masks = np.arange(1 << n)
    bits = (masks[:, None] >> np.arange(n)) & 1
    popcount = bits.sum(axis=1)
    # one popcount layer at a time: a mask's successors all lie in the
    # layer below, so a layer is one set of array operations (in blocks of
    # masks that bound the (N, masks, actions, k) temporaries)
    for size in range(1, n + 1):
        k = min(m, size)
        if policy is None:
            # every C(size, k) action, in itertools.combinations order
            combos = np.array(list(itertools.combinations(range(size), k)), dtype=np.intp)
        n_actions = 1 if policy is not None else len(combos)
        layer_masks = masks[popcount == size]
        block = max(1, _DP_BLOCK // (N * n_actions * k))
        for lo in range(0, layer_masks.size, block):
            layer = layer_masks[lo : lo + block]  # (M,)
            jobs = np.nonzero(bits[layer])[1].reshape(layer.size, size)  # ascending ids
            # all-array indexing yields C order, so each mask's sum runs
            # along a contiguous last axis of the mask's length: numpy then
            # applies the scalar DP's summation order (w[:, jobs] would not
            # be C-contiguous)
            if objective == "flowtime":
                c = w[rows[..., 0], jobs].sum(axis=-1)[:, :, None]
            else:
                c = 1.0
            if policy is None:
                chosen = jobs[:, combos][None]  # (1, M, C, k)
            else:
                if policy == "index":
                    key = -priority[:, jobs]
                else:
                    key = -rates[:, jobs] if policy == "sept" else rates[:, jobs]
                # stable argsort == sorted(jobs, key=(key, job id))
                order = np.argsort(key, axis=-1, kind="stable")[..., :k]
                chosen = np.take_along_axis(np.broadcast_to(jobs, key.shape), order, axis=-1)
                chosen = chosen[:, :, None, :]  # (N, M, 1, k), in policy order
            chosen_rates = rates[rows, chosen]
            total = chosen_rates.sum(axis=-1)
            val = c / total
            for pos in range(k):
                succ = layer[:, None] & ~(1 << chosen[..., pos])
                val = val + (chosen_rates[..., pos] / total) * V[rows[..., 0], succ]
            V[:, layer] = val.min(axis=-1)
    return V[:, (1 << n) - 1]


# ---------------------------------------------------------------------------
# Lockstep restless-fleet rollouts (E8 family)
# ---------------------------------------------------------------------------


def lockstep_restless_rollouts(
    cum0: np.ndarray,
    cum1: np.ndarray,
    R0: np.ndarray,
    R1: np.ndarray,
    idx_table: np.ndarray,
    n_projects: int,
    m_active: int,
    horizon: int,
    rngs: Sequence[np.random.Generator],
    *,
    warmup: int = 0,
) -> np.ndarray:
    """All replications of a restless-fleet rollout advanced in lockstep.

    ``cum0``/``cum1`` are the row-cumsum passive/active transition
    matrices, ``R0``/``R1`` the per-state rewards and ``idx_table`` the
    per-state priority index.  Each replication ``r`` draws
    ``rngs[r].random(n_projects)`` once per epoch — the single draw
    :func:`repro.bandits.relaxation.simulate_restless` makes — so the
    randomness per replication is identical to the event path.  Returns
    the per-replication average reward per project per epoch after
    ``warmup``, shape ``(N,)``, bit-for-bit equal to the per-replication
    loop.
    """
    if not 0 <= m_active <= n_projects:
        raise ValueError("need 0 <= m_active <= n_projects")
    if horizon <= warmup:
        raise ValueError("horizon must exceed warmup")
    N = len(rngs)
    states = np.zeros((N, n_projects), dtype=np.int64)
    totals = np.zeros(N)
    u = np.empty((N, n_projects))
    n_passive = n_projects - m_active
    for t in range(horizon):
        prio = idx_table[states]
        # stable argsort == lexsort((arange, -prio)): ties to lowest id
        order = np.argsort(-prio, axis=1, kind="stable")
        mask = np.zeros((N, n_projects), dtype=bool)
        np.put_along_axis(mask, order[:, :m_active], True, axis=1)
        # boolean indexing enumerates row-major: per replication the
        # active (and passive) states appear in ascending project id, the
        # order the event path's boolean masks produce
        act_states = states[mask].reshape(N, m_active)
        pas_states = states[~mask].reshape(N, n_passive)
        if t >= warmup:
            reward = R1[act_states].sum(axis=1) + R0[pas_states].sum(axis=1)
            totals += reward
        for r in range(N):
            u[r] = rngs[r].random(n_projects)
        nxt = np.empty((N, n_projects), dtype=np.int64)
        if m_active:
            act_u = u[mask].reshape(N, m_active)
            nxt[mask] = ((act_u[:, :, None] > cum1[act_states]).sum(axis=2)).ravel()
        if n_passive:
            pas_u = u[~mask].reshape(N, n_passive)
            nxt[~mask] = ((pas_u[:, :, None] > cum0[pas_states]).sum(axis=2)).ravel()
        states = nxt
    counted = horizon - warmup
    return totals / counted / n_projects


# ---------------------------------------------------------------------------
# Batched flow-shop recurrences (E17 family)
# ---------------------------------------------------------------------------


def flowshop_makespan_batch(
    P: np.ndarray, order: Sequence[int], *, blocking: bool = False
) -> np.ndarray:
    """Batched :func:`repro.batch.flowshop.simulate_flowshop` makespans.

    ``P`` has shape ``(N, n_jobs, m_machines)`` — one realised
    processing-time matrix per replication; the permutation ``order`` is
    shared.  The classical completion recurrence (and its blocking
    variant) runs job-by-job with every intermediate an ``(N,)`` vector,
    so each replication's floats follow the identical max/add sequence as
    the scalar path.  Returns the ``(N,)`` makespans.
    """
    P = np.asarray(P, dtype=float)
    if P.ndim != 3:
        raise ValueError("P must be (N, n_jobs, m_machines)")
    N, n, m = P.shape
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of range(n)")
    if not blocking:
        prev = [np.zeros(N) for _ in range(m)]
        for jid in order:
            cur: list[np.ndarray] = []
            for k in range(m):
                start = np.maximum(prev[k], cur[k - 1] if k else 0.0)
                cur.append(start + P[:, jid, k])
            prev = cur
        return prev[-1]
    prev_dep = [np.zeros(N) for _ in range(m + 1)]
    for jid in order:
        dep = [np.zeros(N) for _ in range(m + 1)]
        for k in range(m):
            start = np.maximum(dep[k], prev_dep[k + 1]) if k else prev_dep[1]
            start = np.maximum(start, dep[k])
            finish = start + P[:, jid, k]
            if k + 1 < m:
                dep[k + 1] = np.maximum(finish, prev_dep[k + 2])
            else:
                dep[k + 1] = finish
        prev_dep = dep
    return prev_dep[m]


# ---------------------------------------------------------------------------
# Batched stochastic-order certification for exponential families (E3)
# ---------------------------------------------------------------------------


def exponential_family_st_ordered(
    rates: np.ndarray, *, grid: int = 1024, atol: float = 1e-7
) -> np.ndarray:
    """Batched ``is_stochastically_ordered_family`` for exponential
    families.

    ``rates`` has shape ``(N, n)``; returns an ``(N,)`` boolean vector,
    bit-for-bit reproducing the scalar path: sort the family by mean
    (stable, so ties keep their relative order), build the adaptive
    doubling grid of :func:`repro.distributions.ordering._grid_for` for
    every consecutive pair, and check pointwise survival dominance on a
    ``grid``-point ``linspace``.
    """
    rates = np.asarray(rates, dtype=float)
    N, n = rates.shape
    if n < 2:
        return np.ones(N, dtype=bool)
    means = 1.0 / rates
    order = np.argsort(means, axis=1, kind="stable")
    sorted_rates = np.take_along_axis(rates, order, axis=1)
    sorted_means = np.take_along_axis(means, order, axis=1)
    # pair p compares smaller = sorted[p], larger = sorted[p + 1]
    pair_rates = np.stack([sorted_rates[:, 1:], sorted_rates[:, :-1]], axis=-1)
    pair_means = np.stack([sorted_means[:, 1:], sorted_means[:, :-1]], axis=-1)
    # _grid_for: per distribution double h (from max(mean, 1e-6)) until
    # cdf(h) >= 0.995 or h >= 1e12; grid upper end = max(1.0, h_a, h_b)
    h = np.maximum(pair_means, 1e-6)
    while True:
        need = (-np.expm1(-pair_rates * h) < 0.995) & (h < 1e12)
        if not need.any():
            break
        h = np.where(need, h * 2.0, h)
    hi = np.maximum(1.0, np.maximum(h[..., 0], h[..., 1]))
    xs = np.linspace(1e-9, hi, grid, axis=-1)  # (N, n-1, grid)
    sf_larger = 1.0 - (-np.expm1(-pair_rates[..., 0, None] * xs))
    sf_smaller = 1.0 - (-np.expm1(-pair_rates[..., 1, None] * xs))
    return np.all(sf_larger >= sf_smaller - atol, axis=(1, 2))
