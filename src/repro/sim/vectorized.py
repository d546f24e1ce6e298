"""Vectorized replication kernels: the second simulation backend.

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
kernel.

Two ingredients live here:

* the **kernel registry** — scenario kernels (defined in
  :mod:`repro.experiments.backends`) register under their scenario id via
  :func:`vectorized_kernel`; the runner and CLI discover them through
  :func:`has_kernel` / :func:`get_kernel`;
* **generic batched primitives** — scenario-agnostic numerics shared by
  the kernels: batched sequence flowtimes and brute-force permutation
  minima, the batched subset DP for exponential parallel machines,
  lockstep (all replications advance one event per step) simulators for
  in-tree list scheduling and restless-fleet rollouts, batched
  product-/switching-MDP assembly, batched flow-shop recurrences, and a
  batched restart-in-state Gittins solver;
* **lockstep queueing simulators** — batched replacements for the
  event-driven queueing machinery: :func:`lockstep_network_simulations`
  (a flat, specialised re-implementation of
  :func:`repro.queueing.network.simulate_network` that runs a whole
  replication batch with per-replication clocks, queue windows and
  server states kept in flat per-replication storage) and
  :func:`lockstep_polling_simulations` (ditto for
  :class:`repro.queueing.polling.PollingSystem`, with the service draws
  consumed from pre-drawn standard-exponential blocks), plus
  :func:`lockstep_heterogeneous_rollouts` for heterogeneous restless
  fleets, which advances every replication's fleet one epoch per step on
  shared ``(reps, projects, states)`` arrays.

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
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

import numpy as np

__all__ = [
    "VectorizedKernel",
    "vectorized_kernel",
    "register_kernel",
    "has_kernel",
    "get_kernel",
    "kernel_ids",
    "all_permutations",
    "sequence_flowtime_batch",
    "min_flowtime_over_permutations",
    "subset_dp_batch",
    "lockstep_intree_makespans",
    "lockstep_restless_rollouts",
    "lockstep_network_simulations",
    "lockstep_polling_simulations",
    "lockstep_heterogeneous_rollouts",
    "batched_product_mdp",
    "batched_switching_mdp",
    "exponential_family_st_ordered",
    "flowshop_makespan_batch",
    "restart_gittins_batch",
]

BatchSimulateFn = Callable[
    [Sequence[np.random.SeedSequence], Mapping[str, Any]], "list[dict[str, float]]"
]

KERNEL_MODES = ("batched", "cached", "lockstep")


@dataclass(frozen=True)
class VectorizedKernel:
    """One registered kernel: the batch simulate function plus metadata.

    ``mode`` is ``"batched"`` when the kernel genuinely vectorizes the
    per-replication computation across replications (expect a large
    speedup); ``"lockstep"`` when the scenario is event-/epoch-driven and
    the kernel advances the replication batch through the lockstep
    queueing/rollout simulators in this module instead of the generic
    event calendar (expect a solid constant-factor speedup from the
    specialised simulators, bounded by any per-replication analysis the
    scenario also performs); or ``"cached"`` when the scenario is
    dominated by work that is identical across replications — the kernel
    hoists that shared computation out of the loop and leaves the
    per-replication stochastic part on the event-driven machinery (expect
    a speedup proportional to the hoisted fraction, which may be modest).
    All modes are bit-for-bit equivalent to the event backend.
    """

    scenario_id: str
    fn: BatchSimulateFn
    mode: str
    note: str = ""

    def __post_init__(self):
        if self.mode not in KERNEL_MODES:
            raise ValueError(f"mode must be one of {KERNEL_MODES}, got {self.mode!r}")


_KERNELS: dict[str, VectorizedKernel] = {}
# key -> human-readable owner, named in genuine-collision errors
_KERNEL_OWNERS: dict[str, str] = {}
_BINDINGS_LOADED = False


def _ensure_loaded() -> None:
    # The scenario kernels live in the family packs under
    # repro.experiments.packs and register on pack discovery; defer that
    # (mirroring the scenario registry) so sim <-> experiments does not
    # cycle at module-import time.  The loaded flag is only set on success,
    # and pack registration is idempotent, so a failed discovery propagates
    # now but stays retryable instead of silently reporting an empty
    # kernel registry forever.
    global _BINDINGS_LOADED
    if not _BINDINGS_LOADED:
        # deliberate upward import: the kernel registry late-binds to the
        # pack layer by design (see comment above) and never at import time
        from repro.experiments.packs import load_packs  # repro-lint: disable=REP020

        load_packs()
        _BINDINGS_LOADED = True


def _kernel_fingerprint(fn) -> tuple:
    # same re-import-stable identity as the scenario registry's: qualname
    # plus code location survives importlib.reload and double imports
    code = getattr(fn, "__code__", None)
    if code is None:
        return (id(fn),)
    return (fn.__qualname__, code.co_filename, code.co_firstlineno)


def register_kernel(
    kernel: VectorizedKernel, *, owner: str | None = None
) -> VectorizedKernel:
    """Add a kernel to the registry.

    Re-registering an identical ``(scenario id, fn)`` pair — including the
    same function re-created by a module re-import — is an idempotent
    no-op returning the existing kernel; a genuine collision (same id,
    different function) raises, naming the owner of the existing entry.
    """
    key = kernel.scenario_id.upper()
    existing = _KERNELS.get(key)
    if existing is not None:
        if _kernel_fingerprint(existing.fn) == _kernel_fingerprint(kernel.fn):
            return existing
        raise ValueError(
            f"kernel for {kernel.scenario_id!r} already registered by "
            f"{_KERNEL_OWNERS.get(key, 'an unknown owner')}"
        )
    _KERNELS[key] = kernel
    _KERNEL_OWNERS[key] = owner or f"module {getattr(kernel.fn, '__module__', '?')!r}"
    return kernel


def vectorized_kernel(
    scenario_id: str, *, mode: str, note: str = ""
) -> Callable[[BatchSimulateFn], BatchSimulateFn]:
    """Decorator registering a batch simulate function as the vectorized
    kernel for ``scenario_id``.  Returns the function unchanged (so it
    stays a plain picklable module-level callable)."""

    def decorate(fn: BatchSimulateFn) -> BatchSimulateFn:
        register_kernel(
            VectorizedKernel(scenario_id=scenario_id, fn=fn, mode=mode, note=note)
        )
        return fn

    return decorate


def has_kernel(scenario_id: str) -> bool:
    """Whether a vectorized kernel is registered for ``scenario_id``."""
    _ensure_loaded()
    return scenario_id.upper() in _KERNELS


def get_kernel(scenario_id: str) -> VectorizedKernel:
    """Look up the kernel for ``scenario_id`` (case-insensitive)."""
    _ensure_loaded()
    key = scenario_id.upper()
    if key not in _KERNELS:
        raise KeyError(
            f"no vectorized kernel for {scenario_id!r}; available: {kernel_ids()}"
        )
    return _KERNELS[key]


def kernel_ids() -> list[str]:
    """All scenario ids with a registered kernel, in natural order."""
    _ensure_loaded()

    def _key(sid: str) -> tuple:
        head = sid.rstrip("0123456789")
        tail = sid[len(head):]
        return (head, int(tail) if tail else -1)

    return sorted(_KERNELS, key=_key)


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
    means: np.ndarray, weights: np.ndarray, *, block: int = 720
) -> np.ndarray:
    """Brute-force minimum expected weighted flowtime over all n!
    sequences, batched over replications.

    ``means``/``weights`` have shape ``(N, n)``; returns ``(N,)``.  The
    permutation axis is processed in blocks to bound memory; the running
    elementwise minimum is exact, so blocking cannot change the result.
    """
    means = np.asarray(means, dtype=float)
    weights = np.asarray(weights, dtype=float)
    n = means.shape[-1]
    perms = all_permutations(n)
    best = np.full(means.shape[0], np.inf)
    for lo in range(0, perms.shape[0], block):
        chunk = perms[lo : lo + block]
        vals = sequence_flowtime_batch(
            means[:, None, :], weights[:, None, :], chunk[None, :, :]
        )
        best = np.minimum(best, vals.min(axis=1))
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
# Lockstep in-tree list scheduling (E16 family)
# ---------------------------------------------------------------------------


def lockstep_intree_makespans(
    parents: np.ndarray,
    m: int,
    rate: float,
    select: Callable[[int, np.ndarray, int], Sequence[int]],
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """Simulate i.i.d. exponential(rate) in-tree batches for all
    replications in lockstep.

    ``parents`` has shape ``(N, n)`` (one in-tree per replication, -1 for
    roots); ``select(r, available_ids, m)`` returns the ids to run for
    replication ``r`` — ``available_ids`` is ascending, exactly the
    ``sorted(available)`` list :func:`simulate_intree_makespan` passes its
    policy.  Per replication the generator in ``rngs`` is consumed in the
    identical order as the event-driven loop: one ``exponential`` and one
    ``integers`` draw per completion epoch (any draws the policy itself
    makes happen inside ``select``, before them).

    Every epoch completes exactly one job per replication, so all
    replications finish after exactly ``n`` epochs — which is what makes
    the lockstep formulation exact rather than approximate.
    """
    parents = np.asarray(parents, dtype=np.int64)
    N, n = parents.shape
    if m < 1 or rate <= 0:
        raise ValueError("need m >= 1 and rate > 0")
    pending = np.zeros((N, n), dtype=np.int64)
    for r in range(N):
        counts = np.bincount(parents[r][parents[r] >= 0], minlength=n)
        pending[r] = counts
    avail = pending == 0
    t = np.zeros(N)
    for _ in range(n):
        winners = np.empty(N, dtype=np.int64)
        for r in range(N):
            ids = np.flatnonzero(avail[r])
            running = list(select(r, ids, m))
            if not running or len(running) > m:
                raise ValueError("policy must run between 1 and m available jobs")
            k = len(running)
            t[r] += rngs[r].exponential(1.0 / (rate * k))
            winners[r] = running[int(rngs[r].integers(0, k))]
        rows = np.arange(N)
        avail[rows, winners] = False
        par = parents[rows, winners]
        has_parent = par >= 0
        rr, pp = rows[has_parent], par[has_parent]
        pending[rr, pp] -= 1
        avail[rr, pp] = pending[rr, pp] == 0
    return t


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
# Batched joint-MDP assembly (E7/E9 families)
# ---------------------------------------------------------------------------


def batched_product_mdp(
    Ps: Sequence[np.ndarray], Rs: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, list[tuple]]:
    """Batched product MDP of classical bandit projects.

    ``Ps[a]`` has shape ``(N, S_a, S_a)`` (replication-stacked transition
    matrices of project ``a``) and ``Rs[a]`` shape ``(N, S_a)``.  Returns
    ``(T, R, states)`` with ``T`` of shape ``(N, A, S, S)`` and ``R`` of
    shape ``(N, A, S)``; slice ``r`` is entry-for-entry what
    :func:`repro.bandits.exact.bandit_product_mdp` builds for replication
    ``r`` (entries are single assignments of the same products, so the
    bits match).
    """
    A = len(Ps)
    sizes = [P.shape[-1] for P in Ps]
    N = Ps[0].shape[0]
    states = list(itertools.product(*[range(sz) for sz in sizes]))
    index_of = {s: i for i, s in enumerate(states)}
    S = len(states)
    T = np.zeros((N, A, S, S))
    R = np.zeros((N, A, S))
    for i, s in enumerate(states):
        for a in range(A):
            R[:, a, i] = Rs[a][:, s[a]]
            nxt = list(s)
            cols = np.empty(sizes[a], dtype=np.intp)
            for nxt_local in range(sizes[a]):
                nxt[a] = nxt_local
                cols[nxt_local] = index_of[tuple(nxt)]
            T[:, a, i, cols] = Ps[a][:, s[a], :]
    return T, R, states


def batched_switching_mdp(
    Ps: Sequence[np.ndarray], Rs: Sequence[np.ndarray], cost: float
) -> tuple[np.ndarray, np.ndarray, list]:
    """Batched switching-cost bandit MDP (joint states x incumbent).

    Mirrors :func:`repro.bandits.switching.switching_bandit_mdp` slice by
    slice: state ``(core, inc)`` under action ``a`` pays the project
    reward minus ``cost`` when ``a`` differs from a real incumbent, and
    moves to ``(core', a)``.
    """
    if cost < 0:
        raise ValueError("cost must be nonnegative")
    A = len(Ps)
    sizes = [P.shape[-1] for P in Ps]
    N = Ps[0].shape[0]
    cores = list(itertools.product(*[range(sz) for sz in sizes]))
    incumbents = [-1] + list(range(A))
    states = [(c, inc) for c in cores for inc in incumbents]
    index_of = {s: i for i, s in enumerate(states)}
    S = len(states)
    T = np.zeros((N, A, S, S))
    R = np.zeros((N, A, S))
    for i, (core, inc) in enumerate(states):
        for a in range(A):
            pay = Rs[a][:, core[a]]
            if a != inc and inc != -1:
                pay = pay - cost
            R[:, a, i] = pay
            nxt_core = list(core)
            cols = np.empty(sizes[a], dtype=np.intp)
            for nxt_local in range(sizes[a]):
                nxt_core[a] = nxt_local
                cols[nxt_local] = index_of[(tuple(nxt_core), a)]
            T[:, a, i, cols] = Ps[a][:, core[a], :]
    return T, R, states


# ---------------------------------------------------------------------------
# Lockstep multiclass queueing-network simulation (E10–E14, A2 families)
# ---------------------------------------------------------------------------


class _FlatNetwork:
    """Replication-invariant tables for the flat network simulator,
    computed once per batch: cumulative routing rows, service samplers,
    arrival scales, and per-station discipline/priority structures."""

    __slots__ = (
        "network",
        "cum_rows",
        "row_last",
        "costs",
        "ascale",
        "samplers",
        "station_of",
        "prio_pos",
        "station_classes",
        "disciplines",
        "disc_codes",
        "n_servers",
        "priorities",
    )

    def __init__(self, network):
        from repro.distributions.continuous import Exponential

        self.network = network
        n = network.n_classes
        classes = network.classes
        cum = np.cumsum(network.routing, axis=1)
        self.cum_rows = [list(cum[j]) for j in range(n)]
        self.row_last = [float(cum[j, -1]) for j in range(n)]
        self.costs = np.array([c.cost for c in classes])
        self.ascale = [
            (1.0 / c.arrival_rate) if c.arrival_rate > 0 else None for c in classes
        ]
        # Exponential services collapse to one bound rng.exponential call
        # with the very scale Exponential.sample computes (1.0 / rate);
        # every other family keeps its own sample method — either way the
        # consumed draws are the event path's.
        self.samplers = []
        for c in classes:
            if type(c.service) is Exponential:
                self.samplers.append((True, 1.0 / c.service.rate))
            else:
                self.samplers.append((False, c.service.sample))
        self.station_of = [c.station for c in classes]
        self.prio_pos = [
            {c: p for p, c in enumerate(st.priority)} for st in network.stations
        ]
        self.station_classes = [
            [j for j in range(n) if classes[j].station == k]
            for k in range(len(network.stations))
        ]
        self.disciplines = [st.discipline for st in network.stations]
        # integer discipline codes keep the hot loop off string compares:
        # 0 priority, 1 preemptive, 2 fifo, 3 lcfs
        codes = {"priority": 0, "preemptive": 1, "fifo": 2, "lcfs": 3}
        self.disc_codes = [codes[st.discipline] for st in network.stations]
        self.n_servers = [st.n_servers for st in network.stations]
        self.priorities = [list(st.priority) for st in network.stations]


def _flat_network_run(prep, horizon, rng, warmup_fraction, max_events):
    """One replication of the flat network simulator.

    A specialised mirror of :func:`repro.queueing.network.simulate_network`
    with the generic event calendar replaced by a min-scan over the live
    events (the pending arrival per class, one completion per busy server,
    the warm-up reset) ordered by the same ``(time, priority, seq)`` key,
    the monitors replaced by inline float accumulators performing the
    identical arithmetic, and every RNG draw made by the same call at the
    same position in the stream.  The event dispatch is one flat loop —
    service starts, class entry and queue picks are inlined rather than
    helper closures, pending arrivals sit in a plain float list (``inf``
    for classes without exogenous arrivals) so the min-scan is pure float
    compares, and the heap's ``(time, priority, seq)`` tuple order is
    replaced by equivalent scalar compares (priority is 0 for every live
    event except the warm-up reset's -10, so "warm-up wins time ties,
    everything else ties on seq").  Returns a
    :class:`repro.queueing.network.NetworkResult`, bit-for-bit equal to
    the event path's (including the post-run rng state).
    """
    import math as _math

    from bisect import bisect_right

    from repro.queueing.network import NetworkResult

    net = prep.network
    n = net.n_classes
    K = len(net.stations)
    rexp = rng.exponential
    rrand = rng.random
    samplers = prep.samplers
    disc_codes = prep.disc_codes
    n_servers = prep.n_servers
    station_of = prep.station_of
    ascale = prep.ascale
    cum_rows = prep.cum_rows
    row_last = prep.row_last
    prio_pos = prep.prio_pos
    station_classes = prep.station_classes
    priorities = prep.priorities
    inf = _math.inf
    # jobs are [cls, arrived, remaining, started] (mirrors _Jb);
    # busy entries are [job, completion_time, completion_seq, start_time]
    queues: list[list] = [[] for _ in range(n)]
    busy: list[list] = [[] for _ in range(K)]
    qlevel = [0.0] * n
    qarea = [0.0] * n
    qlast = [0.0] * n
    mon_start = 0.0
    wcount = [0] * n
    wsum = [0.0] * n
    wmean = [0.0] * n
    visits = [0] * n
    tlevel = 0.0
    tpeak = 0.0
    seq = 0
    now = 0.0
    arr_time = [inf] * n
    arr_seq = [0] * n
    for j in range(n):
        if ascale[j] is not None:
            arr_time[j] = rexp(ascale[j])
            arr_seq[j] = seq
            seq += 1
    warmup = warmup_fraction * horizon
    wu_time = warmup if warmup > 0 else None
    wu_seq = seq
    if wu_time is not None:
        seq += 1

    for _ in range(max_events):
        # min-scan over the live events by (time, priority, seq) — the
        # exact heap order of the generic engine.  The warm-up reset is
        # seeded as the incumbent so its -10 priority wins time ties
        # (bkind 3 suppresses seq comparisons against it); arrivals and
        # completions share priority 0 and tie-break on seq alone.
        bs = -1
        bkind = 0  # 1 = arrival, 2 = completion, 3 = warm-up
        bj = -1
        bentry = None
        if wu_time is not None:
            bt = wu_time
            bkind = 3
        else:
            bt = inf
        for j in range(n):
            t = arr_time[j]
            if t < bt or (t == bt and bkind != 3 and arr_seq[j] < bs):
                bt = t
                bs = arr_seq[j]
                bkind = 1
                bj = j
        for k in range(K):
            for e in busy[k]:
                t = e[1]
                if t < bt or (t == bt and bkind != 3 and e[2] < bs):
                    bt = t
                    bs = e[2]
                    bkind = 2
                    bk = k
                    bentry = e
        if bt > horizon:
            now = horizon
            break
        now = bt
        if bkind == 1:
            # --- exogenous arrival of class bj ----------------------------
            j = bj
            tlevel += 1.0
            if tlevel > tpeak:
                tpeak = tlevel
            job = [j, now, -1.0, -1.0]
            qarea[j] += qlevel[j] * (now - qlast[j])
            qlevel[j] += 1.0
            qlast[j] = now
            k = station_of[j]
            busy_k = busy[k]
            if len(busy_k) < n_servers[k]:
                # idle server: start service on the fresh job
                is_exp, s = samplers[j]
                rem = float(rexp(s)) if is_exp else float(s(rng))
                job[2] = rem
                job[3] = now
                wcount[j] += 1
                wsum[j] += 1.0
                wmean[j] += (1.0 / wsum[j]) * ((now - job[1]) - wmean[j])
                busy_k.append([job, now + rem, seq, now])
                seq += 1
            else:
                queued = True
                if disc_codes[k] == 1:
                    pp = prio_pos[k]
                    worst = None
                    worst_p = -1
                    for e in busy_k:
                        p = pp.get(e[0][0], 0)
                        if worst is None or p > worst_p:
                            worst, worst_p = e, p
                    if pp.get(j, 0) < worst_p:
                        wjob = worst[0]
                        busy_k.remove(worst)
                        wjob[2] -= now - worst[3]
                        if wjob[2] < 1e-12:
                            wjob[2] = 1e-12
                        queues[wjob[0]].insert(0, wjob)
                        is_exp, s = samplers[j]
                        rem = float(rexp(s)) if is_exp else float(s(rng))
                        job[2] = rem
                        job[3] = now
                        wcount[j] += 1
                        wsum[j] += 1.0
                        wmean[j] += (1.0 / wsum[j]) * ((now - job[1]) - wmean[j])
                        busy_k.append([job, now + rem, seq, now])
                        seq += 1
                        queued = False
                if queued:
                    queues[j].append(job)
            arr_time[j] = now + rexp(ascale[j])
            arr_seq[j] = seq
            seq += 1
        elif bkind == 2:
            # --- service completion at station bk -------------------------
            k = bk
            busy_k = busy[k]
            job = bentry[0]
            busy_k.remove(bentry)
            cls = job[0]
            visits[cls] += 1
            qarea[cls] += qlevel[cls] * (now - qlast[cls])
            qlevel[cls] -= 1.0
            qlast[cls] = now
            u = rrand()
            if u < row_last[cls]:
                # --- routed job enters class nxt (same entry logic) -------
                nxt = bisect_right(cum_rows[cls], u)
                job = [nxt, now, -1.0, -1.0]
                qarea[nxt] += qlevel[nxt] * (now - qlast[nxt])
                qlevel[nxt] += 1.0
                qlast[nxt] = now
                k2 = station_of[nxt]
                busy_k2 = busy[k2]
                if len(busy_k2) < n_servers[k2]:
                    is_exp, s = samplers[nxt]
                    rem = float(rexp(s)) if is_exp else float(s(rng))
                    job[2] = rem
                    job[3] = now
                    wcount[nxt] += 1
                    wsum[nxt] += 1.0
                    wmean[nxt] += (1.0 / wsum[nxt]) * ((now - job[1]) - wmean[nxt])
                    busy_k2.append([job, now + rem, seq, now])
                    seq += 1
                else:
                    queued = True
                    if disc_codes[k2] == 1:
                        pp = prio_pos[k2]
                        worst = None
                        worst_p = -1
                        for e in busy_k2:
                            p = pp.get(e[0][0], 0)
                            if worst is None or p > worst_p:
                                worst, worst_p = e, p
                        if pp.get(nxt, 0) < worst_p:
                            wjob = worst[0]
                            busy_k2.remove(worst)
                            wjob[2] -= now - worst[3]
                            if wjob[2] < 1e-12:
                                wjob[2] = 1e-12
                            queues[wjob[0]].insert(0, wjob)
                            is_exp, s = samplers[nxt]
                            rem = float(rexp(s)) if is_exp else float(s(rng))
                            job[2] = rem
                            job[3] = now
                            wcount[nxt] += 1
                            wsum[nxt] += 1.0
                            wmean[nxt] += (1.0 / wsum[nxt]) * (
                                (now - job[1]) - wmean[nxt]
                            )
                            busy_k2.append([job, now + rem, seq, now])
                            seq += 1
                            queued = False
                    if queued:
                        queues[nxt].append(job)
            else:
                tlevel -= 1.0
                if tlevel > tpeak:
                    tpeak = tlevel
            # --- backfill freed servers from the queues -------------------
            ns = n_servers[k]
            d = disc_codes[k]
            while len(busy_k) < ns:
                njob = None
                if d <= 1:
                    for cls2 in priorities[k]:
                        q2 = queues[cls2]
                        if q2:
                            njob = q2.pop(0)
                            break
                else:
                    newest = d == 3
                    best_cls = -1
                    best_pos = -1
                    for j2 in station_classes[k]:
                        q2 = queues[j2]
                        if q2:
                            pos = -1 if newest else 0
                            cand = q2[pos]
                            if njob is None or (
                                cand[1] > njob[1] if newest else cand[1] < njob[1]
                            ):
                                njob, best_cls, best_pos = cand, j2, pos
                    if njob is not None:
                        queues[best_cls].pop(best_pos)
                if njob is None:
                    break
                rem = njob[2]
                if rem < 0:
                    is_exp, s = samplers[njob[0]]
                    rem = float(rexp(s)) if is_exp else float(s(rng))
                    njob[2] = rem
                if njob[3] < 0:
                    njob[3] = now
                    cls2 = njob[0]
                    wcount[cls2] += 1
                    wsum[cls2] += 1.0
                    wmean[cls2] += (1.0 / wsum[cls2]) * ((now - njob[1]) - wmean[cls2])
                busy_k.append([njob, now + rem, seq, now])
                seq += 1
        else:
            # --- warm-up reset --------------------------------------------
            wu_time = None
            for j in range(n):
                qarea[j] = 0.0
                qlast[j] = now
                wcount[j] = 0
                wsum[j] = 0.0
                wmean[j] = 0.0
                visits[j] = 0
            mon_start = now

    denom = horizon - mon_start
    Lbar = np.array(
        [
            (qarea[j] + qlevel[j] * (horizon - qlast[j])) / denom
            if denom > 0
            else _math.nan
            for j in range(n)
        ]
    )
    W = np.array([wmean[j] if wcount[j] else _math.nan for j in range(n)])
    return NetworkResult(
        mean_queue_lengths=Lbar,
        mean_waits=W,
        visit_counts=np.array(visits, dtype=np.int64),
        cost_rate=float(np.dot(prep.costs, Lbar)),
        final_backlog=float(tlevel),
        peak_backlog=float(tpeak),
        horizon=horizon,
    )


def lockstep_network_simulations(
    network,
    horizon: float,
    rngs: Sequence[np.random.Generator],
    *,
    warmup_fraction: float = 0.1,
    max_events: int = 20_000_000,
):
    """Run one :func:`repro.queueing.network.simulate_network` replication
    per generator in ``rngs`` through the flat simulator.

    The replication-invariant tables (cumulative routing rows, service
    samplers, discipline structures) are prepared once for the batch;
    each replication then advances through its own event sequence on flat
    per-replication state, consuming exactly the draws the event path
    makes — so every returned :class:`NetworkResult` is bit-for-bit the
    event path's, and each generator in ``rngs`` is left in exactly the
    state the event path would leave it in (the property E12's sequential
    rho sweep relies on).
    """
    prep = _FlatNetwork(network)
    return [
        _flat_network_run(prep, horizon, rng, warmup_fraction, max_events)
        for rng in rngs
    ]


# ---------------------------------------------------------------------------
# Lockstep polling simulation (E15 family)
# ---------------------------------------------------------------------------


def _polling_visit_core(
    ts, sz, t, h, sp, batch, sv, scale, buf, bpos, chunk, warmup, h4, waits, served, i
):
    """Serve one station visit of the flat polling simulator.

    Advances the clock ``t`` through up to ``batch`` services (``-1`` =
    exhaustive) of queue ``i``, consuming pre-drawn unit exponentials
    from ``buf`` and admitting arrivals from the sorted ``ts`` into the
    ``[sp, h)`` pending window, with the identical float arithmetic the
    event path performs.  Returns ``(status, t, h, sp, sv, bpos)`` where
    status 0 means the visit completed, 1 means the service buffer is
    exhausted (the caller refills ``buf`` and re-enters — the refill then
    sits at the same position of the rng stream as the event path's), and
    2 means the exhaustive visit diverged past four horizons.

    Deliberately written over flat scalars and indexable numerics only:
    :func:`repro.sim.accel.jit_or_fallback` can compile it unchanged
    (arrays in, nopython, no fastmath) while the default interpreted path
    feeds it plain Python lists and floats.
    """
    while h > sp and (batch < 0 or sv < batch):
        if bpos == chunk:
            return 1, t, h, sp, sv, bpos
        arr = ts[sp]
        sp += 1
        if t > warmup:
            waits[i] += t - arr
            served[i] += 1
        t += scale * buf[bpos]
        bpos += 1
        sv += 1
        while h < sz and ts[h] <= t:
            h += 1
        if batch < 0 and t > h4:
            return 2, t, h, sp, sv, bpos
    return 0, t, h, sp, sv, bpos


def _flat_polling_run(
    lam, svc_scales, sw_values, policy, horizon, rng, warmup_fraction, chunk=4096
):
    """One replication of the flat polling simulator (exponential
    services, deterministic switchovers) — a mirror of
    :meth:`repro.queueing.polling.PollingSystem.simulate`.

    The arrival streams are pre-generated with the identical array draws;
    after that the only randomness the event path consumes is one scalar
    ``rng.exponential(scale_i)`` per service, which this mirror serves
    from pre-drawn ``standard_exponential`` blocks multiplied by the
    queue's scale (bit-identical; see the module equality rules).  The
    pending customers of each queue form a contiguous window into its
    arrival array, so the queue state is two integer pointers.  The
    zero-switchover idle rule (a.s.-zero switchovers and an empty
    zero-length sweep jump the clock to the next arrival and record no
    cycle) is reproduced exactly.

    The per-service loop lives in :func:`_polling_visit_core`; by default
    it runs interpreted over plain Python floats and lists (arrival
    times, the pre-drawn service buffer and the wait accumulators are
    kept out of numpy, whose scalar indexing dominated the profile), and
    under ``REPRO_NUMBA=1`` it is njit-compiled and fed numpy arrays
    instead — identical IEEE arithmetic either way.
    """
    from repro.queueing.polling import PollingResult
    from repro.sim import accel

    lam = np.asarray(lam, dtype=float)
    n = lam.size
    arrivals = []
    for i in range(n):
        li = lam[i]
        if li == 0:
            arrivals.append(np.array([np.inf]))
            continue
        m = int(li * horizon * 1.3) + 50
        gaps = rng.exponential(1.0 / li, size=m)
        ts = np.cumsum(gaps)
        while ts[-1] < horizon:
            more = rng.exponential(1.0 / li, size=m // 2 + 10)
            ts = np.concatenate([ts, ts[-1] + np.cumsum(more)])
        arrivals.append(ts)
    std_exp = rng.standard_exponential
    core = accel.jit_or_fallback("polling_visit_core", _polling_visit_core)
    compiled = core is not _polling_visit_core
    if compiled:
        try:  # warm the lazy compile; fall back if numba rejects the kernel
            core(
                np.array([np.inf]), 1, 0.0, 0, 0, 0, 0, 1.0, np.zeros(1), 0, 1,
                0.0, 1.0, np.zeros(1), np.zeros(1, dtype=np.int64), 0,
            )
        except Exception:
            core = _polling_visit_core
            compiled = False
    if compiled:
        ts_all = arrivals
        buf = std_exp(chunk)
        waits = np.zeros(n)
        served = np.zeros(n, dtype=np.int64)
    else:
        ts_all = [a.tolist() for a in arrivals]
        buf = std_exp(chunk).tolist()
        waits = [0.0] * n
        served = [0] * n
    sizes = [len(a) for a in ts_all]
    sw_zero = all(v == 0.0 for v in sw_values)
    admit_ptr = [0] * n  # the event path's `heads`
    serve_ptr = [0] * n  # front of the pending window
    warmup = warmup_fraction * horizon
    t = 0.0
    i = 0
    cycles = 0
    cycle_start = 0.0
    cycle_durations: list[float] = []
    buf_pos = 0
    gated = policy == "gated"
    limited = policy == "limited"
    h4 = horizon * 4
    while t < horizon:
        t += sw_values[i]
        ts = ts_all[i]
        sz = sizes[i]
        h = admit_ptr[i]
        if h < sz and ts[h] <= t:
            # identical to the event path's linear admit scan: ts is
            # sorted, so the insertion point after everything <= t is
            # exactly where the scan stops
            h = bisect_right(ts, t, h)
        sp = serve_ptr[i]
        if gated:
            batch = h - sp
        elif limited:
            batch = 1 if h > sp else 0
        else:
            batch = -1
        if h > sp and batch != 0:
            sv = 0
            scale = svc_scales[i]
            while True:
                status, t, h, sp, sv, buf_pos = core(
                    ts, sz, t, h, sp, batch, sv, scale, buf, buf_pos,
                    chunk, warmup, h4, waits, served, i,
                )
                if status == 0:
                    break
                if status == 2:
                    raise RuntimeError("polling simulation diverged")
                buf = std_exp(chunk) if compiled else std_exp(chunk).tolist()
                buf_pos = 0
        admit_ptr[i] = h
        serve_ptr[i] = sp
        i = (i + 1) % n
        if i == 0:
            if (
                sw_zero
                and t == cycle_start
                and not any(admit_ptr[j] > serve_ptr[j] for j in range(n))
            ):
                nxt = min(
                    (
                        float(ts_all[j][admit_ptr[j]])
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
    if not compiled:
        waits = np.array(waits)
        served = np.array(served, dtype=np.int64)
    mean_waits = np.where(served > 0, waits / np.maximum(served, 1), np.nan)
    rho_i = lam * np.asarray(svc_scales, dtype=float)
    weighted = float(np.nansum(rho_i * mean_waits))
    return PollingResult(
        mean_waits=mean_waits,
        served=served,
        cycle_time=float(np.mean(cycle_durations)) if cycle_durations else np.nan,
        weighted_wait_sum=weighted,
    )


def lockstep_polling_simulations(
    arrival_rates,
    service_rates,
    switchover_values,
    policy: str,
    horizon: float,
    rngs: Sequence[np.random.Generator],
    *,
    warmup_fraction: float = 0.1,
):
    """Run one polling replication per generator through the flat polling
    simulator.

    ``service_rates`` are the per-queue exponential service rates and
    ``switchover_values`` the per-queue deterministic switchover times —
    the structure :class:`PollingSystem` is exercised with throughout the
    suite.  Each returned :class:`PollingResult` is bit-for-bit the event
    path's for the same generator seed.  (Unlike the network simulator,
    the pre-drawn service blocks leave the generators ahead of the event
    path's final state — callers must treat them as consumed.)
    """
    scales = [1.0 / r for r in service_rates]
    sw = [float(v) for v in switchover_values]
    return [
        _flat_polling_run(
            arrival_rates, scales, sw, policy, horizon, rng, warmup_fraction
        )
        for rng in rngs
    ]


# ---------------------------------------------------------------------------
# Lockstep heterogeneous restless-fleet rollouts (E19 family)
# ---------------------------------------------------------------------------


def lockstep_heterogeneous_rollouts(
    idx_tables: np.ndarray,
    cum0: np.ndarray,
    cum1: np.ndarray,
    R0: np.ndarray,
    R1: np.ndarray,
    m_active: int,
    horizon: int,
    rngs: Sequence[np.random.Generator],
    *,
    warmup: int = 0,
) -> np.ndarray:
    """All replications of a *heterogeneous* restless-fleet rollout
    advanced in lockstep (cf. :func:`lockstep_restless_rollouts`, whose
    projects are i.i.d. and shared across the fleet).

    Every array stacks replications on axis 0 and the fleet's projects on
    axis 1: ``idx_tables``/``R0``/``R1`` are ``(N, K, S)`` and
    ``cum0``/``cum1`` are the row-cumsum transition matrices ``(N, K, S,
    S)``.  Each replication draws ``rngs[r].random(K)`` once per epoch —
    the single draw
    :func:`repro.bandits.heterogeneous.simulate_heterogeneous_restless`
    makes — and the per-epoch reward is accumulated project-by-project in
    ascending id order, exactly like the event path's scalar loop.
    Returns the per-replication average total reward per epoch after
    ``warmup``, shape ``(N,)``.
    """
    N, K, S = idx_tables.shape
    if not 0 <= m_active <= K:
        raise ValueError("need 0 <= m_active <= n_projects")
    if horizon <= warmup:
        raise ValueError("horizon must exceed warmup")
    if len(rngs) != N:
        raise ValueError("need one generator per replication")
    reps = np.arange(N)[:, None]
    projs = np.arange(K)[None, :]
    states = np.zeros((N, K), dtype=np.int64)
    totals = np.zeros(N)
    u = np.empty((N, K))
    for t in range(horizon):
        prio = idx_tables[reps, projs, states]
        # stable argsort == lexsort((arange, -prio)): ties to lowest id
        order = np.argsort(-prio, axis=1, kind="stable")
        active = np.zeros((N, K), dtype=bool)
        np.put_along_axis(active, order[:, :m_active], True, axis=1)
        # the event path sums rewards with `reward += ...` over ascending
        # project ids; accumulate column-by-column to reproduce the exact
        # float addition order for any fleet size
        rew = np.where(active, R1[reps, projs, states], R0[reps, projs, states])
        reward = rew[:, 0].copy()
        for k in range(1, K):
            reward += rew[:, k]
        for r in range(N):
            u[r] = rngs[r].random(K)
        cums = np.where(
            active[:, :, None], cum1[reps, projs, states], cum0[reps, projs, states]
        )
        # searchsorted(cum, u, side="right") == #{cum entries <= u}
        states = (u[:, :, None] >= cums).sum(axis=2)
        if t >= warmup:
            totals += reward
    return totals / (horizon - warmup)


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
# Batched restart-in-state Gittins indices (A1 family)
# ---------------------------------------------------------------------------


def restart_gittins_batch(
    Ps: np.ndarray,
    Rs: np.ndarray,
    beta: float,
    *,
    tol: float = 1e-12,
    max_iter: int = 200_000,
) -> np.ndarray:
    """Batched :func:`repro.bandits.gittins.gittins_indices_restart`.

    ``Ps`` is ``(N, n, n)`` (one project transition matrix per
    replication) and ``Rs`` is ``(N, n)``.  For each restart state the
    value iteration runs over the whole batch at once — the stacked
    ``(N, n, n) @ (N, n, 1)`` matmul applies the per-slice matrix–vector
    product bit-for-bit — with converged replications frozen (they took
    their final ``v = v_new`` assignment, exactly like the scalar break).
    Returns the ``(N, n)`` index tables.
    """
    if not 0 <= beta < 1:
        raise ValueError("beta must be in [0, 1)")
    Ps = np.asarray(Ps, dtype=float)
    Rs = np.asarray(Rs, dtype=float)
    N, n, _ = Ps.shape
    bP = beta * Ps
    out = np.empty((N, n))
    for s in range(n):
        bPs = bP[:, s, :]
        Rsv = Rs[:, s]
        v = np.zeros((N, n))
        active = np.ones(N, dtype=bool)
        for _ in range(max_iter):
            cont = Rs + (bP @ v[..., None])[..., 0]
            rest = Rsv + (bPs[:, None, :] @ v[:, :, None])[:, 0, 0]
            v_new = np.maximum(cont, rest[:, None])
            converged = np.abs(v_new - v).max(axis=1) < tol * np.maximum(
                1.0, np.abs(v_new).max(axis=1)
            )
            v = np.where(active[:, None], v_new, v)
            active &= ~converged
            if not active.any():
                break
        out[:, s] = (1.0 - beta) * v[:, s]
    return out


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
