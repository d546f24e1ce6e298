"""Single-machine batch scheduling: exact analysis and simulation.

For nonpreemptive, nonanticipative policies on one machine with independent
processing times, the expected weighted flowtime of a *static sequence*
depends on the distributions only through their means:

``E[sum_i w_i C_i] = sum_i w_i * sum_{j precedes or equals i} p_j``.

Rothkopf's theorem [34] (E1): the WSEPT sequence minimises this over all
nonanticipative policies, because with independent processing times no
dynamic information helps a nonpreemptive scheduler — the optimal dynamic
policy is a static sequence, found by an interchange argument.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from repro.batch.job import Job

__all__ = [
    "expected_weighted_flowtime",
    "brute_force_optimal_sequence",
    "simulate_sequence",
]


def expected_weighted_flowtime(jobs: Sequence[Job], sequence: Sequence[int]) -> float:
    """Exact ``E[sum w_i C_i]`` of serving ``jobs`` in the given id sequence
    on one machine, nonpreemptively, starting at time 0."""
    by_id = {j.id: j for j in jobs}
    if sorted(sequence) != sorted(by_id):
        raise ValueError("sequence must be a permutation of the job ids")
    t = 0.0
    total = 0.0
    for jid in sequence:
        j = by_id[jid]
        t += j.mean
        total += j.weight * t
    return total


def brute_force_optimal_sequence(jobs: Sequence[Job]) -> tuple[list[int], float]:
    """Exhaustive search over all n! sequences; returns (best sequence, its
    expected weighted flowtime). Ground truth for small n (E1).

    Each sequence is scored with the arithmetic of
    :func:`expected_weighted_flowtime` on ``(id, mean, weight)`` triples
    read once, and the first minimum in permutation order wins."""
    if len(jobs) > 10:
        raise ValueError("brute force is limited to n <= 10 jobs")
    if len({j.id for j in jobs}) != len(jobs):
        raise ValueError("job ids must be unique")
    best_seq: list[int] | None = None
    best_val = np.inf
    for perm in itertools.permutations([(j.id, j.mean, j.weight) for j in jobs]):
        t = 0.0
        val = 0.0
        for _, p, w in perm:
            t += p
            val += w * t
        if val < best_val:
            best_val = val
            best_seq = [jid for jid, _, _ in perm]
    assert best_seq is not None
    return best_seq, float(best_val)


def simulate_sequence(
    jobs: Sequence[Job],
    sequence: Sequence[int],
    rng: np.random.Generator,
    n_replications: int = 1,
) -> np.ndarray:
    """Monte-Carlo weighted flowtimes of a fixed sequence (one value per
    replication). Sanity-checks the closed form and exercises the sampling
    path of every distribution."""
    by_id = {j.id: j for j in jobs}
    if sorted(sequence) != sorted(by_id):
        raise ValueError("sequence must be a permutation of the job ids")
    out = np.empty(n_replications)
    for r in range(n_replications):
        t = 0.0
        total = 0.0
        for jid in sequence:
            j = by_id[jid]
            # sequential draws from the caller's one stream are this API's
            # documented contract, pinned by golden stats
            t += j.sample(rng)  # repro-lint: disable=REP031
            total += j.weight * t
        out[r] = total
    return out
