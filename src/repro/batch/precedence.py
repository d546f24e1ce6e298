"""In-tree precedence constraints (Papadimitriou–Tsitsiklis [31]).

Jobs form an in-tree: each job has at most one successor, and a job becomes
available only when all its predecessors (children in the in-tree, i.e. the
jobs pointing to it) are complete; the root finishes last. For i.i.d.
exponential jobs on ``m`` identical machines, the *Highest Level First*
(HLF) policy — run available jobs of greatest height (distance to the root)
— is asymptotically optimal for expected makespan as the number of jobs
grows (E16).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.utils.rng import as_generator

__all__ = ["InTree", "random_intree", "simulate_intree_makespan", "hlf_policy", "random_policy"]


def _heights(parent: list[int]) -> list[int]:
    """Edges from each job to its root; raises ``ValueError`` on a cycle."""
    lev = [-1] * len(parent)  # -1: unknown, -2: on the current walk
    for i in range(len(parent)):
        # walk up to a root or a job whose height is known, then assign
        # heights back down the walked path
        path = []
        j = i
        while j != -1 and lev[j] < 0:
            if lev[j] == -2:
                raise ValueError("parent pointers contain a cycle")
            lev[j] = -2
            path.append(j)
            j = parent[j]
        d = -1 if j == -1 else lev[j]
        for k in reversed(path):
            d += 1
            lev[k] = d
    return lev


@dataclass
class InTree:
    """An in-tree on jobs ``0..n-1``.

    ``parent[i]`` is the successor of job i (the job that needs i done), or
    ``-1`` for the root. Multiple roots are allowed (an in-forest).
    """

    parent: np.ndarray
    _levels: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p = np.asarray(self.parent, dtype=np.int64)
        n = p.size
        if np.any((p < -1) | (p >= n)):
            raise ValueError("parent entries must be -1 or valid job ids")
        if np.any(p == np.arange(n)):
            raise ValueError("a job cannot be its own parent")
        self.parent = p
        self._levels = _heights(p.tolist())  # raises on a cycle

    # the generated __eq__ would compare the parent arrays inside a tuple,
    # which raises; defining it here also keeps InTree unhashable
    def __eq__(self, other):
        if not isinstance(other, InTree):
            return NotImplemented
        return np.array_equal(self.parent, other.parent)

    @property
    def n_jobs(self) -> int:
        """Number of jobs."""
        return self.parent.size

    def levels(self) -> np.ndarray:
        """Height of each job: number of edges on the path to its root.
        HLF serves greater heights first."""
        return np.array(self._levels, dtype=np.int64)

    def children_counts(self) -> np.ndarray:
        """Number of direct predecessors of each job."""
        return np.bincount(self.parent[self.parent >= 0], minlength=self.n_jobs)

    @classmethod
    def from_networkx(cls, graph) -> "InTree":
        """Build from a networkx DiGraph whose edges point from each job to
        its successor (the job that requires it). Every node needs
        out-degree at most 1; nodes must be 0..n-1."""
        import networkx as nx

        n = graph.number_of_nodes()
        if sorted(graph.nodes) != list(range(n)):
            raise ValueError("nodes must be labelled 0..n-1")
        if not nx.is_directed_acyclic_graph(graph):
            raise ValueError("precedence graph must be acyclic")
        parent = np.full(n, -1, dtype=np.int64)
        for u in graph.nodes:
            succ = list(graph.successors(u))
            if len(succ) > 1:
                raise ValueError(f"job {u} has {len(succ)} successors; in-trees allow 1")
            if succ:
                parent[u] = succ[0]
        return cls(parent=parent)

    def to_networkx(self):
        """Export as a networkx DiGraph (edges job -> successor)."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(range(self.n_jobs))
        for i, p in enumerate(self.parent):
            if p != -1:
                g.add_edge(i, int(p))
        return g


def random_intree(n: int, rng: np.random.Generator | int | None = None) -> InTree:
    """A uniformly random recursive in-tree on ``n`` jobs: job i (i >= 1)
    attaches to a uniformly chosen earlier job; job 0 is the root."""
    rng = as_generator(rng)
    parent = np.full(n, -1, dtype=np.int64)
    # one broadcast draw: the same values, and the same generator state, as
    # drawing rng.integers(0, i) for i = 1 .. n-1 in turn
    parent[1:] = rng.integers(0, np.arange(1, n))
    return InTree(parent=parent)


def hlf_policy(tree: InTree) -> Callable[[list[int]], list[int]]:
    """Highest Level First: among available jobs prefer the greatest height
    (ties to smallest id)."""
    lev = tree.levels().tolist()
    # each job's position in the (-height, id) order, sorted once per tree
    # rather than once per decision epoch
    rank = [0] * len(lev)
    for pos, j in enumerate(sorted(range(len(lev)), key=lambda j: (-lev[j], j))):
        rank[j] = pos

    def choose(available: list[int], m: int = 1) -> list[int]:
        return sorted(available, key=rank.__getitem__)[:m]

    return choose


def random_policy(rng: np.random.Generator) -> Callable[[list[int], int], list[int]]:
    """Serve a uniformly random subset of available jobs — the unstructured
    baseline for E16."""

    def choose(available: list[int], m: int) -> list[int]:
        avail = list(available)
        k = min(m, len(avail))
        idx = rng.choice(len(avail), size=k, replace=False)
        return [avail[i] for i in idx]

    return choose


def simulate_intree_makespan(
    tree: InTree,
    m: int,
    rate: float,
    choose: Callable[[list[int], int], list[int]],
    rng: np.random.Generator,
) -> float:
    """Simulate i.i.d. exponential(rate) jobs under in-tree precedence on
    ``m`` machines with a dynamic policy; returns the makespan.

    Memorylessness again permits re-deciding the running set at every
    completion epoch (preemption costs nothing in distribution for the
    policies compared here).
    """
    if m < 1 or rate <= 0:
        raise ValueError("need m >= 1 and rate > 0")
    parent = tree.parent.tolist()
    pending = tree.children_counts().tolist()
    available = [i for i in range(len(parent)) if pending[i] == 0]  # kept sorted
    t = 0.0
    for _ in range(len(parent)):
        running = choose(available[:], m)
        if not running or len(running) > m:
            raise ValueError("policy must run between 1 and m available jobs")
        k = len(running)
        t += rng.exponential(1.0 / (rate * k))
        winner = running[int(rng.integers(0, k))]
        available.remove(winner)
        succ = parent[winner]
        if succ != -1:
            pending[succ] -= 1
            if pending[succ] == 0:
                insort(available, succ)
    return t
