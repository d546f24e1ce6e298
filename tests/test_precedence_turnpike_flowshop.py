"""Tests for in-tree precedence (E16), the Weiss turnpike analysis (E6),
and stochastic flow shops."""

import math

import numpy as np
import pytest

from repro.batch import (
    InTree,
    Job,
    random_exponential_batch,
    random_intree,
    simulate_flowshop,
    simulate_intree_makespan,
    single_machine_lower_bound,
    weiss_gap_analysis,
    wsept_order,
)
from repro.batch.flowshop import johnson_order_deterministic, talwar_order
from repro.batch.precedence import hlf_policy, random_policy
from repro.batch.single_machine import expected_weighted_flowtime
from repro.distributions import Exponential
from repro.sim.replication import run_replications


class TestInTree:
    def test_chain_levels(self):
        # 2 -> 1 -> 0 (root)
        tree = InTree(parent=np.array([-1, 0, 1]))
        assert list(tree.levels()) == [0, 1, 2]

    def test_children_counts(self):
        tree = InTree(parent=np.array([-1, 0, 0, 1]))
        assert list(tree.children_counts()) == [2, 1, 0, 0]

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            InTree(parent=np.array([1, 0]))
        # a cycle hanging off a valid root, reached only from job 3
        with pytest.raises(ValueError, match="cycle"):
            InTree(parent=np.array([-1, 0, 4, 2, 3]))

    def test_levels_with_parents_after_children(self):
        # 0 -> 1 -> 2 (root), 3 -> 1: parent ids above their children
        tree = InTree(parent=np.array([1, 2, -1, 1]))
        assert list(tree.levels()) == [2, 1, 0, 2]
        assert list(tree.children_counts()) == [0, 2, 1, 0]

    def test_hlf_serves_greatest_height_ties_to_lowest_id(self):
        tree = InTree(parent=np.array([-1, 0, 0, 1, 2, 3]))
        # heights: 0, 1, 1, 2, 2, 3
        assert hlf_policy(tree)([1, 2, 3, 4], 3) == [3, 4, 1]
        assert hlf_policy(tree)([0, 2, 5]) == [5]

    def test_self_parent_rejected(self):
        with pytest.raises(ValueError):
            InTree(parent=np.array([0]))

    def test_random_intree_valid(self):
        tree = random_intree(30, 0)
        assert tree.n_jobs == 30
        assert (tree.parent[1:] < np.arange(1, 30)).all()

    def test_chain_makespan_is_sum(self):
        """A pure chain forces sequential service regardless of machines."""
        n = 5
        tree = InTree(parent=np.array([-1, 0, 1, 2, 3]))

        def run(rng):
            return simulate_intree_makespan(tree, 3, 1.0, hlf_policy(tree), rng)

        rep = run_replications(run, 3000, seed=0)
        assert abs(rep.mean - n) < 4 * rep.half_width

    def test_hlf_beats_random_on_average(self):
        tree = random_intree(40, 3)
        rng_pol = np.random.default_rng(9)

        def run_hlf(rng):
            return simulate_intree_makespan(tree, 3, 1.0, hlf_policy(tree), rng)

        def run_rnd(rng):
            return simulate_intree_makespan(tree, 3, 1.0, random_policy(rng_pol), rng)

        hlf = run_replications(run_hlf, 800, seed=1)
        rnd = run_replications(run_rnd, 800, seed=2)
        assert hlf.mean <= rnd.mean + hlf.half_width + rnd.half_width

    def test_equality_compares_parents(self):
        tree = random_intree(5, 0)
        assert tree == random_intree(5, 0)
        assert tree != InTree(parent=np.array([-1, 0, 0, 0, 0]))
        assert tree != InTree(parent=np.array([-1, 0, 1]))
        assert tree != tree.parent.tolist()
        with pytest.raises(TypeError):
            hash(tree)

    def test_policy_validation(self):
        tree = random_intree(5, 0)
        with pytest.raises(ValueError):
            simulate_intree_makespan(
                tree, 2, 1.0, lambda avail, m: [], np.random.default_rng(0)
            )

    def test_networkx_roundtrip(self):
        tree = random_intree(12, 7)
        g = tree.to_networkx()
        back = InTree.from_networkx(g)
        assert np.array_equal(back.parent, tree.parent)

    def test_networkx_rejects_out_degree_two(self):
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(range(3))
        g.add_edge(0, 1)
        g.add_edge(0, 2)
        with pytest.raises(ValueError):
            InTree.from_networkx(g)

    def test_networkx_rejects_cycle(self):
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(range(2))
        g.add_edge(0, 1)
        g.add_edge(1, 0)
        with pytest.raises(ValueError):
            InTree.from_networkx(g)


class TestTurnpike:
    def test_lower_bound_reduces_to_exact_single_machine(self):
        jobs = random_exponential_batch(6, np.random.default_rng(0))
        lb = single_machine_lower_bound(jobs, 1)
        assert lb == pytest.approx(expected_weighted_flowtime(jobs, wsept_order(jobs)))

    def test_lower_bound_decreases_with_machines(self):
        jobs = random_exponential_batch(10, np.random.default_rng(1))
        assert single_machine_lower_bound(jobs, 4) < single_machine_lower_bound(jobs, 2)

    def test_exact_relative_gap_shrinks_with_n(self):
        """Weiss's turnpike, measured exactly with the exponential DP:
        WSEPT's relative gap to the true optimum decreases in n and the
        absolute gap stays bounded."""
        from repro.batch.turnpike import exact_gap_sweep

        points = exact_gap_sweep([4, 8, 12], m=2, seed=0)
        rels = [p.relative_gap for p in points]
        absg = [p.absolute_gap for p in points]
        opts = [p.optimal_value for p in points]
        assert all(g >= -1e-9 for g in absg)  # WSEPT never beats the optimum
        assert all(r < 0.01 for r in rels)  # within 1% throughout
        # Weiss's point: the optimum grows like n^2 but the gap does not
        assert opts[-1] / opts[0] > 3.0
        assert absg[-1] < 0.5

    def test_wsept_above_realized_bound(self):
        """The realized EEI bound must sit below the simulated WSEPT value
        (it is a genuine lower bound on every policy)."""
        points = weiss_gap_analysis(
            lambda n, rng: random_exponential_batch(n, rng),
            ns=[12],
            m=2,
            n_replications=200,
            seed=1,
        )
        p = points[0]
        slack = 3 * (p.wsept_half_width + p.lower_bound_half_width)
        assert p.wsept_value >= p.lower_bound - slack

    def test_gap_fields(self):
        points = weiss_gap_analysis(
            lambda n, rng: random_exponential_batch(n, rng),
            ns=[6],
            m=2,
            n_replications=60,
            seed=3,
        )
        p = points[0]
        assert p.absolute_gap == pytest.approx(p.wsept_value - p.lower_bound)
        assert p.n == 6


class TestFlowShop:
    def test_single_machine_reduces_to_sum(self):
        P = np.array([[2.0], [3.0]])
        mk, comp = simulate_flowshop(P, [0, 1])
        assert mk == pytest.approx(5.0)
        assert comp == pytest.approx([2.0, 5.0])

    def test_two_machine_recurrence_by_hand(self):
        P = np.array([[1.0, 2.0], [2.0, 1.0]])
        mk, comp = simulate_flowshop(P, [0, 1])
        # job0: m1 0-1, m2 1-3; job1: m1 1-3, m2 3-4
        assert comp == pytest.approx([3.0, 4.0])
        assert mk == pytest.approx(4.0)

    def test_blocking_never_faster(self):
        rng = np.random.default_rng(0)
        P = rng.exponential(1.0, size=(6, 3))
        mk_free, _ = simulate_flowshop(P, list(range(6)), blocking=False)
        mk_blk, _ = simulate_flowshop(P, list(range(6)), blocking=True)
        assert mk_blk >= mk_free - 1e-12

    def test_johnson_optimal_deterministic(self):
        rng = np.random.default_rng(1)
        import itertools

        P = rng.uniform(0.5, 3.0, size=(5, 2))
        order = johnson_order_deterministic(P)
        mk_j, _ = simulate_flowshop(P, order)
        best = min(
            simulate_flowshop(P, list(perm))[0]
            for perm in itertools.permutations(range(5))
        )
        assert mk_j == pytest.approx(best, rel=1e-12)

    def test_talwar_beats_reverse_in_expectation(self):
        """Talwar's index order minimises expected makespan for exponential
        two-machine flow shops; verify against its reverse by simulation."""
        rng = np.random.default_rng(2)
        rates = rng.uniform(0.5, 3.0, size=(6, 2))
        order = talwar_order(rates)
        rev = order[::-1]

        def run(o, seed):
            r = np.random.default_rng(seed)
            total = 0.0
            reps = 3000
            for _ in range(reps):
                P = r.exponential(1.0 / rates)
                total += simulate_flowshop(P, o)[0]
            return total / reps

        assert run(order, 3) <= run(rev, 4) * 1.02

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_flowshop(np.ones((2, 2)), [0, 0])
        with pytest.raises(ValueError):
            talwar_order(np.ones((3, 3)))
