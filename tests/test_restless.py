"""E8 tests: restless bandits — indexability, the Whittle index, the LP
relaxation bound, and policy comparisons."""

import hashlib

import numpy as np
import pytest

from repro.bandits import (
    RestlessProject,
    average_relaxation_bound,
    is_indexable,
    myopic_rule,
    primal_dual_indices,
    random_restless_project,
    simulate_restless,
    whittle_indices,
    whittle_rule,
)
from repro.bandits.restless import passive_set


def classical_arm(P, R):
    """Embed a classical bandit arm as a restless project (frozen passive)."""
    n = P.shape[0]
    return RestlessProject(P0=np.eye(n), P1=P, R0=np.zeros(n), R1=R)


def two_state_machine(p_fail=0.3, p_repair=0.6, reward=1.0):
    """A machine: state 1 = working (active reward 1), state 0 = broken.
    Active = run it (may fail); passive = let it rest (may self-repair)."""
    P1 = np.array([[1.0, 0.0], [p_fail, 1.0 - p_fail]])
    P0 = np.array([[1.0 - p_repair, p_repair], [0.0, 1.0]])
    R1 = np.array([0.0, reward])
    R0 = np.zeros(2)
    return RestlessProject(P0=P0, P1=P1, R0=R0, R1=R1)


class TestModel:
    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            RestlessProject(
                P0=np.eye(2), P1=np.eye(3), R0=np.zeros(2), R1=np.zeros(3)
            )

    def test_subsidized_mdp_rewards(self):
        proj = two_state_machine()
        mdp = proj.subsidized_mdp(0.5)
        assert mdp.rewards[0] == pytest.approx(proj.R0 + 0.5)
        assert mdp.rewards[1] == pytest.approx(proj.R1)


class TestWhittleIndex:
    @pytest.mark.parametrize("criterion", ["average", "discounted"])
    def test_machine_is_indexable(self, criterion):
        proj = two_state_machine()
        assert is_indexable(proj, criterion=criterion)

    def test_index_orders_states_sensibly(self):
        """The working state should be more attractive to activate."""
        proj = two_state_machine()
        w = whittle_indices(proj, criterion="average")
        assert w[1] > w[0]

    def test_passive_set_grows_with_subsidy(self):
        proj = two_state_machine()
        small = passive_set(proj, -5.0)
        large = passive_set(proj, 5.0)
        assert large.sum() >= small.sum()
        assert large.all()

    @pytest.mark.parametrize("seed", range(4))
    def test_random_projects_indexable_and_finite(self, seed):
        proj = random_restless_project(4, np.random.default_rng(seed))
        w = whittle_indices(proj, criterion="average")
        assert np.all(np.isfinite(w))

    def test_whittle_reduces_to_gittins_for_classical_arm(self):
        """For a frozen passive arm with discounting, the Whittle index
        equals the (rate-normalised) Gittins index."""
        from repro.bandits import gittins_indices_vwb, MarkovProject

        rng = np.random.default_rng(5)
        P = rng.dirichlet(np.ones(3), size=3)
        R = rng.uniform(0.0, 1.0, size=3)
        beta = 0.9
        arm = classical_arm(P, R)
        w = whittle_indices(arm, criterion="discounted", beta=beta, tol=1e-8)
        g = gittins_indices_vwb(MarkovProject(P=P, R=R), beta)
        assert w == pytest.approx(g, abs=1e-4)


class TestRelaxation:
    def test_bound_increasing_in_alpha_for_positive_rewards(self):
        proj = two_state_machine()
        b1, _ = average_relaxation_bound(proj, 0.2)
        b2, _ = average_relaxation_bound(proj, 0.6)
        assert b2 >= b1 - 1e-9

    def test_alpha_zero_means_all_passive(self):
        proj = two_state_machine()
        bound, x = average_relaxation_bound(proj, 0.0)
        assert x[1].sum() == pytest.approx(0.0, abs=1e-9)
        assert bound == pytest.approx(0.0, abs=1e-9)

    def test_occupation_measure_is_valid(self):
        proj = random_restless_project(4, np.random.default_rng(0))
        _, x = average_relaxation_bound(proj, 0.3)
        assert x.sum() == pytest.approx(1.0, abs=1e-8)
        assert np.all(x >= -1e-10)
        assert x[1].sum() == pytest.approx(0.3, abs=1e-8)

    def test_bound_dominates_whittle_simulation(self):
        """The relaxation value is an upper bound on any feasible policy's
        average reward per project."""
        proj = random_restless_project(4, np.random.default_rng(1))
        alpha = 0.4
        bound, _ = average_relaxation_bound(proj, alpha)
        got = simulate_restless(
            proj, 40, 16, whittle_rule(proj), 4000, np.random.default_rng(2), warmup=400
        )
        assert got <= bound * 1.02 + 1e-6

    def test_primal_dual_indices_sign_pattern(self):
        """States the LP keeps active should carry the highest heuristic
        indices."""
        proj = random_restless_project(4, np.random.default_rng(3))
        alpha = 0.4
        _, x = average_relaxation_bound(proj, alpha)
        idx = primal_dual_indices(proj, alpha)
        active_states = np.nonzero(x[1] > 1e-6)[0]
        if active_states.size and active_states.size < 4:
            others = [s for s in range(4) if s not in set(active_states)]
            assert idx[active_states].max() >= idx[others].min() - 1e-6

    def test_invalid_alpha(self):
        # both read the same LP, so both refuse alpha before any solve
        proj = random_restless_project(4, 0)
        for solve in (average_relaxation_bound, primal_dual_indices):
            for alpha in (-0.1, 1.5):
                with pytest.raises(ValueError, match="alpha must be in"):
                    solve(proj, alpha)

    @pytest.mark.parametrize(
        "seed, n_states, alpha, digest",
        [
            (0, 4, 0.25, "da1327e2598a5d00"),
            (1, 3, 0.5, "b298a4354887d451"),
            (2, 6, 0.4, "b43cb293aeaacf08"),
            (3, 5, 0.1, "51f5636f996d0a0c"),
        ],
    )
    def test_bound_x_and_indices_are_pinned(self, seed, n_states, alpha, digest):
        # the bits each gave when the two functions built the LP apart
        proj = random_restless_project(n_states, np.random.default_rng(seed))
        bound, x = average_relaxation_bound(proj, alpha)
        idx = primal_dual_indices(proj, alpha)
        got = hashlib.sha256(bound.hex().encode() + x.tobytes() + idx.tobytes())
        assert got.hexdigest()[:16] == digest


class TestSimulation:
    def test_whittle_beats_or_matches_myopic(self):
        proj = two_state_machine(p_fail=0.4, p_repair=0.3)
        rngs = [np.random.default_rng(s) for s in (0, 1)]
        w = simulate_restless(proj, 30, 10, whittle_rule(proj), 6000, rngs[0], warmup=500)
        m = simulate_restless(proj, 30, 10, myopic_rule(proj), 6000, rngs[1], warmup=500)
        assert w >= m - 0.02

    def test_asymptotic_gap_shrinks_with_n(self):
        """Weber–Weiss: per-project gap to the relaxation bound shrinks as
        N grows with m/N fixed."""
        proj = two_state_machine(p_fail=0.3, p_repair=0.4)
        alpha = 0.4
        bound, _ = average_relaxation_bound(proj, alpha)
        gaps = []
        for k, N in enumerate((10, 160)):
            got = simulate_restless(
                proj,
                N,
                int(alpha * N),
                whittle_rule(proj),
                8000,
                np.random.default_rng(10 + k),
                warmup=800,
            )
            gaps.append(bound - got)
        assert gaps[1] <= gaps[0] + 0.01

    def test_m_bounds_validated(self):
        proj = two_state_machine()
        with pytest.raises(ValueError):
            simulate_restless(proj, 5, 9, whittle_rule(proj), 10, np.random.default_rng(0))

    def test_all_active_equals_full_activation(self):
        """m = N: every project active every epoch; average reward equals
        the single-project always-active chain average."""
        proj = two_state_machine()
        from repro.markov import MarkovChain

        chain = MarkovChain(proj.P1, rewards=proj.R1)
        target = chain.average_reward()
        got = simulate_restless(
            proj, 20, 20, whittle_rule(proj), 20000, np.random.default_rng(4), warmup=2000
        )
        assert got == pytest.approx(target, abs=0.03)
