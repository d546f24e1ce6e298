"""Finite MDP model."""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["FiniteMDP"]


class FiniteMDP:
    """A finite MDP in tabular form.

    Parameters
    ----------
    transitions:
        Array of shape ``(n_actions, n_states, n_states)``;
        ``transitions[a, s, s']`` is ``P(s' | s, a)``. Rows must be
        stochastic for every *allowed* (s, a); disallowed actions are
        declared via ``action_sets``.
    rewards:
        Array of shape ``(n_actions, n_states)``: expected one-step reward
        for taking action ``a`` in state ``s``. (Use negative costs for
        minimisation problems.)
    action_sets:
        Optional list mapping each state to its allowed actions. Defaults to
        all actions allowed everywhere.
    validate:
        When False, skip the per-(state, action) stochasticity checks —
        for callers (e.g. the vectorized experiment kernels) constructing
        many MDPs from arrays already known to be valid.
    """

    def __init__(
        self,
        transitions: np.ndarray,
        rewards: np.ndarray,
        action_sets: Sequence[Sequence[int]] | None = None,
        *,
        validate: bool = True,
    ):
        T = np.asarray(transitions, dtype=float)
        R = np.asarray(rewards, dtype=float)
        if T.ndim != 3 or T.shape[1] != T.shape[2]:
            raise ValueError(
                f"transitions must be (A, S, S), got shape {T.shape}"
            )
        A, S, _ = T.shape
        if R.shape != (A, S):
            raise ValueError(f"rewards must be (A, S) = ({A}, {S}), got {R.shape}")
        if action_sets is None:
            action_sets = [list(range(A)) for _ in range(S)]
        if len(action_sets) != S:
            raise ValueError("action_sets must have one entry per state")
        self.action_sets = [tuple(sorted(set(acts))) for acts in action_sets]
        for s, acts in enumerate(self.action_sets):
            if not acts:
                raise ValueError(f"state {s} has no allowed actions")
            for a in acts:
                if not 0 <= a < A:
                    raise ValueError(f"action {a} out of range in state {s}")
        if validate:
            # every allowed (action, state) row at once; name the first bad one
            pairs = [(a, s) for s, acts in enumerate(self.action_sets) for a in acts]
            rows = T[tuple(np.array(pairs).T)]
            bad = np.any(rows < -1e-9, axis=1) | ~np.isclose(
                rows.sum(axis=1), 1.0, atol=1e-6
            )
            if bad.any():
                a, s = pairs[int(np.argmax(bad))]
                raise ValueError(f"transitions[{a}, {s}] is not a probability vector")
        self.transitions = T
        self.rewards = R
        self.n_actions = A
        self.n_states = S
        # the -inf mask of disallowed actions and the state index vector
        # depend only on the action sets — build them once, not per backup
        mask = np.full((A, S), -np.inf)
        for s, acts in enumerate(self.action_sets):
            for a in acts:
                mask[a, s] = 0.0
        self._mask = mask
        self._state_idx = np.arange(S)

    def bellman_backup(self, v: np.ndarray, beta: float) -> tuple[np.ndarray, np.ndarray]:
        """One Bellman optimality backup: returns ``(v_new, greedy_policy)``.

        Vectorised over actions: Q[a, s] = R[a, s] + beta * (T[a] @ v),
        masked to each state's allowed actions.
        """
        q = self.rewards + beta * np.einsum("ast,t->as", self.transitions, v)
        return self._masked_max(q)

    def _masked_max(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        qm = q + self._mask
        policy = np.argmax(qm, axis=0)
        value = qm[policy, self._state_idx]
        return value, policy

    def policy_transition_matrix(self, policy: np.ndarray) -> np.ndarray:
        """Transition matrix of the chain induced by a deterministic policy."""
        policy = np.asarray(policy, dtype=int)
        return self.transitions[policy, np.arange(self.n_states)]

    def policy_rewards(self, policy: np.ndarray) -> np.ndarray:
        """Per-state expected reward under a deterministic policy."""
        policy = np.asarray(policy, dtype=int)
        return self.rewards[policy, np.arange(self.n_states)]

    def policy_value(self, policy: np.ndarray, beta: float) -> np.ndarray:
        """Exact discounted value of a fixed deterministic policy."""
        P = self.policy_transition_matrix(policy)
        r = self.policy_rewards(policy)
        return np.linalg.solve(np.eye(self.n_states) - beta * P, r)
