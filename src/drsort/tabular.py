"""Exact tabular distributionally robust Bellman machinery.

For a finite family of per-group expected rewards R_g and a shared
transition kernel P, the robust backup replaces the immediate reward with
its minimum over groups:

    T(Q)(s,a) = min_g R_g[s,a] + gamma * sum_s' P[s,a,s'] * max_a' Q[s',a'].

When the groups also carry their own transition kernels P_g, T takes the
continuation term's minimum over groups separately. The approximate
operator takes a single joint minimum over groups of
reward-plus-continuation, which upper-bounds the robust backup:

    U(Q)(s,a) = min_g { R_g[s,a] + gamma * sum_s' P_g[s,a,s'] * max_a' Q[s',a'] }.

Both operators are gamma-contractions in the sup norm.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

TRANSITION_TOL = 1e-12


@dataclass(frozen=True)
class TabularMdp:
    """Finite MDP with per-group rewards and shared or per-group transitions.

    rewards: (m, S, A); transitions: (S, A, S) shared, or (m, S, A, S)
    per-group.
    """

    rewards: np.ndarray
    transitions: np.ndarray
    gamma: float

    def __post_init__(self):
        rewards = np.asarray(self.rewards, dtype=float)
        transitions = np.asarray(self.transitions, dtype=float)
        object.__setattr__(self, "rewards", rewards)
        object.__setattr__(self, "transitions", transitions)
        if rewards.ndim != 3:
            raise ValueError("rewards must have shape (m, S, A)")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if transitions.ndim not in (3, 4):
            raise ValueError("transitions must have shape (S, A, S) or (m, S, A, S)")
        row_sums = transitions.sum(axis=-1)
        if np.any(np.abs(row_sums - 1.0) > TRANSITION_TOL):
            raise ValueError("each transition row must sum to 1")

    @property
    def n_states(self) -> int:
        return self.rewards.shape[1]

    @property
    def n_actions(self) -> int:
        return self.rewards.shape[2]

    @property
    def per_group_transitions(self) -> bool:
        return self.transitions.ndim == 4


def worst_case_reward(group_rewards: np.ndarray) -> float:
    """min over groups of the expected reward at one (s, a)."""
    group_rewards = np.asarray(group_rewards, dtype=float)
    if group_rewards.size == 0:
        raise ValueError("need at least one group reward")
    return float(group_rewards.min())


def _simplex_grid(m: int, resolution: int):
    """All weight vectors with entries k/resolution on the m-simplex."""
    for combo in itertools.combinations_with_replacement(range(m), resolution):
        counts = np.bincount(combo, minlength=m)
        yield counts / resolution


def simplex_min_oracle(
    group_rewards: np.ndarray,
    resolution: int = 20,
    rng: np.random.Generator | None = None,
    n_dirichlet: int = 10_000,
) -> float:
    """Brute-force minimum of sum_g q_g r_g over the simplex.

    Dense grid plus random Dirichlet draws; test oracle for the
    vertex-optimum reduction of the worst-case expected reward.
    """
    group_rewards = np.asarray(group_rewards, dtype=float)
    m = group_rewards.size
    if m > 5:
        raise ValueError("simplex oracle limited to m <= 5")
    best = math.inf
    for q in _simplex_grid(m, resolution):
        best = min(best, float(q @ group_rewards))
    if rng is not None and n_dirichlet > 0:
        draws = rng.dirichlet(np.ones(m), size=n_dirichlet)
        best = min(best, float((draws @ group_rewards).min()))
    return best


def dr_bellman_apply(mdp: TabularMdp, q_table: np.ndarray) -> np.ndarray:
    """One application of the robust backup T.

    With per-group transitions the reward and continuation terms take
    separate minima over groups; U dominates T elementwise.
    """
    q_table = np.asarray(q_table, dtype=float)
    greedy_values = q_table.max(axis=1)
    continuation = mdp.gamma * (mdp.transitions @ greedy_values)
    if mdp.per_group_transitions:
        continuation = continuation.min(axis=0)
    return mdp.rewards.min(axis=0) + continuation


def approx_bellman_apply(mdp: TabularMdp, q_table: np.ndarray) -> np.ndarray:
    """One application of the joint-min upper-bound operator U."""
    q_table = np.asarray(q_table, dtype=float)
    greedy_values = q_table.max(axis=1)
    # (S, A) shared or (m, S, A) per-group; either broadcasts against rewards
    continuation = mdp.gamma * (mdp.transitions @ greedy_values)
    return (mdp.rewards + continuation).min(axis=0)

