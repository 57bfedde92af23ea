"""Exact solver for the budgeted joint-action integer program.

The joint action maximizes sum_i values[i][a_i] subject to
sum_i a_i <= budget and 0 <= a_i <= A_max. This is a multiple-choice
knapsack with unit weights per action level, solved exactly by dynamic
programming over (agent, remaining budget) in O(N * budget * A_max).

A stack of B tables is solved together with the batch axis last: the
suffix table dp has shape (N+1, pad+budget+1, B). One read-only strided
view of dp, windows[i, a, b, k] = dp[i, pad+b-a, k], holds every
candidate the recursion reads (agent i reads windows[i+1]), so each
agent costs one add of its levels into a preallocated buffer and one max
over the action level, for the whole stack. Every dp entry is the max
over a of one addition tables[k, i, a] + dp[i+1, pad+b-a, k]; max is
exact, so the layout cannot change a value.

The reconstruction reads the same view and takes, per agent, the first
level whose candidate attains that max. A single table (every training
step's greedy action) finds every agent's choice at every budget in one
pass and then follows the budget left from agent to agent in Python; a
stack (the lockstep evaluation) walks the agents in turn and reads each
table's candidates at its own budget left.

Tie-breaking is a frozen contract: among optimal joint actions, the
lexicographically smallest vector (smaller action first, then smaller
agent index) is returned. The objective is accumulated right-to-left
(values[i] + rest), which is also the order the brute-force oracle uses,
so DP and enumeration agree on exact floats.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np
from numpy.lib.stride_tricks import as_strided

BRUTE_FORCE_LIMIT = 10_000_000


def _check_table(values: np.ndarray, ndims: tuple[int, ...] = (2,)) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.ndim not in ndims:
        stack = " or a 3-D stack of tables" if 3 in ndims else ""
        raise ValueError(f"action-value table must be 2-D (agents x actions){stack}")
    if not np.all(np.isfinite(values)):
        raise ValueError("action-value table contains non-finite entries")
    return values


def _check_budget(budget: int) -> None:
    if budget < 0:
        raise ValueError("budget must be nonnegative")


def _suffix_table(
    tables: np.ndarray, budget: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dp, levels, windows) for a (B, N, A+1) stack, with the batch axis last.

    levels[i, a, k] = tables[k, i, a] for a <= pad = min(A, budget) (a
    strided view: copying it costs more than the strided add saves), and
    dp[i, pad + b, k] is the best value of table k's agents i..N-1 with
    budget b; the first `pad` columns hold -inf, so a level above the
    budget b is never the max.

    windows[i, a, b, k] = dp[i, pad + b - a, k], for i = 0..N, is one
    read-only as_strided view of dp itself (dp's strides, the column stride
    negated for a), built once, so it sees each row of dp as soon as it is
    written. Each agent i costs two numpy calls for the whole stack: one
    add of windows[i+1] and levels[i] into a preallocated
    (pad+1, budget+1, B) buffer, and one max over a into dp[i, pad:].

    Each entry is the max over a of the single addition
    tables[k, i, a] + dp[i+1, pad + b - a, k]; max is exact, so the entries
    depend neither on the layout nor on the order the candidates are
    visited in.
    """
    n_batch, n_agents, n_actions = tables.shape
    pad = min(n_actions - 1, budget)
    levels = tables[:, :, : pad + 1].transpose(1, 2, 0)
    dp = np.full((n_agents + 1, pad + budget + 1, n_batch), -np.inf)
    dp[n_agents, pad:] = 0.0
    row, col, batch = dp.strides
    shape = (n_agents + 1, pad + 1, budget + 1, n_batch)
    windows = as_strided(dp[:, pad:], shape, (row, -col, col, batch), writeable=False)
    cand = np.empty((pad + 1, budget + 1, n_batch))
    for i in range(n_agents - 1, -1, -1):
        np.add(windows[i + 1], levels[i, :, None], out=cand)
        np.maximum.reduce(cand, axis=0, out=dp[i, pad:])
    return dp, levels, windows


def _binary_argmax(tables: np.ndarray, budget: int) -> np.ndarray:
    """Fast path for two-level actions: per table, pick the largest positive gains.

    Equivalent to the DP with its tie-break: on equal gains the chute
    goes to the larger agent index (the lexicographically smaller joint
    action), and zero-gain agents stay at action 0.
    """
    n_batch, n_agents, _ = tables.shape
    gains = tables[:, :, 1] - tables[:, :, 0]
    # a stable sort of the agents in reverse order ranks equal gains by descending index
    order = n_agents - 1 - np.argsort(-gains[:, ::-1], axis=1, kind="stable")
    k = np.minimum(budget, np.count_nonzero(gains > 0.0, axis=1))
    action = np.zeros((n_batch, n_agents), dtype=int)
    action[np.arange(n_batch)[:, None], order] = np.arange(n_agents) < k[:, None]
    return action


def solve_budget_argmax(values: np.ndarray, budget: int) -> np.ndarray:
    """Optimal feasible joint action for the given value table.

    `values` is one (N, A+1) table, giving an integer vector of length N,
    or a (K, N, A+1) stack, giving one action per table as a (K, N) array.
    budget=0 forces the all-zero action (always feasible).
    """
    values = _check_table(values, (2, 3))
    _check_budget(budget)
    tables = values if values.ndim == 3 else values[None]
    if tables.shape[2] == 2:
        action = _binary_argmax(tables, budget)
    elif tables.shape[0] == 1:
        action = _single_table_choices(tables, budget)[None]
    else:
        action = _stack_choices(tables, budget)
    return action if values.ndim == 3 else action[0]


def _single_table_choices(tables: np.ndarray, budget: int) -> np.ndarray:
    """The (N,) optimal action of a (1, N, A+1) stack.

    Agent i's candidates at budget b, windows[i+1, :, b] + levels[i], are the
    same sums that dp[i, pad + b] is the max of, so their first argmax over
    the level is the smallest level that attains the optimum. One pass
    finds it for every (agent, budget) pair; the action then follows the
    budget left through these (N, budget+1) choices.
    """
    _, levels, windows = _suffix_table(tables, budget)
    choices = (windows[1:, ..., 0] + levels[:, :, None, 0]).argmax(axis=1).tolist()
    action = []
    left = budget
    for row in choices:
        action.append(row[left])
        left -= row[left]
    return np.array(action, dtype=int)


def _stack_choices(tables: np.ndarray, budget: int) -> np.ndarray:
    """The (B, N) optimal actions of a stack, one agent at a time for all tables.

    Agent i's candidates in table k, at its budget left, are
    windows[i+1, :, left[k], k] + levels[i, :, k], read for every table at
    once; its level is their first argmax (see _single_table_choices).
    """
    _, levels, windows = _suffix_table(tables, budget)
    n_agents, _, n_batch = levels.shape
    k = np.arange(n_batch)
    left = np.full(n_batch, budget)
    action = np.empty((n_batch, n_agents), dtype=int)
    for i in range(n_agents):
        cand = windows[i + 1][:, left, k] + levels[i]
        cand.argmax(axis=0, out=action[:, i])
        left -= action[:, i]
    return action


def max_joint_value(values: np.ndarray, budget: int) -> float:
    """Optimal objective value only (no reconstruction)."""
    values = _check_table(values)
    _check_budget(budget)
    dp, _, _ = _suffix_table(values[None], budget)
    return float(dp[0, -1, 0])


def max_joint_value_batch(tables: np.ndarray, budget: int) -> np.ndarray:
    """Vectorized optimal values for a (B, N, A+1) stack of tables.

    Multi-level tables read the same suffix table as max_joint_value, so
    their values are identical. Two-level tables take a top-k sum whose
    floating-point association may differ (training-loop bootstrap path,
    not the exactness-tested solver).
    """
    tables = np.asarray(tables, dtype=float)
    _check_budget(budget)
    n_batch, n_agents, n_actions = tables.shape
    if n_actions == 2:
        base = tables[:, :, 0].sum(axis=1)
        gains = np.maximum(tables[:, :, 1] - tables[:, :, 0], 0.0)
        if budget == 0:
            return base
        if budget < n_agents:
            top = np.partition(gains, n_agents - budget, axis=1)[:, n_agents - budget:]
            return base + top.sum(axis=1)
        return base + gains.sum(axis=1)
    dp, _, _ = _suffix_table(tables, budget)
    return dp[0, -1]


def joint_value(values: np.ndarray, action: np.ndarray) -> float:
    """Objective of one joint action, accumulated right-to-left."""
    values = np.asarray(values, dtype=float)
    total = 0.0
    for i in range(len(action) - 1, -1, -1):
        total = values[i, action[i]] + total
    return total


def brute_force_argmax(values: np.ndarray, budget: int) -> np.ndarray:
    """Exhaustive-enumeration oracle with the same tie-break as the DP."""
    values = _check_table(values)
    n_agents, n_actions = values.shape
    if n_actions**n_agents > BRUTE_FORCE_LIMIT:
        raise ValueError("instance too large for brute force")
    best_action = None
    best_value = -np.inf
    for action in itertools.product(range(min(n_actions - 1, budget) + 1), repeat=n_agents):
        if sum(action) > budget:
            continue
        value = joint_value(values, np.asarray(action))
        if value > best_value:
            best_value = value
            best_action = action
    return np.asarray(best_action, dtype=int)


_INT64_MAX = int(np.iinfo(np.int64).max)


@functools.lru_cache(maxsize=None)
def count_feasible(n_agents: int, a_max: int, budget: int) -> np.ndarray:
    """counts[i][b] = number of feasible suffix assignments for agents i.. with budget b.

    The counts are exact Python ints (an object array): they pass 2**63
    already at N=64 binary agents with budget 32.
    """
    _check_budget(budget)
    counts = np.zeros((n_agents + 1, budget + 1), dtype=object)
    counts[n_agents] = 1
    for i in range(n_agents - 1, -1, -1):
        for b in range(budget + 1):
            counts[i, b] = sum(counts[i + 1, b - a] for a in range(min(a_max, b) + 1))
    counts.setflags(write=False)
    return counts


def _uniform_below(total: int, rng: np.random.Generator) -> int:
    """Exact uniform draw from range(total) for any positive Python int."""
    if total <= _INT64_MAX:
        return int(rng.integers(total))
    # rejection sampling over whole bytes: each try is accepted with probability > 1/2
    n_bits = (total - 1).bit_length()
    n_bytes = (n_bits + 7) // 8
    while True:
        value = int.from_bytes(rng.bytes(n_bytes), "little") >> (8 * n_bytes - n_bits)
        if value < total:
            return value


def sample_feasible_uniform(
    n_agents: int, a_max: int, budget: int, rng: np.random.Generator
) -> np.ndarray:
    """Exact uniform draw over {a : sum a_i <= budget, 0 <= a_i <= a_max}.

    Sequential conditional sampling against the suffix-count table.
    """
    counts = count_feasible(n_agents, a_max, budget)
    action = np.zeros(n_agents, dtype=int)
    remaining = budget
    for i in range(n_agents):
        pick = _uniform_below(counts[i, remaining], rng)
        acc = 0
        for a in range(min(a_max, remaining) + 1):
            acc += counts[i + 1, remaining - a]
            if pick < acc:
                action[i] = a
                remaining -= a
                break
    return action
