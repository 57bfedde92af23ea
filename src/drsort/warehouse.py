"""Simplified robotic sortation warehouse simulator.

Each of N destinations is an agent. At every step the joint action
reallocates the M available eject chutes (full per-step reallocation),
packages arrive per an induction count vector, and a destination with at
least one assigned chute sorts all of its arrivals (infinite chute
capacity); destinations without a chute send all arrivals to the
recirculation buffer. Recirculated packages re-arrive at the next step.
Reward per agent is -recirculated_i - action_penalty * requests_i; the
trainers scale it by reward_unit(config) = 1/V.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

OBS_DIM = 5


@dataclass(frozen=True)
class EnvConfig:
    n_destinations: int = 20
    n_chutes: int = 10
    episode_steps: int = 10
    step_volume: int = 1200
    action_max: int = 1
    action_penalty: float = 0.0

    def __post_init__(self):
        if self.n_destinations < 1 or self.n_chutes < 1:
            raise ValueError("n_destinations and n_chutes must be positive")
        if self.episode_steps < 1:
            raise ValueError("episode_steps must be >= 1")
        if self.step_volume < 0 or self.action_max < 1 or self.action_penalty < 0:
            raise ValueError("invalid step_volume / action_max / action_penalty")


def main_formulation_config() -> EnvConfig:
    """Up to 10 chutes per agent and the -2a action penalty."""
    return EnvConfig(action_max=10, action_penalty=2.0)


def reward_unit(config: EnvConfig) -> float:
    """1/V: the trainers measure joint rewards in units of one step's volume."""
    return 1.0 / _backlog_cap(config)


@dataclass(frozen=True, eq=False)
class WarehouseState:
    """Environment state; equal by value, and unhashable because it holds arrays.

    One episode holds (N,) arrays and integer counters. A batch of K
    episodes advanced in lockstep holds (K, N) arrays and (K,) counters;
    all its episodes share the step index t.
    """

    t: int
    chutes_assigned: np.ndarray
    recirc_backlog: np.ndarray
    cum_recirc: int | np.ndarray
    cum_sorted: int | np.ndarray

    def __eq__(self, other):
        if not isinstance(other, WarehouseState):
            return NotImplemented
        return (
            self.t == other.t
            and np.array_equal(self.cum_recirc, other.cum_recirc)
            and np.array_equal(self.cum_sorted, other.cum_sorted)
            and np.array_equal(self.chutes_assigned, other.chutes_assigned)
            and np.array_equal(self.recirc_backlog, other.recirc_backlog)
        )

    __hash__ = None


@dataclass(frozen=True)
class StepOutcome:
    rewards: np.ndarray
    sorted: np.ndarray
    recirculated: np.ndarray
    next_state: WarehouseState


@dataclass(frozen=True)
class EpisodeMetrics:
    recirc_rate: float
    throughput: int
    recirc_amount: int


def reset(config: EnvConfig) -> WarehouseState:
    """Start state of one episode."""
    return WarehouseState(
        t=0,
        chutes_assigned=np.zeros(config.n_destinations, dtype=int),
        recirc_backlog=np.zeros(config.n_destinations, dtype=int),
        cum_recirc=0,
        cum_sorted=0,
    )


def tile(state: WarehouseState, k: int) -> WarehouseState:
    """One episode's state as a batch of k copies: read-only broadcast views, no copies.

    `step` never writes its input state, so the batch can be stepped.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    shape = (k,) + state.recirc_backlog.shape
    return replace(
        state,
        chutes_assigned=np.broadcast_to(state.chutes_assigned, shape),
        recirc_backlog=np.broadcast_to(state.recirc_backlog, shape),
        cum_recirc=np.broadcast_to(state.cum_recirc, (k,)),
        cum_sorted=np.broadcast_to(state.cum_sorted, (k,)),
    )


def step(
    state: WarehouseState,
    action: np.ndarray,
    induction: np.ndarray,
    config: EnvConfig,
) -> StepOutcome:
    """Advance one step under the given joint action and induction sample.

    For a batched state, action and induction are (K, N) and every
    outcome array gains the same leading axis.
    """
    action = np.asarray(action, dtype=int)
    induction = np.asarray(induction, dtype=int)
    shape = state.recirc_backlog.shape
    if action.shape != shape or induction.shape != shape or shape[-1] != config.n_destinations:
        raise ValueError("action and induction must have one entry per destination")
    if (
        action.min() < 0
        or action.max() > config.action_max
        or (action.sum(axis=-1) > config.n_chutes).any()
    ):
        raise ValueError("infeasible joint action")

    arrivals = induction + state.recirc_backlog
    chuted = action > 0
    sorted_counts = np.where(chuted, arrivals, 0)
    recirculated = arrivals - sorted_counts
    rewards = -recirculated.astype(float) - config.action_penalty * action

    recirc_total = recirculated.sum(axis=-1)
    sorted_total = sorted_counts.sum(axis=-1)
    if action.ndim == 1:
        recirc_total, sorted_total = int(recirc_total), int(sorted_total)
    next_state = WarehouseState(
        t=state.t + 1,
        chutes_assigned=action.copy(),
        recirc_backlog=recirculated.copy(),
        cum_recirc=state.cum_recirc + recirc_total,
        cum_sorted=state.cum_sorted + sorted_total,
    )
    return StepOutcome(
        rewards=rewards,
        sorted=sorted_counts,
        recirculated=recirculated,
        next_state=next_state,
    )


def _backlog_cap(config: EnvConfig) -> int:
    """The backlog scale: feature 4 is the backlog over it, clipped at 1."""
    return max(config.step_volume, 1)


def _feature_rows(index, available, chutes, backlog, t: int, config: EnvConfig) -> np.ndarray:
    """Observation rows of agents given by their integers: chutes.shape + (OBS_DIM,).

    chutes and backlog have one entry per agent; index and available
    broadcast to their shape.

    Features, all scaled to [0, 1]:
      0. normalized agent index
      1. chutes still assignable / M
      2. chutes assigned to this agent / A_max
      3. normalized step index t / T
      4. this agent's recirculation backlog / V, clipped at 1
    """
    n = config.n_destinations
    cap = _backlog_cap(config)
    obs = np.empty(chutes.shape + (OBS_DIM,))
    obs[..., 0] = index / (n - 1) if n > 1 else 0.0
    obs[..., 1] = available / config.n_chutes
    obs[..., 2] = chutes / config.action_max
    obs[..., 3] = t / config.episode_steps
    # min(b, V) / V is bitwise min(b / V, 1): both are exactly 1.0 once b >= V
    obs[..., 4] = np.minimum(backlog, cap) / cap
    return obs


def observe_all(state: WarehouseState, config: EnvConfig) -> np.ndarray:
    """(N, OBS_DIM) matrix of all agents' observations; (K, N, OBS_DIM) for a batch.

    The features are those of _feature_rows.
    """
    available = config.n_chutes - state.chutes_assigned.sum(axis=-1, keepdims=True)
    return _feature_rows(
        np.arange(config.n_destinations), available, state.chutes_assigned,
        state.recirc_backlog, state.t, config,
    )


def observe_distinct(state: WarehouseState, config: EnvConfig) -> tuple[np.ndarray, np.ndarray]:
    """(rows, row_of): the distinct rows of observe_all(state) and each agent's row.

    rows[row_of] is bitwise equal to observe_all(state, config); row_of has
    the state's (N,) or (K, N) shape, and no two rows are equal. An agent's
    row is a function of four integers, as t is shared by the batch: its
    index, its episode's free chutes, its own chutes, and its backlog
    clipped at V. They are packed into one int64 code per agent, the codes
    grouped by one argsort, and only the distinct rows computed, in
    ascending code order.

    A config with more than 2**63 codes, N x (M+1) x (A_max+1) x (V+1),
    is a ValueError, and so is a state with chutes outside [0, A_max],
    more than M assigned or a negative backlog.
    """
    n, m, a_max = config.n_destinations, config.n_chutes, config.action_max
    cap = _backlog_cap(config)
    if n * (m + 1) * (a_max + 1) * (cap + 1) > 2**63:
        raise ValueError(
            f"observation codes N x (M+1) x (A_max+1) x (V+1) = {n} x {m + 1} x "
            f"{a_max + 1} x {cap + 1} go beyond int64"
        )
    chutes = state.chutes_assigned
    available = m - chutes.sum(axis=-1, keepdims=True)
    backlog = np.minimum(state.recirc_backlog, cap)
    if chutes.min() < 0 or chutes.max() > a_max or available.min() < 0 or backlog.min() < 0:
        raise ValueError(
            "state has chutes outside [0, A_max], more than M assigned or a negative backlog"
        )
    code = ((np.arange(n) * (m + 1) + available) * (a_max + 1) + chutes) * (cap + 1) + backlog
    flat = code.ravel()
    first, row_of = distinct_keys(flat)
    rest, backlog = np.divmod(flat[first], cap + 1)
    rest, chutes = np.divmod(rest, a_max + 1)
    index, available = np.divmod(rest, m + 1)
    rows = _feature_rows(index, available, chutes, backlog, state.t, config)
    return rows, row_of.reshape(code.shape)


def distinct_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse) grouping the equal entries of 1-D keys or the equal rows of a 2-D array.

    Entries (rows) share a group exactly when they are equal, and
    keys[first][inverse] equals keys. One argsort orders 1-D keys, one
    lexsort over the columns orders rows (the last column first); each run
    of equal entries is one group, in ascending order, and first holds the
    position of one of its members. Only integer dtypes are grouped: float
    keys, where -0.0 == 0.0, are a TypeError.
    """
    if keys.dtype.kind not in "iu" or keys.ndim not in (1, 2):
        raise TypeError(f"distinct_keys groups 1-D or 2-D integers, got {keys.dtype} {keys.shape}")
    order = np.argsort(keys) if keys.ndim == 1 else np.lexsort(keys.T)
    ranked = keys[order]
    starts = np.empty(len(keys), dtype=bool)
    starts[:1] = True
    if keys.ndim == 1:
        np.not_equal(ranked[1:], ranked[:-1], out=starts[1:])
    else:
        np.any(ranked[1:] != ranked[:-1], axis=1, out=starts[1:])
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return order[starts], inverse


def _metrics(total_sorted: int, total_recirc: int) -> EpisodeMetrics:
    total_arrivals = total_sorted + total_recirc
    rate = total_recirc / total_arrivals if total_arrivals > 0 else 0.0
    return EpisodeMetrics(
        recirc_rate=rate, throughput=total_sorted, recirc_amount=total_recirc
    )


def episode_metrics(state: WarehouseState) -> EpisodeMetrics | list[EpisodeMetrics]:
    """Recirculation rate, throughput, and recirculation amount from the state's counters.

    One EpisodeMetrics for an (N,) state, a list of them for a (K, N) batch.
    The rate denominator counts package-passes: induction plus carryover
    re-arrivals, so each recirculation event is counted once per pass.
    """
    if np.ndim(state.cum_sorted) == 0:
        return _metrics(int(state.cum_sorted), int(state.cum_recirc))
    return [_metrics(int(s), int(r)) for s, r in zip(state.cum_sorted, state.cum_recirc)]


def trace_record(t: int, action, induction, outcome: StepOutcome, k=()) -> dict:
    """One JSON-lines trajectory record.

    For a batched outcome, k picks the episode's row of its arrays; the
    default () takes an (N,) outcome whole.
    """
    return {
        "t": t,
        "action": [int(a) for a in action],
        "induction": [int(x) for x in induction],
        "sorted": [int(x) for x in outcome.sorted[k]],
        "recirculated": [int(x) for x in outcome.recirculated[k]],
        "rewards": [float(r) for r in outcome.rewards[k]],
    }


def clone_state(state: WarehouseState) -> WarehouseState:
    """Independent copy safe to advance without touching the original."""
    return replace(
        state,
        chutes_assigned=state.chutes_assigned.copy(),
        recirc_backlog=state.recirc_backlog.copy(),
    )
