"""Simplified robotic sortation warehouse simulator.

Each of N destinations is an agent. At every step the joint action
reallocates the M available eject chutes (full per-step reallocation),
packages arrive per an induction count vector, and a destination with at
least one assigned chute sorts all of its arrivals (infinite chute
capacity); destinations without a chute send all arrivals to the
recirculation buffer. With carryover enabled, recirculated packages
re-arrive at the next step. Reward per agent is
-recirculated_i - action_penalty * requests_i.
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
    recirc_carryover: bool = True

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


def reset(config: EnvConfig, *, batch: int | None = None) -> WarehouseState:
    """Start state of one episode, or of `batch` episodes run in lockstep."""
    if batch is None:
        return WarehouseState(
            t=0,
            chutes_assigned=np.zeros(config.n_destinations, dtype=int),
            recirc_backlog=np.zeros(config.n_destinations, dtype=int),
            cum_recirc=0,
            cum_sorted=0,
        )
    if batch < 1:
        raise ValueError("batch must be >= 1")
    shape = (batch, config.n_destinations)
    return WarehouseState(
        t=0,
        chutes_assigned=np.zeros(shape, dtype=int),
        recirc_backlog=np.zeros(shape, dtype=int),
        cum_recirc=np.zeros(batch, dtype=int),
        cum_sorted=np.zeros(batch, dtype=int),
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

    arrivals = induction + (state.recirc_backlog if config.recirc_carryover else 0)
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
        recirc_backlog=recirculated.copy() if config.recirc_carryover else np.zeros(shape, dtype=int),
        cum_recirc=state.cum_recirc + recirc_total,
        cum_sorted=state.cum_sorted + sorted_total,
    )
    return StepOutcome(
        rewards=rewards,
        sorted=sorted_counts,
        recirculated=recirculated,
        next_state=next_state,
    )


def episode_outcome(outcome: StepOutcome, k: int) -> StepOutcome:
    """Episode k's slice of a batched step: what a single-episode step returns."""
    state = outcome.next_state
    return StepOutcome(
        rewards=outcome.rewards[k],
        sorted=outcome.sorted[k],
        recirculated=outcome.recirculated[k],
        next_state=WarehouseState(
            t=state.t,
            chutes_assigned=state.chutes_assigned[k],
            recirc_backlog=state.recirc_backlog[k],
            cum_recirc=int(state.cum_recirc[k]),
            cum_sorted=int(state.cum_sorted[k]),
        ),
    )


def observe(state: WarehouseState, agent_index: int, config: EnvConfig) -> np.ndarray:
    """Local observation of agent_index (1-based): its row of observe_all."""
    if not 1 <= agent_index <= config.n_destinations:
        raise ValueError("agent_index out of range")
    return observe_all(state, config)[..., agent_index - 1, :]


def observe_all(state: WarehouseState, config: EnvConfig) -> np.ndarray:
    """(N, OBS_DIM) matrix of all agents' observations; (K, N, OBS_DIM) for a batch.

    Features, all scaled to [0, 1]:
      0. normalized agent index
      1. chutes still assignable / M
      2. chutes assigned to this agent / A_max
      3. normalized step index t / T
      4. this agent's recirculation backlog / V, clipped at 1
    """
    n = config.n_destinations
    available = config.n_chutes - state.chutes_assigned.sum(axis=-1, keepdims=True)
    backlog_scale = max(config.step_volume, 1)
    obs = np.empty(state.chutes_assigned.shape + (OBS_DIM,))
    obs[..., 0] = np.arange(n) / (n - 1) if n > 1 else 0.0
    obs[..., 1] = available / config.n_chutes
    obs[..., 2] = state.chutes_assigned / config.action_max
    obs[..., 3] = state.t / config.episode_steps
    obs[..., 4] = np.minimum(state.recirc_backlog / backlog_scale, 1.0)
    return obs


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


def trace_record(t: int, action, induction, outcome: StepOutcome) -> dict:
    """One JSON-lines trajectory record."""
    return {
        "t": t,
        "action": [int(a) for a in action],
        "induction": [int(x) for x in induction],
        "sorted": [int(x) for x in outcome.sorted],
        "recirculated": [int(x) for x in outcome.recirculated],
        "rewards": [float(r) for r in outcome.rewards],
    }


def clone_state(state: WarehouseState) -> WarehouseState:
    """Independent copy safe to advance without touching the original."""
    return replace(
        state,
        chutes_assigned=state.chutes_assigned.copy(),
        recirc_backlog=state.recirc_backlog.copy(),
    )
