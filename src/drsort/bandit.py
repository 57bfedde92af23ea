"""Contextual-bandit worst-case reward predictor.

The predictor regresses the expected single-step joint reward of each
induction group onto the joint (state, action) context. One network with
m output heads serves all groups, so the worst-group query is a single
forward pass followed by an argmin. Training follows an epsilon-greedy
group-selection loop: actions come from a fixed exploration policy, the
executed group is uniform with probability epsilon and the current
argmin otherwise, and only the executed group's head receives error
signal.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import budget, warehouse
from .induction import GroupSet
from .seeding import stream
from .valuenet import (
    MlpParams,
    Optimizer,
    ReplayBuffer,
    greedy_actions,
    init_mlp,
    mlp_forward,
    mlp_forward_cached,
    mlp_gradient_step,
)


@dataclass(frozen=True)
class CbConfig:
    learning_rate: float = 1e-3
    episodes: int = 200
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_fraction: float = 0.8
    batch_size: int = 64
    buffer_capacity: int = 50_000
    hidden: tuple[int, int] = (64, 64)
    optimizer: str = "adam"
    explore: str = "random"  # random | checkpoint | mixed
    reward_scale: float = 1.0
    dtype: str = "float64"

    def __post_init__(self):
        if not 0.0 <= self.epsilon_end <= self.epsilon_start <= 1.0:
            raise ValueError("epsilon schedule must stay within [0, 1] and be nonincreasing")
        if self.learning_rate <= 0 or self.episodes < 0:
            raise ValueError("invalid learning rate or episode count")


@dataclass(frozen=True)
class CbTransition:
    context: np.ndarray
    group: int  # 0-based
    observed_reward: float


def epsilon_at(step: int, total_steps: int, start: float, end: float, fraction: float) -> float:
    """Linear decay from start to end over the first `fraction` of steps."""
    horizon = max(int(total_steps * fraction), 1)
    if step >= horizon:
        return end
    return start + (end - start) * (step / horizon)


def cb_context(observations: np.ndarray, action: np.ndarray, a_max: int) -> np.ndarray:
    """Flatten (N, OBS_DIM) observations plus normalized actions into one vector."""
    action = np.asarray(action, dtype=float) / a_max
    return np.concatenate([np.asarray(observations, dtype=float).ravel(), action])


def cb_context_dim(n_destinations: int, obs_dim: int = warehouse.OBS_DIM) -> int:
    return n_destinations * obs_dim + n_destinations


def default_cb_dims(n_destinations: int, n_groups: int, hidden=(64, 64)) -> list[int]:
    return [cb_context_dim(n_destinations), *hidden, n_groups]


def cb_predict(
    params: MlpParams, observations: np.ndarray, action: np.ndarray, a_max: int
) -> np.ndarray:
    """Predicted expected single-step reward per group, shape (m,)."""
    return mlp_forward(params, cb_context(observations, action, a_max))


def cb_worst_group(
    params: MlpParams, observations: np.ndarray, action: np.ndarray, a_max: int
) -> int:
    """Argmin over group heads; ties go to the smallest index (0-based)."""
    return int(np.argmin(cb_predict(params, observations, action, a_max)))


def choose_group(
    params: MlpParams,
    observations: np.ndarray,
    action: np.ndarray,
    a_max: int,
    n_groups: int,
    epsilon: float,
    rng: np.random.Generator,
) -> int:
    """Epsilon-greedy group selection: uniform with prob epsilon, else argmin."""
    if rng.random() < epsilon:
        return int(rng.integers(n_groups))
    return cb_worst_group(params, observations, action, a_max)


def cb_update(
    params: MlpParams,
    optimizer: Optimizer,
    batch: list[CbTransition],
) -> float:
    """One gradient step on the per-head squared error; returns the batch loss.

    Only the head of each transition's executed group receives error
    signal.
    """
    if not batch:
        raise ValueError("cb_update requires a nonempty batch")
    contexts = np.stack([t.context for t in batch])
    groups = np.array([t.group for t in batch])
    targets = np.array([t.observed_reward for t in batch])
    preds, cache = mlp_forward_cached(params, contexts)
    rows = np.arange(len(batch))
    errors = preds[rows, groups] - targets
    loss = float(np.mean(errors**2))
    grad_out = np.zeros_like(preds)
    grad_out[rows, groups] = 2.0 * errors / len(batch)
    mlp_gradient_step(params, cache, grad_out, optimizer)
    return loss


# ---------------------------------------------------------------------------
# Exploration policies (Algorithm inputs)
# ---------------------------------------------------------------------------


def random_table_policy(env_config: warehouse.EnvConfig, rng: np.random.Generator):
    """Feasible actions from the budgeted argmax of a random value table."""

    def policy(state: warehouse.WarehouseState) -> np.ndarray:
        table = rng.standard_normal((env_config.n_destinations, env_config.action_max + 1))
        return budget.solve_budget_argmax(table, env_config.n_chutes)

    return policy


def greedy_policy(q_params: MlpParams, env_config: warehouse.EnvConfig):
    """Budgeted greedy actions from a trained joint Q decomposition."""

    def policy(state: warehouse.WarehouseState) -> np.ndarray:
        obs = warehouse.observe_all(state, env_config)
        return greedy_actions(q_params, obs, env_config.action_max, env_config.n_chutes)

    return policy


def make_exploration_policy(
    kind: str,
    env_config: warehouse.EnvConfig,
    rng: np.random.Generator,
    q_params: MlpParams | None = None,
):
    if kind == "random":
        return random_table_policy(env_config, rng)
    if kind in ("checkpoint", "mixed") and q_params is None:
        raise ValueError(f"{kind} exploration requires q_params (a trained policy)")
    if kind == "checkpoint":
        return greedy_policy(q_params, env_config)
    if kind == "mixed":
        random_leg = random_table_policy(env_config, rng)
        greedy_leg = greedy_policy(q_params, env_config)

        def policy(state: warehouse.WarehouseState) -> np.ndarray:
            if rng.random() < 0.5:
                return random_leg(state)
            return greedy_leg(state)

        return policy
    raise ValueError(f"unknown exploration policy kind: {kind!r}")


# ---------------------------------------------------------------------------
# Algorithm: CB training loop
# ---------------------------------------------------------------------------


@dataclass
class CbTrainResult:
    params: MlpParams
    episode_losses: list[float] = field(default_factory=list)
    wall_clock_s: float = 0.0


def train_cb(
    env_config: warehouse.EnvConfig,
    group_set: GroupSet,
    cb_config: CbConfig,
    seed: int,
    q_params: MlpParams | None = None,
) -> CbTrainResult:
    """Train the worst-case reward predictor.

    Actions come from the exploration policy named by `cb_config.explore`
    (make_exploration_policy); its "checkpoint" and "mixed" kinds need
    q_params, the trained MARL policy. The executed induction group is chosen
    epsilon-greedily between a uniform draw and the current argmin head.
    """
    if group_set.size < 1:
        raise ValueError("empty group set")
    t_start = time.perf_counter()
    explore_policy = make_exploration_policy(
        cb_config.explore, env_config, stream(seed, "cb/explore-policy"), q_params=q_params
    )
    m = group_set.size
    a_max = env_config.action_max
    init_rng = stream(seed, "cb/init")
    group_rng = stream(seed, "cb/groups")
    induction_rng = stream(seed, "cb/induction")
    replay_rng = stream(seed, "cb/replay")

    params = init_mlp(
        default_cb_dims(env_config.n_destinations, m, cb_config.hidden),
        init_rng,
        dtype=np.dtype(cb_config.dtype),
    )
    optimizer = Optimizer(kind=cb_config.optimizer, learning_rate=cb_config.learning_rate)
    buffer = ReplayBuffer(cb_config.buffer_capacity)

    total_steps = cb_config.episodes * env_config.episode_steps
    step_count = 0
    episode_losses: list[float] = []
    for _episode in range(cb_config.episodes):
        state = warehouse.reset(env_config)
        losses: list[float] = []
        for _t in range(env_config.episode_steps):
            obs = warehouse.observe_all(state, env_config)
            action = explore_policy(state)
            eps = epsilon_at(
                step_count,
                total_steps,
                cb_config.epsilon_start,
                cb_config.epsilon_end,
                cb_config.epsilon_decay_fraction,
            )
            group = choose_group(params, obs, action, a_max, m, eps, group_rng)
            induction = group_set.sample(group, induction_rng)
            outcome = warehouse.step(state, action, induction, env_config)
            reward = float(outcome.rewards.sum()) * cb_config.reward_scale
            buffer.push(
                CbTransition(
                    context=cb_context(obs, action, a_max), group=group, observed_reward=reward
                )
            )
            if len(buffer) >= cb_config.batch_size:
                batch = buffer.sample(cb_config.batch_size, replay_rng)
                losses.append(cb_update(params, optimizer, batch))
            state = outcome.next_state
            step_count += 1
        if losses:
            episode_losses.append(float(np.mean(losses)))
    return CbTrainResult(
        params=params,
        episode_losses=episode_losses,
        wall_clock_s=time.perf_counter() - t_start,
    )
