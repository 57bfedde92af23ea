"""Contextual-bandit worst-case reward predictor.

The predictor regresses the expected single-step joint reward of each
induction group onto the joint (state, action) context. One network with
m output heads serves all groups, so the worst-group query is a single
forward pass followed by an argmin. Training follows an epsilon-greedy
group-selection loop: actions come from a fixed exploration policy
(explore_action), the executed group is uniform with probability epsilon
and the current argmin otherwise, and only the executed group's head
receives error signal. Like the Q-net's, the regression targets are joint
rewards scaled by warehouse.reward_unit.

The replay is three preallocated columns (contexts, executed groups,
scaled rewards), and a ReplayRing, the Q-net's ring rules, picks the row
each step writes and the rows each update gathers. Contexts are stored
in NET_DTYPE, the network's dtype: a step writes its context once, and
that row feeds both its argmin and, gathered, later updates, with no
concatenation or cast. The one cast on the way in rounds each value as
the forward pass's own cast of a float64 context would, so the predictor
is bit-equal to one trained on float64 contexts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import budget, warehouse
from .induction import GroupSet
from .seeding import stream
from .valuenet import (
    NET_DTYPE,
    LearnerConfig,
    MlpParams,
    Optimizer,
    ReplayRing,
    greedy_actions,
    init_mlp,
    mlp_backward,
    mlp_forward,
    mlp_forward_cached,
)


EXPLORE_KINDS = ("random", "mixed")


@dataclass(frozen=True)
class CbConfig(LearnerConfig):
    episodes: int = 200
    explore: str = "mixed"  # one of EXPLORE_KINDS

    def __post_init__(self):
        super().__post_init__()
        if self.explore not in EXPLORE_KINDS:
            raise ValueError(f"unknown explore kind {self.explore!r}; choose from {EXPLORE_KINDS}")


def cb_context(
    observations: np.ndarray, action: np.ndarray, a_max: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Flatten (N, OBS_DIM) observations plus normalized actions into one vector.

    The vector is float64, or written into `out` (cast to its dtype) when given.
    """
    observations = np.asarray(observations, dtype=float)
    split = observations.size
    if out is None:
        out = np.empty(split + len(action))
    out[:split] = observations.ravel()
    out[split:] = np.asarray(action, dtype=float) / a_max
    return out


def cb_context_dim(n_destinations: int) -> int:
    return n_destinations * warehouse.OBS_DIM + n_destinations


def default_cb_dims(n_destinations: int, n_groups: int, hidden=LearnerConfig.hidden) -> list[int]:
    return [cb_context_dim(n_destinations), *hidden, n_groups]


def cb_worst_group(
    params: MlpParams, observations: np.ndarray, action: np.ndarray, a_max: int
) -> int:
    """Argmin of the predicted single-step reward per group; ties go to the smallest (0-based)."""
    return int(np.argmin(mlp_forward(params, cb_context(observations, action, a_max))))


def choose_group(
    params: MlpParams,
    context: np.ndarray,
    n_groups: int,
    epsilon: float,
    rng: np.random.Generator,
) -> int:
    """Epsilon-greedy group selection for one cb_context: uniform with prob epsilon, else argmin.

    Ties in the argmin go to the smallest index (0-based).
    """
    if rng.random() < epsilon:
        return int(rng.integers(n_groups))
    return int(np.argmin(mlp_forward(params, context)))


def cb_update(
    params: MlpParams,
    optimizer: Optimizer,
    contexts: np.ndarray,
    groups: np.ndarray,
    rewards: np.ndarray,
) -> float:
    """One gradient step on the per-head squared error; returns the batch loss.

    Row i of the batch is context contexts[i] (B, context dim), executed
    group groups[i] (0-based) and observed scaled reward rewards[i]; only
    that group's head receives row i's error signal.
    """
    n = len(groups)
    if not n:
        raise ValueError("cb_update requires a nonempty batch")
    preds, cache = mlp_forward_cached(params, contexts)
    rows = np.arange(n)
    errors = preds[rows, groups] - rewards
    loss = float(np.mean(errors**2))
    grad_out = np.zeros_like(preds)
    grad_out[rows, groups] = 2.0 * errors / n
    optimizer.apply(params, mlp_backward(params, cache, grad_out).flat)
    return loss


# ---------------------------------------------------------------------------
# Exploration policy (Algorithm input)
# ---------------------------------------------------------------------------


def explore_action(
    kind: str,
    observations: np.ndarray,
    env_config: warehouse.EnvConfig,
    rng: np.random.Generator,
    q_params: MlpParams | None = None,
) -> np.ndarray:
    """The exploration policy's joint action for one state's (N, OBS_DIM) observations.

    "random": the budgeted argmax of a random value table. "mixed": with
    probability 1/2 that, otherwise the budgeted greedy action of q_params,
    the trained MARL policy.
    """
    if kind == "mixed" and rng.random() >= 0.5:
        return greedy_actions(q_params, observations, env_config.action_max, env_config.n_chutes)
    table = rng.standard_normal((env_config.n_destinations, env_config.action_max + 1))
    return budget.solve_budget_argmax(table, env_config.n_chutes)


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

    Actions come from explore_action of kind `cb_config.explore`; "mixed"
    needs q_params, the trained MARL policy. The executed induction group is
    chosen epsilon-greedily between a uniform draw and the current argmin head.
    """
    if cb_config.explore == "mixed" and q_params is None:
        raise ValueError("mixed exploration requires q_params (a trained policy)")
    t_start = time.perf_counter()
    m = group_set.size
    a_max = env_config.action_max
    init_rng = stream(seed, "cb/init")
    group_rng = stream(seed, "cb/groups")
    induction_rng = stream(seed, "cb/induction")
    replay_rng = stream(seed, "cb/replay")
    explore_rng = stream(seed, "cb/explore-policy")

    params = init_mlp(
        default_cb_dims(env_config.n_destinations, m, cb_config.hidden), init_rng, dtype=NET_DTYPE
    )
    optimizer = Optimizer(learning_rate=cb_config.learning_rate)
    scale = warehouse.reward_unit(env_config)
    ring = ReplayRing(cb_config.replay_capacity(env_config.episode_steps))
    contexts = np.empty((ring.capacity, params.layer_dims[0]), dtype=NET_DTYPE)
    groups = np.empty(ring.capacity, dtype=np.int64)
    rewards = np.empty(ring.capacity)

    step_count = 0
    episode_losses: list[float] = []
    for _episode in range(cb_config.episodes):
        state = warehouse.reset(env_config)
        losses: list[float] = []
        for _t in range(env_config.episode_steps):
            obs = warehouse.observe_all(state, env_config)
            action = explore_action(cb_config.explore, obs, env_config, explore_rng, q_params)
            slot = ring.next_slot()
            context = cb_context(obs, action, a_max, out=contexts[slot])
            eps = cb_config.epsilon(step_count, env_config.episode_steps)
            group = choose_group(params, context, m, eps, group_rng)
            induction = group_set.sample(group, induction_rng)
            outcome = warehouse.step(state, action, induction, env_config)
            groups[slot] = group
            rewards[slot] = float(outcome.rewards.sum()) * scale
            if len(ring) >= cb_config.batch_size:
                rows = ring.draw(cb_config.batch_size, replay_rng)
                losses.append(
                    cb_update(params, optimizer, contexts[rows], groups[rows], rewards[rows])
                )
            state = outcome.next_state
            step_count += 1
        if losses:
            episode_losses.append(float(np.mean(losses)))
    return CbTrainResult(
        params=params,
        episode_losses=episode_losses,
        wall_clock_s=time.perf_counter() - t_start,
    )
