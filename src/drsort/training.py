"""DRMARL and baseline MARL training loops plus cross-group evaluation.

The trainer runs episodes against the warehouse simulator: actions are
epsilon-greedy over the budgeted argmax of the live value decomposition,
each step's induction group is chosen by the configured worst-case
strategy (contextual-bandit argmin, exhaustive probing, uniform random,
or a fixed group), and minibatch TD updates regress the joint value onto
reward-plus-discounted budgeted max of the target network. The reward
slot of each stored transition carries the reward observed under the
selected group, which is what makes the loss distributionally robust.

Exhaustive probing is the group-wise inner max of Group DRO by Monte
Carlo: each of the m groups is scored by the mean joint reward of
n_probe one-step forward simulations of the live state and action.
All m * n_probe probes run as one batch, one multinomial draw and one
`warehouse.step` on the live state broadcast to (m * n_probe, N); `step`
is pure, so the live state is never copied or advanced.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import budget, warehouse
from .bandit import cb_worst_group, epsilon_at
from .induction import GroupSet
from .seeding import stream
from .valuenet import (
    MlpParams,
    Optimizer,
    ReplayBuffer,
    Transition,
    action_value_table_batch,
    default_q_dims,
    greedy_actions,
    init_mlp,
    mlp_forward_cached,
    mlp_gradient_step,
    params_digest,
    q_inputs,
    target_sync,
)

WORST_CASE_MODES = ("cb", "exhaustive", "random", "fixed")


@dataclass(frozen=True)
class TrainConfig:
    episodes: int = 300
    learning_rate: float = 1e-3
    gamma: float = 0.95
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_fraction: float = 0.8
    batch_size: int = 64
    buffer_capacity: int = 50_000
    target_sync_every: int = 100
    worst_case_mode: str = "random"
    fixed_group: int | None = None  # 0-based
    n_probe: int = 8
    reward_scale: float = 1.0
    hidden: tuple[int, int] = (64, 64)
    optimizer: str = "adam"
    dtype: str = "float64"

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if self.worst_case_mode not in WORST_CASE_MODES:
            raise ValueError(f"unknown worst_case_mode: {self.worst_case_mode!r}")
        if self.worst_case_mode == "fixed" and self.fixed_group is None:
            raise ValueError("fixed mode requires fixed_group")
        if self.n_probe < 1:
            raise ValueError(f"n_probe must be >= 1, got {self.n_probe}")


@dataclass(frozen=True)
class TraceRow:
    episode: int
    mode: str
    mean_return: float
    recirc_rate: float
    epsilon: float
    wall_clock_s: float
    cpu_s: float
    td_loss: float  # mean TD loss of the episode's gradient steps; NaN if it took none


@dataclass
class TrainResult:
    params: MlpParams
    trace: list[TraceRow] = field(default_factory=list)
    cb_digest_before: str = ""
    cb_digest_after: str = ""


def probe_group_reward(
    state: warehouse.WarehouseState,
    action: np.ndarray,
    group_set: GroupSet,
    env_config: warehouse.EnvConfig,
    rng: np.random.Generator,
    n_probe: int,
) -> np.ndarray:
    """(m,) mean joint reward of each group over n_probe one-step simulations.

    The probes are one (m * n_probe, N) batch in group-major order, so the
    draws consume `rng` exactly like n_probe draws per group, group by
    group. Every probe reward is integer-valued, so the means are exact.
    """
    m = group_set.size
    k = m * n_probe
    shape = (k,) + state.recirc_backlog.shape
    probes = replace(
        state,
        chutes_assigned=np.broadcast_to(state.chutes_assigned, shape),
        recirc_backlog=np.broadcast_to(state.recirc_backlog, shape),
        cum_recirc=np.broadcast_to(state.cum_recirc, (k,)),
        cum_sorted=np.broadcast_to(state.cum_sorted, (k,)),
    )
    induction = group_set.sample(np.repeat(np.arange(m), n_probe), rng)
    outcome = warehouse.step(probes, np.broadcast_to(action, shape), induction, env_config)
    return outcome.rewards.sum(axis=-1).reshape(m, n_probe).sum(axis=1) / n_probe


def select_worst_group(
    mode: str,
    *,
    group_set: GroupSet,
    state: warehouse.WarehouseState,
    observations: np.ndarray,
    action: np.ndarray,
    env_config: warehouse.EnvConfig,
    rng: np.random.Generator,
    cb_params: MlpParams | None = None,
    fixed_group: int | None = None,
    n_probe: int = 8,
) -> int:
    """Group index (0-based) chosen by the configured worst-case strategy."""
    if mode == "cb":
        if cb_params is None:
            raise ValueError("cb mode requires a trained predictor checkpoint")
        return cb_worst_group(cb_params, observations, action, env_config.action_max)
    if mode == "exhaustive":
        estimates = probe_group_reward(state, action, group_set, env_config, rng, n_probe)
        return int(np.argmin(estimates))
    if mode == "random":
        return int(rng.integers(group_set.size))
    if mode == "fixed":
        if fixed_group is None:
            raise ValueError("fixed mode requires fixed_group")
        return int(fixed_group)
    raise ValueError(f"unknown worst_case_mode: {mode!r}")


def _bootstrap_values(
    target_params: MlpParams,
    batch: list[Transition],
    era: int,
    *,
    budget_limit: int,
    a_max: int,
) -> np.ndarray:
    """max_a' joint target values, memoized per target-network era."""
    stale = [t for t in batch if t.bootstrap_era != era and not t.terminal]
    if stale:
        next_obs = np.stack([t.next_observations for t in stale])
        tables = action_value_table_batch(target_params, next_obs, a_max)
        values = budget.max_joint_value_batch(tables, budget_limit)
        for transition, value in zip(stale, values):
            transition.bootstrap_era = era
            transition.bootstrap_value = float(value)
    return np.array([0.0 if t.terminal else t.bootstrap_value for t in batch])


def _gradient_step(
    params: MlpParams,
    target_params: MlpParams,
    optimizer: Optimizer,
    batch: list[Transition],
    era: int,
    *,
    gamma: float,
    budget_limit: int,
    a_max: int,
) -> float:
    """One minibatch TD regression step; returns the batch loss."""
    n_agents = batch[0].observations.shape[0]
    obs = np.stack([t.observations for t in batch])
    actions = np.stack([t.action for t in batch])
    rewards = np.array([t.reward for t in batch])

    bootstrap = _bootstrap_values(
        target_params, batch, era, budget_limit=budget_limit, a_max=a_max
    )
    targets = rewards + gamma * bootstrap
    rows = q_inputs(obs.reshape(-1, obs.shape[2]), actions.reshape(-1), a_max, params.dtype)
    preds, cache = mlp_forward_cached(params, rows)
    locals_ = preds[:, 0].reshape(len(batch), n_agents)
    joint = np.zeros(len(batch))
    for agent in range(n_agents):
        joint = joint + locals_[:, agent]
    errors = joint - targets
    loss = float(np.mean(errors**2))
    grad_joint = 2.0 * errors / len(batch)
    grad_out = np.repeat(grad_joint, n_agents)[:, None]
    mlp_gradient_step(params, cache, grad_out, optimizer)
    return loss


def train_drmarl(
    train_config: TrainConfig,
    env_config: warehouse.EnvConfig,
    group_set: GroupSet,
    seed: int,
    cb_params: MlpParams | None = None,
    trace_sink=None,
) -> TrainResult:
    """Run the robust training loop and return parameters plus a trace.

    In cb mode the supplied predictor is frozen: the trainer only
    evaluates it, and the result records its digest before and after as
    evidence.
    """
    mode = train_config.worst_case_mode
    if mode == "cb" and cb_params is None:
        raise ValueError("cb mode requires a trained predictor checkpoint")
    a_max = env_config.action_max
    n = env_config.n_destinations
    m = group_set.size

    init_rng = stream(seed, "train/init")
    explore_rng = stream(seed, "train/explore")
    group_rng = stream(seed, "train/groups")
    induction_rng = stream(seed, "train/induction")
    replay_rng = stream(seed, "train/replay")
    probe_rng = stream(seed, "train/probe")

    params = init_mlp(
        default_q_dims(a_max, train_config.hidden), init_rng, dtype=np.dtype(train_config.dtype)
    )
    target_params = target_sync(params)
    optimizer = Optimizer(kind=train_config.optimizer, learning_rate=train_config.learning_rate)
    buffer = ReplayBuffer(train_config.buffer_capacity)

    result = TrainResult(params=params)
    if cb_params is not None:
        result.cb_digest_before = params_digest(cb_params)

    total_steps = train_config.episodes * env_config.episode_steps
    step_count = 0
    gradient_steps = 0
    target_era = 0
    for episode in range(1, train_config.episodes + 1):
        wall_start = time.perf_counter()
        cpu_start = time.process_time()
        state = warehouse.reset(env_config)
        obs = warehouse.observe_all(state, env_config)
        # episode-start group draw (vacuous for the all-zero reset state,
        # kept for the fixed/random bookkeeping of the algorithm)
        group = (
            int(train_config.fixed_group)
            if mode == "fixed"
            else int(group_rng.integers(m))
        )
        returns = 0.0
        losses: list[float] = []
        epsilon = train_config.epsilon_start
        for t in range(env_config.episode_steps):
            epsilon = epsilon_at(
                step_count,
                total_steps,
                train_config.epsilon_start,
                train_config.epsilon_end,
                train_config.epsilon_decay_fraction,
            )
            if explore_rng.random() < epsilon:
                action = budget.sample_feasible_uniform(
                    n, a_max, env_config.n_chutes, explore_rng
                )
            else:
                action = greedy_actions(params, obs, a_max, env_config.n_chutes)
            if mode != "fixed":
                group = select_worst_group(
                    mode,
                    group_set=group_set,
                    state=state,
                    observations=obs,
                    action=action,
                    env_config=env_config,
                    rng=probe_rng if mode == "exhaustive" else group_rng,
                    cb_params=cb_params,
                    fixed_group=train_config.fixed_group,
                    n_probe=train_config.n_probe,
                )
            induction = group_set.sample(group, induction_rng)
            outcome = warehouse.step(state, action, induction, env_config)
            if trace_sink is not None:
                trace_sink(warehouse.trace_record(t, action, induction, outcome))
            raw_reward = float(outcome.rewards.sum())
            returns += raw_reward
            next_state = outcome.next_state
            next_obs = warehouse.observe_all(next_state, env_config)
            buffer.push(
                Transition(
                    observations=obs,
                    action=action,
                    group=group,
                    reward=raw_reward * train_config.reward_scale,
                    next_observations=next_obs,
                    terminal=(t == env_config.episode_steps - 1),
                )
            )
            if len(buffer) >= train_config.batch_size:
                batch = buffer.sample(train_config.batch_size, replay_rng)
                losses.append(_gradient_step(
                    params, target_params, optimizer, batch, target_era,
                    gamma=train_config.gamma,
                    budget_limit=env_config.n_chutes,
                    a_max=a_max,
                ))
                gradient_steps += 1
                if gradient_steps % train_config.target_sync_every == 0:
                    target_params = target_sync(params)
                    target_era += 1
            state = next_state
            obs = next_obs
            step_count += 1
        metrics = warehouse.episode_metrics(state)
        result.trace.append(
            TraceRow(
                episode=episode,
                mode=mode,
                mean_return=returns / env_config.episode_steps,
                recirc_rate=metrics.recirc_rate,
                epsilon=epsilon,
                wall_clock_s=time.perf_counter() - wall_start,
                cpu_s=time.process_time() - cpu_start,
                td_loss=float(np.mean(losses)) if losses else float("nan"),
            )
        )
    if cb_params is not None:
        result.cb_digest_after = params_digest(cb_params)
    return result


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupReport:
    group: int  # 1-based, matching files and logs
    episodes: tuple[warehouse.EpisodeMetrics, ...]

    def _values(self, attr: str) -> np.ndarray:
        return np.array([getattr(ep, attr) for ep in self.episodes], dtype=float)

    def mean(self, attr: str) -> float:
        return float(self._values(attr).mean())

    def std(self, attr: str) -> float:
        return float(self._values(attr).std())


@dataclass(frozen=True)
class EvaluationReport:
    per_group: tuple[GroupReport, ...]
    wall_clock_s: float

    def mean_over_groups(self, attr: str) -> float:
        return float(np.mean([g.mean(attr) for g in self.per_group]))

    def episode_values(self, attr: str) -> np.ndarray:
        """All per-episode values pooled across groups."""
        return np.concatenate([g._values(attr) for g in self.per_group])


def rollout(
    policy,
    env_config: warehouse.EnvConfig,
    group_set: GroupSet,
    group_index: int,
    rng: np.random.Generator,
    trace_sink=None,
) -> warehouse.EpisodeMetrics:
    """One episode under `policy` (state -> joint action) and one group."""
    state = warehouse.reset(env_config)
    for t in range(env_config.episode_steps):
        action = policy(state)
        induction = group_set.sample(group_index, rng)
        outcome = warehouse.step(state, action, induction, env_config)
        if trace_sink is not None:
            trace_sink(warehouse.trace_record(t, action, induction, outcome))
        state = outcome.next_state
    return warehouse.episode_metrics(state)


def evaluate_policy(
    params: MlpParams,
    env_config: warehouse.EnvConfig,
    group_set: GroupSet,
    trials: int,
    seed: int,
    trace_sink=None,
) -> EvaluationReport:
    """Greedy rollouts: `trials` episodes per group with fresh inductions.

    All groups x trials episodes advance in lockstep as one (K, N) batch:
    each step makes one batched observation, one greedy_actions call and
    one simulator step. greedy_actions runs the Q forward once per
    distinct observation row (in padded row blocks of at most
    valuenet.FORWARD_BLOCK_ROWS, so memory does not grow with K) and the
    budget argmax once per distinct table stack; both merges are exact,
    so every episode's actions equal a one-at-a-time `rollout`'s. Every
    episode draws its inductions from its own stream, named by (group,
    trial) only, in the same order as that `rollout` would, so different
    policies face identical induction realizations.

    `trace_sink`, if given, receives the trajectory records
    (warehouse.trace_record) of each group's trial-0 episode: all steps of
    group 1, then of group 2, and so on, after the last step.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    t_start = time.perf_counter()
    # (T, K, N): one draw of each episode's T inductions consumes its stream as T draws do
    inductions = np.stack([
        group_set.sample(np.full(env_config.episode_steps, g), stream(seed, "eval", g, trial))
        for g in range(group_set.size) for trial in range(trials)
    ], axis=1)
    traced = {g * trials: [] for g in range(group_set.size)} if trace_sink is not None else {}
    state = warehouse.reset(env_config, batch=inductions.shape[1])
    for t, induction in enumerate(inductions):
        obs = warehouse.observe_all(state, env_config)
        actions = greedy_actions(params, obs, env_config.action_max, env_config.n_chutes)
        outcome = warehouse.step(state, actions, induction, env_config)
        for k, records in traced.items():
            records.append(warehouse.trace_record(
                t, actions[k], induction[k], warehouse.episode_outcome(outcome, k)
            ))
        state = outcome.next_state
    for records in traced.values():
        for record in records:
            trace_sink(record)
    metrics = warehouse.episode_metrics(state)
    groups = tuple(
        GroupReport(group=g + 1, episodes=tuple(metrics[g * trials : (g + 1) * trials]))
        for g in range(group_set.size)
    )
    return EvaluationReport(per_group=groups, wall_clock_s=time.perf_counter() - t_start)
