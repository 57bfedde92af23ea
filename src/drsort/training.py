"""DRMARL and baseline MARL training loops plus cross-group evaluation.

The trainer runs episodes against the warehouse simulator: actions are
epsilon-greedy over the budgeted argmax of the live value decomposition,
each step's induction group is chosen by the configured worst-case
strategy (contextual-bandit argmin, exhaustive probing, uniform random,
or a fixed group), and minibatch TD updates regress the joint value onto
reward-plus-discounted budgeted max of the target network. The reward
stored for each step is the reward observed under the selected group,
which is what makes the loss distributionally robust.

The replay (QReplay) is preallocated columns over a ReplayRing. A step
writes its float32 q_inputs rows, next observations, scaled reward and
terminal flag once, and a TD step gathers its B * N input rows in one
take. The bootstrap values are memoized per target-network era in two
more columns, an era and a value per slot: a TD step recomputes, in one
batched forward and budget max, only the drawn live slots whose memo is
from an older era.

Exhaustive probing is the group-wise inner max of Group DRO by Monte
Carlo: each of the m groups is scored by the mean joint reward of
n_probe one-step forward simulations of the live state and action.
All m * n_probe probes run as one batch, one multinomial draw and one
`warehouse.step` on `warehouse.tile` of the live state; `step` is pure,
so the live state is never copied or advanced.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np

from . import budget, warehouse
from .bandit import cb_worst_group
from .induction import GroupSet
from .seeding import stream
from .valuenet import (
    NET_DTYPE,
    LearnerConfig,
    MlpParams,
    Optimizer,
    ReplayRing,
    action_value_table_batch,
    default_q_dims,
    greedy_actions,
    init_mlp,
    mlp_backward,
    mlp_forward_cached,
    params_digest,
    q_input_dim,
    q_inputs,
    target_sync,
)

WORST_CASE_MODES = ("cb", "exhaustive", "random", "fixed")


@dataclass(frozen=True)
class TrainConfig(LearnerConfig):
    gamma: float = 0.95
    target_sync_every: int = 100
    worst_case_mode: str = "random"
    fixed_group: int | None = None  # 0-based
    n_probe: int = 8

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if self.worst_case_mode not in WORST_CASE_MODES:
            raise ValueError(f"unknown worst_case_mode: {self.worst_case_mode!r}")
        if self.worst_case_mode == "fixed" and self.fixed_group is None:
            raise ValueError("fixed mode requires fixed_group")
        if self.fixed_group is not None and self.fixed_group < 0:
            raise ValueError(f"fixed_group must be >= 0, got {self.fixed_group}")
        for name in ("target_sync_every", "n_probe"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


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
    gradient_steps: int = 0
    target_syncs: int = 0
    # group_counts[g]: env steps on which the adversary chose group g (0-based)
    group_counts: list[int] = field(default_factory=list)
    bootstrap_lookups: int = 0  # non-terminal rows sampled for a TD target
    bootstrap_recomputes: int = 0  # of those, rows the era memo could not serve

    @property
    def bootstrap_hit_rate(self) -> float | None:
        """Share of bootstrap lookups served by the memo; None before the first."""
        if not self.bootstrap_lookups:
            return None
        return 1.0 - self.bootstrap_recomputes / self.bootstrap_lookups


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
    probes = warehouse.tile(state, m * n_probe)
    induction = group_set.sample(np.repeat(np.arange(m), n_probe), rng)
    actions = np.broadcast_to(action, probes.recirc_backlog.shape)
    outcome = warehouse.step(probes, actions, induction, env_config)
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


class QReplay:
    """The Q-net's replay: preallocated columns over one ReplayRing, one slot per env step.

    Slot s holds a step's (N, in_dim) float32 q_inputs rows, its next
    observations in float32, its scaled reward and terminal flag, and the
    bootstrap memo: value[s] is the step's budgeted max joint value under
    the target network of era era[s]. The bootstrap forward casts its input
    rows to float32 anyway, so storing the next observations in float32
    changes no value. A push sets era -1 (no memo) and value 0.0, which a
    terminal step keeps.
    """

    def __init__(self, capacity: int, n_agents: int, a_max: int):
        self.a_max = a_max
        self.ring = ReplayRing(capacity)
        self.rows = np.empty((capacity, n_agents, q_input_dim(a_max)), dtype=NET_DTYPE)
        self.next_observations = np.empty(
            (capacity, n_agents, warehouse.OBS_DIM), dtype=NET_DTYPE
        )
        self.rewards = np.empty(capacity)
        self.terminal = np.empty(capacity, dtype=bool)
        self.era = np.empty(capacity, dtype=np.int64)
        self.value = np.empty(capacity)

    def push(self, observations, action, reward: float, next_observations, terminal: bool) -> None:
        slot = self.ring.next_slot()
        self.rows[slot] = q_inputs(observations, action, self.a_max, NET_DTYPE)
        self.next_observations[slot] = next_observations
        self.rewards[slot] = reward
        self.terminal[slot] = terminal
        self.era[slot] = -1
        self.value[slot] = 0.0


def _bootstrap_values(
    target_params: MlpParams,
    replay: QReplay,
    slots: np.ndarray,
    era: int,
    *,
    budget_limit: int,
) -> tuple[np.ndarray, int, int]:
    """(max_a' joint target values of the drawn slots, non-terminal slots, slots recomputed).

    Values are memoized per target-network era; a terminal slot needs none.
    The live slots whose memo is from another era are recomputed by one
    forward in draw order; a slot drawn twice is counted, and computed, twice.
    """
    live = slots[~replay.terminal[slots]]
    stale = live[replay.era[live] != era]
    if len(stale):
        tables = action_value_table_batch(
            target_params, replay.next_observations[stale], replay.a_max
        )
        replay.value[stale] = budget.max_joint_value_batch(tables, budget_limit)
        replay.era[stale] = era
    return replay.value[slots], len(live), len(stale)


def _joint_values(locals_: np.ndarray) -> np.ndarray:
    """Per-row float64 sums of (B, N) local values, added left to right by agent from +0.0.

    Reducing over the outer axis of the (N, B) transpose adds one agent's
    column at a time, so each sum is bit-equal to the sequential loop
    `joint = 0.0; joint = joint + locals_[:, agent]`, a -0.0 row included;
    np.cumsum would keep such a row's -0.0.
    """
    return np.add.reduce(np.ascontiguousarray(locals_.T, dtype=np.float64), axis=0, initial=0.0)


def _gradient_step(
    params: MlpParams,
    target_params: MlpParams,
    optimizer: Optimizer,
    replay: QReplay,
    slots: np.ndarray,
    era: int,
    *,
    gamma: float,
    budget_limit: int,
) -> tuple[float, int, int]:
    """One minibatch TD step on the drawn slots; returns (loss, bootstrap lookups, rows recomputed).

    The slots' q_inputs rows are gathered as one (B * N, in_dim) block.
    """
    bootstrap, lookups, recomputed = _bootstrap_values(
        target_params, replay, slots, era, budget_limit=budget_limit
    )
    targets = replay.rewards[slots] + gamma * bootstrap
    rows = replay.rows[slots]
    batch, n_agents, in_dim = rows.shape
    preds, cache = mlp_forward_cached(params, rows.reshape(batch * n_agents, in_dim))
    joint = _joint_values(preds[:, 0].reshape(batch, n_agents))
    errors = joint - targets
    loss = float(np.mean(errors**2))
    grad_joint = 2.0 * errors / batch
    grad_out = np.repeat(grad_joint, n_agents)[:, None]
    optimizer.apply(params, mlp_backward(params, cache, grad_out).flat)
    return loss, lookups, recomputed


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
    if train_config.fixed_group is not None and train_config.fixed_group >= m:
        raise ValueError(f"fixed_group {train_config.fixed_group} is not below the {m} groups")

    init_rng = stream(seed, "train/init")
    explore_rng = stream(seed, "train/explore")
    group_rng = stream(seed, "train/groups")
    induction_rng = stream(seed, "train/induction")
    replay_rng = stream(seed, "train/replay")
    probe_rng = stream(seed, "train/probe")

    params = init_mlp(default_q_dims(a_max, train_config.hidden), init_rng, dtype=NET_DTYPE)
    target_params = target_sync(params)
    optimizer = Optimizer(learning_rate=train_config.learning_rate)
    scale = warehouse.reward_unit(env_config)
    replay = QReplay(train_config.replay_capacity(env_config.episode_steps), n, a_max)
    # the worst-case strategy, bound once; each step supplies only what it sees
    adversary = functools.partial(
        select_worst_group, mode, group_set=group_set, env_config=env_config,
        rng=probe_rng if mode == "exhaustive" else group_rng, cb_params=cb_params,
        fixed_group=train_config.fixed_group, n_probe=train_config.n_probe,
    )

    result = TrainResult(params=params, group_counts=[0] * m)
    if cb_params is not None:
        result.cb_digest_before = params_digest(cb_params)

    step_count = 0
    for episode in range(1, train_config.episodes + 1):
        wall_start = time.perf_counter()
        cpu_start = time.process_time()
        state = warehouse.reset(env_config)
        obs = warehouse.observe_all(state, env_config)
        # vacuous episode-start group draw, kept because random mode's
        # stream follows it; no other mode reads group_rng
        group_rng.integers(m)
        returns = 0.0
        losses: list[float] = []
        epsilon = train_config.epsilon_start
        for t in range(env_config.episode_steps):
            epsilon = train_config.epsilon(step_count, env_config.episode_steps)
            if explore_rng.random() < epsilon:
                action = budget.sample_feasible_uniform(
                    n, a_max, env_config.n_chutes, explore_rng
                )
            else:
                action = greedy_actions(params, obs, a_max, env_config.n_chutes)
            group = adversary(state=state, observations=obs, action=action)
            result.group_counts[group] += 1
            induction = group_set.sample(group, induction_rng)
            outcome = warehouse.step(state, action, induction, env_config)
            if trace_sink is not None:
                trace_sink(warehouse.trace_record(t, action, induction, outcome))
            raw_reward = float(outcome.rewards.sum())
            returns += raw_reward
            next_state = outcome.next_state
            next_obs = warehouse.observe_all(next_state, env_config)
            replay.push(
                obs, action, raw_reward * scale, next_obs, t == env_config.episode_steps - 1
            )
            if len(replay.ring) >= train_config.batch_size:
                slots = replay.ring.draw(train_config.batch_size, replay_rng)
                loss, lookups, recomputed = _gradient_step(
                    params, target_params, optimizer, replay, slots, result.target_syncs,
                    gamma=train_config.gamma,
                    budget_limit=env_config.n_chutes,
                )
                losses.append(loss)
                result.bootstrap_lookups += lookups
                result.bootstrap_recomputes += recomputed
                result.gradient_steps += 1
                if result.gradient_steps % train_config.target_sync_every == 0:
                    target_params = target_sync(params)
                    result.target_syncs += 1
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


def draw_evaluation_inductions(
    env_config: warehouse.EnvConfig,
    group_set: GroupSet,
    trials: int,
    seed: int,
) -> np.ndarray:
    """Read-only (T, m * trials, N) induction counts of every evaluated episode.

    Column g * trials + trial holds the T inductions of group g's trial,
    drawn from its own `stream(seed, "eval", g, trial)` by one
    `group_set.sample(g, rng, size=T)`, which consumes the stream as T
    single draws do. The draws fill one preallocated tensor. The draw
    depends on no policy, so one tensor serves every evaluation with these
    arguments. A group set whose N or volume differs from the env's is a
    ValueError, raised before any stream is built.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if (group_set.n_destinations, group_set.volume) != (
        env_config.n_destinations, env_config.step_volume
    ):
        raise ValueError(
            f"group set has N={group_set.n_destinations} and volume {group_set.volume}, "
            f"env has N={env_config.n_destinations} and volume {env_config.step_volume}"
        )
    steps = env_config.episode_steps
    inductions = np.empty((steps, group_set.size * trials, group_set.n_destinations), np.int64)
    for g in range(group_set.size):
        for trial in range(trials):
            inductions[:, g * trials + trial] = group_set.sample(
                g, stream(seed, "eval", g, trial), size=steps
            )
    inductions.setflags(write=False)
    return inductions


def rollout(
    policy,
    env_config: warehouse.EnvConfig,
    group_set: GroupSet,
    trials: int,
    seed: int,
    trace_sink=None,
    *,
    inductions: np.ndarray | None = None,
) -> EvaluationReport:
    """`trials` episodes per group under `policy`, a batched state -> (K, N) joint actions.

    All K = groups x trials episodes advance in lockstep as one batch, so
    each step makes one policy call and one simulator step. Episode
    g * trials + trial draws its inductions from its own stream, named by
    (group, trial) only, exactly as a one-at-a-time rollout of that
    episode would, so different policies face identical induction
    realizations.

    `inductions`, if given, is `draw_evaluation_inductions(env_config,
    group_set, trials, seed)`, drawn once and shared by several policies;
    the episodes then roll out on it without a draw of their own. It must
    have that shape, be read-only, so no evaluation can alter what the
    next one sees, and hold integer counts, none negative; otherwise ValueError.

    `trace_sink`, if given, receives the trajectory records
    (warehouse.trace_record) of each group's trial-0 episode: all steps of
    group 1, then of group 2, and so on, after the last step.
    """
    t_start = time.perf_counter()
    if inductions is None:
        inductions = draw_evaluation_inductions(env_config, group_set, trials, seed)
    else:
        shape = (env_config.episode_steps, group_set.size * trials, env_config.n_destinations)
        if inductions.shape != shape:
            raise ValueError(f"inductions have shape {inductions.shape}, expected {shape}")
        if inductions.dtype.kind not in "iu":
            raise ValueError(f"inductions have dtype {inductions.dtype}, expected integer counts")
        if inductions.flags.writeable:
            raise ValueError("inductions must be read-only (draw_evaluation_inductions)")
        if (inductions < 0).any():
            raise ValueError("inductions hold a negative count")
    traced = {g * trials: [] for g in range(group_set.size)} if trace_sink is not None else {}
    state = warehouse.tile(warehouse.reset(env_config), inductions.shape[1])
    for t, induction in enumerate(inductions):
        actions = policy(state)
        outcome = warehouse.step(state, actions, induction, env_config)
        for k, records in traced.items():
            records.append(warehouse.trace_record(t, actions[k], induction[k], outcome, k))
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


def evaluate_policy(
    params: MlpParams,
    env_config: warehouse.EnvConfig,
    group_set: GroupSet,
    trials: int,
    seed: int,
    trace_sink=None,
    *,
    inductions: np.ndarray | None = None,
) -> EvaluationReport:
    """`rollout` of the greedy budgeted policy of the Q-net `params`.

    Each step groups the batch's agents by warehouse.observe_distinct,
    which computes only the distinct observation rows, and makes one
    greedy_actions call on them. greedy_actions runs the Q forward once per
    distinct row (in padded row blocks of at most
    valuenet.FORWARD_BLOCK_ROWS, so memory does not grow with K) and the
    budget argmax once per distinct table stack; both merges are exact, so
    every episode's actions equal those of a one-at-a-time rollout of that
    episode.
    """

    def greedy(state: warehouse.WarehouseState) -> np.ndarray:
        rows, row_of = warehouse.observe_distinct(state, env_config)
        return greedy_actions(
            params, rows, env_config.action_max, env_config.n_chutes, row_of=row_of
        )

    return rollout(greedy, env_config, group_set, trials, seed, trace_sink, inductions=inductions)
