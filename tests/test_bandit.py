import dataclasses
from dataclasses import dataclass

import numpy as np
import pytest

from drsort import bandit, budget, config, valuenet, warehouse
from drsort.seeding import stream


def short_cb_training(seed):
    env, group_set, _, cb = config.appendix_b_defaults()
    cb = dataclasses.replace(cb, episodes=3, batch_size=8, explore="random")
    return bandit.train_cb(env, group_set, cb, seed)


def random_context(env, rng):
    state = warehouse.WarehouseState(
        t=int(rng.integers(env.episode_steps)),
        chutes_assigned=np.zeros(env.n_destinations, dtype=int),
        recirc_backlog=rng.integers(0, 50, size=env.n_destinations),
        cum_recirc=0,
        cum_sorted=0,
    )
    obs = warehouse.observe_all(state, env)
    table = rng.standard_normal((env.n_destinations, env.action_max + 1))
    return obs, budget.solve_budget_argmax(table, env.n_chutes)


@dataclass(frozen=True)
class CbTransition:
    context: np.ndarray  # float64
    group: int  # 0-based
    observed_reward: float


def list_cb_update(params, optimizer, batch):
    """Reference update: concatenate a list of float64 transitions, cast in the forward."""
    contexts = np.concatenate([t.context for t in batch]).reshape(len(batch), -1)
    groups = np.array([t.group for t in batch])
    targets = np.array([t.observed_reward for t in batch])
    preds, cache = valuenet.mlp_forward_cached(params, contexts)
    rows = np.arange(len(batch))
    errors = preds[rows, groups] - targets
    loss = float(np.mean(errors**2))
    grad_out = np.zeros_like(preds)
    grad_out[rows, groups] = 2.0 * errors / len(batch)
    optimizer.apply(params, valuenet.mlp_backward(params, cache, grad_out).flat)
    return loss


def list_train_cb(env_config, group_set, cb_config, seed, q_params=None):
    """Reference trainer: one float64 CbTransition per step in a ReplayBuffer.

    It draws every stream in the same order as bandit.train_cb.
    """
    m = group_set.size
    a_max = env_config.action_max
    init_rng = stream(seed, "cb/init")
    group_rng = stream(seed, "cb/groups")
    induction_rng = stream(seed, "cb/induction")
    replay_rng = stream(seed, "cb/replay")
    explore_rng = stream(seed, "cb/explore-policy")
    params = valuenet.init_mlp(
        bandit.default_cb_dims(env_config.n_destinations, m, cb_config.hidden),
        init_rng,
        dtype=valuenet.NET_DTYPE,
    )
    optimizer = valuenet.Optimizer(learning_rate=cb_config.learning_rate)
    scale = warehouse.reward_unit(env_config)
    buffer = valuenet.ReplayBuffer(cb_config.buffer_capacity)
    step_count = 0
    episode_losses = []
    for _episode in range(cb_config.episodes):
        state = warehouse.reset(env_config)
        losses = []
        for _t in range(env_config.episode_steps):
            obs = warehouse.observe_all(state, env_config)
            action = bandit.explore_action(
                cb_config.explore, obs, env_config, explore_rng, q_params
            )
            eps = cb_config.epsilon(step_count, env_config.episode_steps)
            if group_rng.random() < eps:
                group = int(group_rng.integers(m))
            else:
                group = bandit.cb_worst_group(params, obs, action, a_max)
            induction = group_set.sample(group, induction_rng)
            outcome = warehouse.step(state, action, induction, env_config)
            reward = float(outcome.rewards.sum()) * scale
            context = np.concatenate([obs.ravel(), np.asarray(action, dtype=float) / a_max])
            buffer.push(CbTransition(context, group, reward))
            if len(buffer) >= cb_config.batch_size:
                batch = buffer.sample(cb_config.batch_size, replay_rng)
                losses.append(list_cb_update(params, optimizer, batch))
            state = outcome.next_state
            step_count += 1
        if losses:
            episode_losses.append(float(np.mean(losses)))
    return params, episode_losses


class TestTrainCb:
    def test_same_seed_gives_same_parameters(self):
        first = short_cb_training(31)
        second = short_cb_training(31)
        other = short_cb_training(32)
        assert valuenet.params_digest(first.params) == valuenet.params_digest(second.params)
        assert valuenet.params_digest(first.params) != valuenet.params_digest(other.params)
        assert first.episode_losses == second.episode_losses

    @pytest.mark.parametrize("explore", bandit.EXPLORE_KINDS)
    @pytest.mark.parametrize("capacity", [12, 50_000], ids=["wraps", "never-full"])
    def test_replay_columns_match_the_list_of_transitions(self, explore, capacity):
        env, group_set, _, cb = config.appendix_b_defaults()
        cb = dataclasses.replace(
            cb, episodes=4, batch_size=8, buffer_capacity=capacity, explore=explore
        )
        anchor = valuenet.init_mlp(
            valuenet.default_q_dims(env.action_max),
            stream(38, "test/q-anchor"),
            dtype=valuenet.NET_DTYPE,
        )
        result = bandit.train_cb(env, group_set, cb, 38, q_params=anchor)
        params, episode_losses = list_train_cb(env, group_set, cb, 38, q_params=anchor)
        assert valuenet.params_digest(result.params) == valuenet.params_digest(params)
        assert result.episode_losses == episode_losses
        assert len(episode_losses) == cb.episodes


    def test_columns_hold_no_more_slots_than_the_run_takes(self, monkeypatch):
        env, group_set, _, cb = config.appendix_b_defaults()
        cb = dataclasses.replace(
            cb, episodes=3, batch_size=8, buffer_capacity=50_000, explore="random"
        )
        rings, columns = [], []

        class Recording(valuenet.ReplayRing):
            def __init__(self, *args):
                super().__init__(*args)
                rings.append(self)

        class RecordingNumpy:
            # train_cb allocates its three columns, and nothing else, with np.empty
            def __getattr__(self, name):
                return getattr(np, name)

            def empty(self, *args, **kwargs):
                columns.append(np.empty(*args, **kwargs))
                return columns[-1]

        monkeypatch.setattr(bandit, "ReplayRing", Recording)
        monkeypatch.setattr(bandit, "np", RecordingNumpy())
        bandit.train_cb(env, group_set, cb, 46)
        (ring,) = rings
        steps = cb.episodes * env.episode_steps
        assert ring.capacity == len(ring) == steps == 30
        contexts, groups, rewards = columns
        assert contexts.shape == (steps, bandit.cb_context_dim(env.n_destinations))
        assert groups.shape == rewards.shape == (steps,)


class TestCbConfig:
    def test_checkpoint_exploration_is_rejected(self):
        with pytest.raises(ValueError, match="unknown explore kind 'checkpoint'"):
            bandit.CbConfig(explore="checkpoint")
        assert bandit.CbConfig(explore="random").explore == "random"

    def test_a_buffer_smaller_than_the_batch_is_rejected(self):
        with pytest.raises(ValueError, match="buffer_capacity 10 is smaller than batch_size 64"):
            bandit.CbConfig(buffer_capacity=10)
        assert bandit.CbConfig(buffer_capacity=64).buffer_capacity == 64


class TestCbUpdate:
    def test_only_executed_heads_move(self):
        rng = stream(33, "test/cb-update")
        env = warehouse.EnvConfig()
        params = valuenet.init_mlp(bandit.default_cb_dims(env.n_destinations, 4, (16, 16)), rng)
        before_w = params.weights[-1].copy()
        before_b = params.biases[-1].copy()
        groups = np.array([0, 2, 2, 0, 2])
        contexts, rewards = [], []
        for _group in groups:
            obs, action = random_context(env, rng)
            contexts.append(bandit.cb_context(obs, action, env.action_max))
            rewards.append(float(rng.normal(-100.0, 10.0)))
        bandit.cb_update(
            params,
            valuenet.Optimizer(learning_rate=1e-2),
            np.stack(contexts),
            groups,
            np.array(rewards),
        )
        for head in (1, 3):
            assert np.array_equal(params.weights[-1][:, head], before_w[:, head])
            assert params.biases[-1][head] == before_b[head]
        for head in (0, 2):
            assert not np.array_equal(params.weights[-1][:, head], before_w[:, head])
            assert params.biases[-1][head] != before_b[head]


class TestChooseGroup:
    def setup_method(self):
        self.env = warehouse.EnvConfig()
        self.m = 9
        self.params = valuenet.init_mlp(
            bandit.default_cb_dims(self.env.n_destinations, self.m, (16, 16)), stream(34, "cb")
        )

    def test_epsilon_zero_is_the_predicted_worst_group(self):
        rng = stream(35, "test/contexts")
        choice_rng = stream(35, "test/choice")
        picks = set()
        for _ in range(30):
            obs, action = random_context(self.env, rng)
            worst = bandit.cb_worst_group(self.params, obs, action, self.env.action_max)
            context = bandit.cb_context(obs, action, self.env.action_max)
            chosen = bandit.choose_group(self.params, context, self.m, 0.0, choice_rng)
            assert chosen == worst
            picks.add(chosen)
        assert len(picks) > 1

    def test_epsilon_one_is_uniform(self):
        obs, action = random_context(self.env, stream(36, "test/context"))
        context = bandit.cb_context(obs, action, self.env.action_max)
        rng = stream(36, "test/choice")
        draws = [bandit.choose_group(self.params, context, self.m, 1.0, rng) for _ in range(2700)]
        counts = np.bincount(draws, minlength=self.m)
        assert len(counts) == self.m and counts.min() > 0
        # 300 expected per group; 5 standard deviations is about 82
        assert np.abs(counts - 300).max() < 90


class TestReplayCapacity:
    @pytest.mark.parametrize(
        ("episodes", "capacity", "expected"),
        [(3, 50_000, 30), (3, 30, 30), (3, 29, 29), (0, 64, 0), (5_000, 50_000, 50_000)],
    )
    def test_is_the_buffer_capacity_or_the_steps_a_run_takes(self, episodes, capacity, expected):
        learner = valuenet.LearnerConfig(episodes=episodes, batch_size=8, buffer_capacity=capacity)
        assert learner.replay_capacity(10) == expected


class TestEpsilonAt:
    # LearnerConfig.epsilon over 10 episodes of 10 steps: 100 steps in all
    @staticmethod
    def epsilon(step, fraction):
        learner = valuenet.LearnerConfig(
            episodes=10, epsilon_start=1.0, epsilon_end=0.05, epsilon_decay_fraction=fraction
        )
        return learner.epsilon(step, 10)

    def test_endpoints(self):
        assert self.epsilon(0, 0.8) == 1.0
        assert self.epsilon(80, 0.8) == 0.05
        assert self.epsilon(100, 0.8) == 0.05
        assert self.epsilon(40, 0.8) == pytest.approx(0.525)

    def test_fraction_zero_decays_after_the_first_step(self):
        assert self.epsilon(0, 0.0) == 1.0
        assert self.epsilon(1, 0.0) == 0.05
