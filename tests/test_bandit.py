import dataclasses

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


class TestTrainCb:
    def test_same_seed_gives_same_parameters(self):
        first = short_cb_training(31)
        second = short_cb_training(31)
        other = short_cb_training(32)
        assert valuenet.params_digest(first.params) == valuenet.params_digest(second.params)
        assert valuenet.params_digest(first.params) != valuenet.params_digest(other.params)
        assert first.episode_losses == second.episode_losses


class TestCbConfig:
    def test_checkpoint_exploration_is_rejected(self):
        with pytest.raises(ValueError, match="unknown explore kind 'checkpoint'"):
            bandit.CbConfig(explore="checkpoint")
        assert bandit.CbConfig(explore="random").explore == "random"


class TestCbUpdate:
    def test_only_executed_heads_move(self):
        rng = stream(33, "test/cb-update")
        env = warehouse.EnvConfig()
        params = valuenet.init_mlp(bandit.default_cb_dims(env.n_destinations, 4, (16, 16)), rng)
        before_w = params.weights[-1].copy()
        before_b = params.biases[-1].copy()
        batch = []
        for group in (0, 2, 2, 0, 2):
            obs, action = random_context(env, rng)
            context = bandit.cb_context(obs, action, env.action_max)
            batch.append(bandit.CbTransition(context, group, float(rng.normal(-100.0, 10.0))))
        bandit.cb_update(params, valuenet.Optimizer(learning_rate=1e-2), batch)
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
            chosen = bandit.choose_group(
                self.params, obs, action, self.env.action_max, self.m, 0.0, choice_rng
            )
            assert chosen == worst
            picks.add(chosen)
        assert len(picks) > 1

    def test_epsilon_one_is_uniform(self):
        obs, action = random_context(self.env, stream(36, "test/context"))
        rng = stream(36, "test/choice")
        draws = [
            bandit.choose_group(self.params, obs, action, self.env.action_max, self.m, 1.0, rng)
            for _ in range(2700)
        ]
        counts = np.bincount(draws, minlength=self.m)
        assert len(counts) == self.m and counts.min() > 0
        # 300 expected per group; 5 standard deviations is about 82
        assert np.abs(counts - 300).max() < 90


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
