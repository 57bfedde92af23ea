import dataclasses

import numpy as np
import pytest

from drsort import budget, config, training, warehouse
from drsort.induction import GroupSet, MultinomialSpec
from drsort.seeding import stream
from drsort.valuenet import action_value_table, default_q_dims, init_mlp, params_digest


def per_episode_evaluation(params, env_config, group_set, trials, seed):
    """Reference evaluation: one `rollout` per (group, trial), each on its own stream."""

    def greedy(state):
        obs = warehouse.observe_all(state, env_config)
        table = action_value_table(params, obs, env_config.action_max)
        return budget.solve_budget_argmax(table, env_config.n_chutes)

    return [
        tuple(
            training.rollout(greedy, env_config, group_set, g, stream(seed, "eval", g, trial))
            for trial in range(trials)
        )
        for g in range(group_set.size)
    ]


def random_q_params(env_config, seed, dtype=np.float64):
    dims = default_q_dims(env_config.action_max)
    return init_mlp(dims, stream(seed, "test/q"), dtype=np.dtype(dtype))


def assert_matches_reference(params, env_config, group_set, trials, seed):
    report = training.evaluate_policy(params, env_config, group_set, trials, seed)
    expected = per_episode_evaluation(params, env_config, group_set, trials, seed)
    assert [g.group for g in report.per_group] == list(range(1, group_set.size + 1))
    assert [g.episodes for g in report.per_group] == expected
    for group in report.per_group:
        for ep in group.episodes:
            assert type(ep.recirc_rate) is float
            assert type(ep.throughput) is int and type(ep.recirc_amount) is int
    return report


class TestEvaluatePolicy:
    def test_appendix_b_matches_per_episode_rollouts(self):
        env, group_set, train, _ = config.appendix_b_defaults()
        params = random_q_params(env, 1, dtype=train.dtype)
        report = assert_matches_reference(params, env, group_set, 3, seed=11)
        rates = report.episode_values("recirc_rate")
        assert len(rates) == 9 * 3
        assert len(set(rates.tolist())) > 1

    def test_main_formulation_matches_per_episode_rollouts(self):
        _, group_set, _, _ = config.appendix_b_defaults()
        env = warehouse.main_formulation_config()
        assert_matches_reference(random_q_params(env, 2), env, group_set, 2, seed=12)

    def test_single_trial(self):
        env, group_set, _, _ = config.appendix_b_defaults()
        assert_matches_reference(random_q_params(env, 3), env, group_set, 1, seed=13)

    def test_group_set_of_another_size(self):
        env = warehouse.EnvConfig(
            n_destinations=6, n_chutes=3, episode_steps=5, step_volume=60, action_max=2,
            action_penalty=1.0,
        )
        group_set = GroupSet(
            kind="custom",
            groups=(
                MultinomialSpec(probs_vector=(0.5, 0.1, 0.1, 0.1, 0.1, 0.1), volume=60),
                MultinomialSpec(probs_vector=(0.1, 0.1, 0.1, 0.1, 0.1, 0.5), volume=60),
                MultinomialSpec(probs_vector=(0.0, 0.2, 0.3, 0.3, 0.2, 0.0), volume=60),
                MultinomialSpec(probs_vector=(1 / 6,) * 6, volume=60),
            ),
        )
        assert_matches_reference(random_q_params(env, 4), env, group_set, 3, seed=14)

    def test_trained_policy_matches_per_episode_rollouts(self):
        env, group_set, train, _ = config.appendix_b_defaults()
        train = dataclasses.replace(train, episodes=3, batch_size=8)
        params = training.train_drmarl(train, env, group_set, seed=5).params
        assert_matches_reference(params, env, group_set, 2, seed=15)

    def test_rejects_zero_trials(self):
        env, group_set, _, _ = config.appendix_b_defaults()
        with pytest.raises(ValueError, match="trials"):
            training.evaluate_policy(random_q_params(env, 5), env, group_set, 0, seed=1)


class TestTrainDrmarl:
    def test_same_seed_gives_same_parameters(self):
        env, group_set, train, _ = config.appendix_b_defaults()
        train = dataclasses.replace(train, episodes=3, batch_size=8, target_sync_every=5)
        first = training.train_drmarl(train, env, group_set, seed=21)
        second = training.train_drmarl(train, env, group_set, seed=21)
        other = training.train_drmarl(train, env, group_set, seed=22)
        assert params_digest(first.params) == params_digest(second.params)
        assert params_digest(first.params) != params_digest(other.params)
