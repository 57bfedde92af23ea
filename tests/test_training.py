import csv
import dataclasses
import hashlib
import math

import numpy as np
import pytest

from drsort import bandit, budget, config, experiment, training, valuenet, warehouse
from drsort.induction import GroupSet, MultinomialSpec
from drsort.seeding import stream
from drsort.valuenet import action_value_table, default_q_dims, init_mlp, params_digest


def single_rollout(policy, env_config, group_set, group_index, rng, trace_sink=None):
    """Reference episode: one episode under `policy` (state -> joint action) and one group."""
    state = warehouse.reset(env_config)
    for t in range(env_config.episode_steps):
        action = policy(state)
        induction = group_set.sample(group_index, rng)
        outcome = warehouse.step(state, action, induction, env_config)
        if trace_sink is not None:
            trace_sink(warehouse.trace_record(t, action, induction, outcome))
        state = outcome.next_state
    return warehouse.episode_metrics(state)


def per_episode_evaluation(policy, env_config, group_set, trials, seed, trace_sink=None):
    """Reference evaluation: one `single_rollout` per (group, trial), each on its own stream.

    `trace_sink` receives the records of each group's trial-0 episode, group by group.
    """
    return [
        tuple(
            single_rollout(
                policy, env_config, group_set, g, stream(seed, "eval", g, trial),
                trace_sink=trace_sink if trial == 0 else None,
            )
            for trial in range(trials)
        )
        for g in range(group_set.size)
    ]


def scalar_greedy(params, env_config):
    """The greedy budgeted Q policy of one episode, one table and one argmax per step."""

    def greedy(state):
        obs = warehouse.observe_all(state, env_config)
        table = action_value_table(params, obs, env_config.action_max)
        return budget.solve_budget_argmax(table, env_config.n_chutes)

    return greedy


def small_setup():
    """N=6 destinations, 3 chutes, up to 2 per agent, and 4 groups."""
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
    return env, group_set


def random_q_params(env_config, seed, dtype=np.float64):
    dims = default_q_dims(env_config.action_max)
    return init_mlp(dims, stream(seed, "test/q"), dtype=np.dtype(dtype))


def assert_matches_reference(params, env_config, group_set, trials, seed):
    report = training.evaluate_policy(params, env_config, group_set, trials, seed)
    expected = per_episode_evaluation(
        scalar_greedy(params, env_config), env_config, group_set, trials, seed
    )
    assert [g.group for g in report.per_group] == list(range(1, group_set.size + 1))
    assert [g.episodes for g in report.per_group] == expected
    for group in report.per_group:
        for ep in group.episodes:
            assert type(ep.recirc_rate) is float
            assert type(ep.throughput) is int and type(ep.recirc_amount) is int
    return report


class TestEvaluatePolicy:
    def test_appendix_b_matches_per_episode_rollouts(self):
        env, group_set, _, _ = config.appendix_b_defaults()
        params = random_q_params(env, 1, dtype=valuenet.NET_DTYPE)
        report = assert_matches_reference(params, env, group_set, 3, seed=11)
        rates = [ep.recirc_rate for group in report.per_group for ep in group.episodes]
        assert len(rates) == 9 * 3
        assert len(set(rates)) > 1

    def test_main_formulation_matches_per_episode_rollouts(self):
        _, group_set, _, _ = config.appendix_b_defaults()
        env = warehouse.main_formulation_config()
        assert_matches_reference(random_q_params(env, 2), env, group_set, 2, seed=12)

    def test_single_trial(self):
        env, group_set, _, _ = config.appendix_b_defaults()
        assert_matches_reference(random_q_params(env, 3), env, group_set, 1, seed=13)

    def test_group_set_of_another_size(self):
        env, group_set = small_setup()
        assert_matches_reference(random_q_params(env, 4), env, group_set, 3, seed=14)

    def test_trained_policy_matches_per_episode_rollouts(self):
        env, group_set, train, _ = config.appendix_b_defaults()
        train = dataclasses.replace(train, episodes=3, batch_size=8)
        params = training.train_drmarl(train, env, group_set, seed=5).params
        assert_matches_reference(params, env, group_set, 2, seed=15)

    @pytest.mark.parametrize("formulation", ["appendix-b", "main"])
    def test_trace_holds_the_evaluated_trial_0_episodes(self, formulation):
        env, group_set, _, _ = config.appendix_b_defaults()
        if formulation == "main":
            env = warehouse.main_formulation_config()
        params = random_q_params(env, 6)
        records = []
        report = training.evaluate_policy(
            params, env, group_set, 2, seed=16, trace_sink=records.append
        )
        steps = env.episode_steps
        assert len(records) == group_set.size * steps
        for g, group in enumerate(report.per_group):
            episode = records[g * steps : (g + 1) * steps]
            assert [r["t"] for r in episode] == list(range(steps))
            assert sum(sum(r["sorted"]) for r in episode) == group.episodes[0].throughput
            assert sum(sum(r["recirculated"]) for r in episode) == group.episodes[0].recirc_amount
            # the same records as a one-at-a-time rollout of that episode
            oracle = []
            single_rollout(
                lambda state: valuenet.greedy_actions(
                    params, warehouse.observe_all(state, env), env.action_max, env.n_chutes
                ),
                env, group_set, g, stream(16, "eval", g, 0), trace_sink=oracle.append,
            )
            assert episode == oracle

    def test_trace_does_not_change_the_report(self):
        env, group_set, _, _ = config.appendix_b_defaults()
        params = random_q_params(env, 7)
        plain = training.evaluate_policy(params, env, group_set, 2, seed=17)
        traced = training.evaluate_policy(params, env, group_set, 2, seed=17, trace_sink=len)
        assert [g.episodes for g in traced.per_group] == [g.episodes for g in plain.per_group]

    @pytest.mark.parametrize("traced", [False, True])
    def test_shared_inductions_give_the_plain_evaluation(self, traced):
        env, group_set = small_setup()
        shared = training.draw_evaluation_inductions(env, group_set, 3, seed=18)
        assert shared.shape == (env.episode_steps, group_set.size * 3, env.n_destinations)
        assert not shared.flags.writeable
        for q_seed in (8, 9):
            params = random_q_params(env, q_seed)
            plain_records, shared_records = [], []
            plain = training.evaluate_policy(
                params, env, group_set, 3, seed=18,
                trace_sink=plain_records.append if traced else None,
            )
            again = training.evaluate_policy(
                params, env, group_set, 3, seed=18,
                trace_sink=shared_records.append if traced else None, inductions=shared,
            )
            assert [g.episodes for g in again.per_group] == [g.episodes for g in plain.per_group]
            assert shared_records == plain_records
            assert len(plain_records) == (group_set.size * env.episode_steps if traced else 0)

    def test_each_plain_call_draws_and_a_shared_call_does_not(self, monkeypatch):
        env, group_set = small_setup()
        made = []
        real = training.stream

        def counting(seed, name, *qualifiers):
            made.append(name)
            return real(seed, name, *qualifiers)

        monkeypatch.setattr(training, "stream", counting)
        params = random_q_params(env, 10)
        training.evaluate_policy(params, env, group_set, 2, seed=19)
        training.evaluate_policy(params, env, group_set, 2, seed=19)
        assert made == ["eval"] * (2 * group_set.size * 2)
        shared = training.draw_evaluation_inductions(env, group_set, 2, seed=19)
        del made[:]
        training.evaluate_policy(params, env, group_set, 2, seed=19, inductions=shared)
        assert made == []

    def test_rejects_inductions_of_another_shape_or_writable(self):
        env, group_set = small_setup()
        params = random_q_params(env, 11)
        shared = training.draw_evaluation_inductions(env, group_set, 2, seed=20)
        with pytest.raises(ValueError, match="expected"):
            training.evaluate_policy(params, env, group_set, 3, seed=20, inductions=shared)
        with pytest.raises(ValueError, match="expected"):
            training.evaluate_policy(params, env, group_set, 2, seed=20, inductions=shared[1:])
        with pytest.raises(ValueError, match="read-only"):
            training.evaluate_policy(params, env, group_set, 2, seed=20, inductions=shared.copy())
        with pytest.raises(ValueError):
            shared[0, 0, 0] = 1
        negative = shared.copy()
        negative[3, 5, 1] = -1
        negative.flags.writeable = False
        with pytest.raises(ValueError, match="negative"):
            training.evaluate_policy(params, env, group_set, 2, seed=20, inductions=negative)

    def test_shared_inductions_reject_a_group_set_that_does_not_fit_the_env(self):
        # the shapes agree, so only the volume tells the env from the group set
        env, group_set, _, _ = config.appendix_b_defaults()
        shared = training.draw_evaluation_inductions(env, group_set, 2, seed=22)
        env = dataclasses.replace(env, step_volume=600)
        with pytest.raises(ValueError, match="env has N=20 and volume 600"):
            training.evaluate_policy(
                random_q_params(env, 12), env, group_set, 2, seed=22, inductions=shared
            )

    def test_rejects_inductions_that_are_not_integer_counts(self):
        # warehouse.step would truncate every fractional count without a word
        env, group_set = small_setup()
        params = random_q_params(env, 12)
        shared = training.draw_evaluation_inductions(env, group_set, 2, seed=21)
        fractional = shared + 0.7
        fractional.flags.writeable = False
        with pytest.raises(ValueError, match="expected integer counts"):
            training.evaluate_policy(params, env, group_set, 2, seed=21, inductions=fractional)
        unsigned = shared.astype(np.uint16)
        unsigned.flags.writeable = False
        plain = training.evaluate_policy(params, env, group_set, 2, seed=21)
        assert training.evaluate_policy(
            params, env, group_set, 2, seed=21, inductions=unsigned
        ).per_group == plain.per_group

    def test_rejects_zero_trials(self):
        env, group_set, _, _ = config.appendix_b_defaults()
        with pytest.raises(ValueError, match="trials"):
            training.evaluate_policy(random_q_params(env, 5), env, group_set, 0, seed=1)


def fitting_setup(name):
    """The env and group set of one formulation the evaluation tests run on."""
    if name == "small":
        return small_setup()
    env, group_set, _, _ = config.appendix_b_defaults()
    return (warehouse.main_formulation_config() if name == "main" else env), group_set


def fixed_chutes(env_config):
    """A policy that keeps one feasible chute set, broadcast to the state's (K, N) or (N,)."""
    table = stream(3, "test/fixed-chutes").standard_normal(
        (env_config.n_destinations, env_config.action_max + 1)
    )
    chutes = budget.solve_budget_argmax(table, env_config.n_chutes)
    return lambda state: np.broadcast_to(chutes, state.recirc_backlog.shape)


def most_backlogged(env_config):
    """A state-dependent policy: one chute each to the M largest backlogs, ties to lower index."""

    def policy(state):
        order = np.argsort(-state.recirc_backlog, axis=-1, kind="stable")
        actions = np.zeros(state.recirc_backlog.shape, dtype=int)
        np.put_along_axis(actions, order[..., : env_config.n_chutes], 1, axis=-1)
        return actions

    return policy


class TestRollout:
    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize("make_policy", [fixed_chutes, most_backlogged])
    @pytest.mark.parametrize("name", ["appendix-b", "small"])
    def test_a_non_q_policy_matches_per_episode_rollouts(self, name, make_policy, traced):
        env, group_set = fitting_setup(name)
        policy = make_policy(env)
        records, oracle = [], []
        report = training.rollout(
            policy, env, group_set, 3, seed=23, trace_sink=records.append if traced else None
        )
        expected = per_episode_evaluation(
            policy, env, group_set, 3, seed=23, trace_sink=oracle.append if traced else None
        )
        assert [g.group for g in report.per_group] == list(range(1, group_set.size + 1))
        assert [g.episodes for g in report.per_group] == expected
        assert records == oracle
        assert len(records) == (group_set.size * env.episode_steps if traced else 0)
        rates = [ep.recirc_rate for group in report.per_group for ep in group.episodes]
        assert len(set(rates)) > 1

    def test_the_policy_sees_every_episode_as_one_batch(self):
        env, group_set = small_setup()
        seen = []

        def recording(state):
            seen.append((state.t, state.recirc_backlog.shape))
            return np.zeros(state.recirc_backlog.shape, dtype=int)

        training.rollout(recording, env, group_set, 2, seed=24)
        k = group_set.size * 2
        assert seen == [(t, (k, env.n_destinations)) for t in range(env.episode_steps)]


class TestDrawEvaluationInductions:
    @pytest.mark.parametrize("name", ["appendix-b", "main", "small"])
    def test_each_column_equals_single_draws_on_its_stream(self, monkeypatch, name):
        env, group_set = fitting_setup(name)
        made = []
        real = training.stream

        def recording(seed, name, *qualifiers):
            made.append(real(seed, name, *qualifiers))
            return made[-1]

        monkeypatch.setattr(training, "stream", recording)
        trials = 3
        inductions = training.draw_evaluation_inductions(env, group_set, trials, seed=21)
        assert inductions.dtype == np.int64 and not inductions.flags.writeable
        assert len(made) == group_set.size * trials
        for g in range(group_set.size):
            for trial in range(trials):
                rng = stream(21, "eval", g, trial)
                expected = [group_set.sample(g, rng) for _ in range(env.episode_steps)]
                column = g * trials + trial
                assert np.array_equal(inductions[:, column], np.stack(expected))
                assert made[column].bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize("misfit", ["n_destinations", "step_volume"])
    def test_rejects_a_group_set_that_does_not_fit_the_env(self, monkeypatch, misfit):
        env, group_set, _, _ = config.appendix_b_defaults()
        if misfit == "n_destinations":
            _, group_set = small_setup()
            message = "group set has N=6 and volume 60, env has N=20 and volume 1200"
        else:
            env = dataclasses.replace(env, step_volume=1000)
            message = "group set has N=20 and volume 1200, env has N=20 and volume 1000"
        made = []
        monkeypatch.setattr(training, "stream", lambda *args: made.append(args))
        with pytest.raises(ValueError, match=message):
            training.draw_evaluation_inductions(env, group_set, 2, seed=22)
        with pytest.raises(ValueError, match=message):
            training.evaluate_policy(random_q_params(env, 12), env, group_set, 2, seed=22)
        assert made == []

    @pytest.mark.parametrize("misfit", ["n_destinations", "step_volume"])
    def test_trainers_reject_a_group_set_that_does_not_fit_the_env(self, monkeypatch, misfit):
        env, group_set, train, cb = config.appendix_b_defaults()
        if misfit == "n_destinations":
            _, group_set = small_setup()
            message = "group set has N=6 and volume 60, env has N=20 and volume 1200"
        else:
            env = dataclasses.replace(env, step_volume=600)
            message = "group set has N=20 and volume 1200, env has N=20 and volume 600"
        made = []
        monkeypatch.setattr(training, "stream", lambda *args: made.append(args))
        monkeypatch.setattr(bandit, "stream", lambda *args: made.append(args))
        train = dataclasses.replace(train, worst_case_mode="random", episodes=1)
        with pytest.raises(ValueError, match=message):
            training.train_drmarl(train, env, group_set, seed=22)
        cb = dataclasses.replace(cb, explore="random", episodes=1)
        with pytest.raises(ValueError, match=message):
            bandit.train_cb(env, group_set, cb, seed=22)
        assert made == []


@pytest.fixture(scope="module")
def trained_policies():
    """A 3-episode (batch 8) policy per formulation, with its train and evaluation seed."""
    policies = {}
    for name, seed in (("appendix-b", 41), ("main", 43)):
        env, group_set = fitting_setup(name)
        train = dataclasses.replace(config.appendix_b_defaults()[2], episodes=3, batch_size=8)
        params = training.train_drmarl(train, env, group_set, seed=seed).params
        policies[name] = (env, group_set, params, seed)
    return policies


class TestLockstepEvaluation:
    # recorded with one (T, N) pvals draw per episode and np.unique row grouping
    # (numpy 2.4 with OpenBLAS 0.3.31, with one BLAS thread and with two)
    @pytest.mark.parametrize("name, digest", [
        ("appendix-b", "65c73d6ed851d6bd0339fe964677475b2a6469efd33707d0a46a14885afa4619"),
        ("main", "6aa600c33fb4455356f79a351534358d418e22c81b5146528d0a7ebc9cb16628"),
    ])
    def test_a_plain_evaluation_keeps_its_digest(self, trained_policies, name, digest):
        env, group_set, params, seed = trained_policies[name]
        report = training.evaluate_policy(params, env, group_set, trials=2, seed=seed)
        text = ";".join(
            f"{ep.recirc_rate.hex()},{ep.throughput}"
            for group in report.per_group for ep in group.episodes
        )
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("name", ["appendix-b", "main"])
    def test_grouping_merges_every_equal_row(self, monkeypatch, trained_policies, name):
        env, group_set, params, seed = trained_policies[name]
        observed, stacked = [], []
        real_observe, real_distinct = warehouse.observe_distinct, valuenet.distinct_keys

        def observing(state, config):
            rows, row_of = real_observe(state, config)
            observed.append((warehouse.observe_all(state, config), rows, row_of))
            return rows, row_of

        def stacking(x):
            stacked.append(x.copy())
            return real_distinct(x)

        monkeypatch.setattr(warehouse, "observe_distinct", observing)
        monkeypatch.setattr(valuenet, "distinct_keys", stacking)
        training.evaluate_policy(params, env, group_set, trials=20, seed=seed)
        episodes = group_set.size * 20
        assert len(observed) == env.episode_steps
        for obs, rows, row_of in observed:
            assert obs.shape == (episodes, env.n_destinations, valuenet.OBS_DIM)
            bits = obs.reshape(-1, valuenet.OBS_DIM).view(np.uint64)
            assert len(rows) == len(np.unique(bits, axis=0))
            assert np.array_equal(rows[row_of].view(np.uint64), obs.view(np.uint64))
        # every step's observation rows merge
        assert all(len(rows) < episodes * env.n_destinations for _, rows, _ in observed)
        if env.action_max == 1:
            # two-level tables are solved ungrouped: no stack grouping runs
            assert stacked == []
            return
        assert [x.shape for x in stacked] == [(episodes, env.n_destinations)] * env.episode_steps
        for x in stacked:
            first, inverse = real_distinct(x)
            rows = x[first]
            assert len(rows) == len(np.unique(x, axis=0))
            assert np.array_equal(rows[inverse], x)
        # its stacks merge at t=0 at least
        assert len(real_distinct(stacked[0])[0]) < episodes

    @pytest.mark.parametrize("name", ["appendix-b", "main"])
    def test_distinct_rows_come_in_ascending_code_order(self, monkeypatch, trained_policies, name):
        env, group_set, params, seed = trained_policies[name]
        states = []
        real_observe = warehouse.observe_distinct

        def observing(state, config):
            states.append(state)
            return real_observe(state, config)

        monkeypatch.setattr(warehouse, "observe_distinct", observing)
        training.evaluate_policy(params, env, group_set, trials=20, seed=seed)
        assert len(states) == env.episode_steps
        m, a_max, v = env.n_chutes, env.action_max, env.step_volume
        for state in states:
            # the documented code: index, free chutes, own chutes and backlog clipped at V
            chutes = state.chutes_assigned
            available = m - chutes.sum(axis=-1, keepdims=True)
            index = np.arange(env.n_destinations)
            backlog = np.minimum(state.recirc_backlog, v)
            codes = ((index * (m + 1) + available) * (a_max + 1) + chutes) * (v + 1) + backlog
            _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
            rows, row_of = real_observe(state, env)
            obs = warehouse.observe_all(state, env).reshape(-1, valuenet.OBS_DIM)
            assert np.array_equal(rows.view(np.uint64), obs[first].view(np.uint64))
            assert np.array_equal(row_of, inverse.reshape(codes.shape))


class TestTrainDrmarl:
    def test_same_seed_gives_same_parameters(self):
        env, group_set, train, _ = config.appendix_b_defaults()
        train = dataclasses.replace(train, episodes=3, batch_size=8, target_sync_every=5)
        first = training.train_drmarl(train, env, group_set, seed=21)
        second = training.train_drmarl(train, env, group_set, seed=21)
        other = training.train_drmarl(train, env, group_set, seed=22)
        assert params_digest(first.params) == params_digest(second.params)
        assert params_digest(first.params) != params_digest(other.params)
        # a step follows every push once the buffer holds a batch
        steps = train.episodes * env.episode_steps - train.batch_size + 1
        assert (first.gradient_steps, first.target_syncs) == (steps, steps // 5) == (23, 4)

    @pytest.mark.parametrize("fixed_group", [9, 10])
    def test_rejects_a_fixed_group_beyond_the_group_set_before_any_stream(
        self, monkeypatch, fixed_group
    ):
        env, group_set, train, _ = config.appendix_b_defaults()
        train = dataclasses.replace(
            train, episodes=1, worst_case_mode="fixed", fixed_group=fixed_group
        )
        made = []
        monkeypatch.setattr(training, "stream", lambda *args: made.append(args))
        with pytest.raises(ValueError, match=f"fixed_group {fixed_group} is not below the 9"):
            training.train_drmarl(train, env, group_set, seed=21)
        assert made == []


@dataclasses.dataclass
class MemoTransition(valuenet.Transition):
    # bootstrap value memoized per target-network era
    bootstrap_era: int = -1
    bootstrap_value: float = 0.0


def list_bootstrap_values(target_params, batch, era, *, budget_limit, a_max):
    """Reference bootstrap: (values, non-terminal rows, rows recomputed) over a list of steps."""
    live = [t for t in batch if not t.terminal]
    stale = [t for t in live if t.bootstrap_era != era]
    if stale:
        next_obs = np.concatenate([t.next_observations for t in stale]).reshape(
            len(stale), *stale[0].next_observations.shape
        )
        tables = valuenet.action_value_table_batch(target_params, next_obs, a_max)
        values = budget.max_joint_value_batch(tables, budget_limit)
        for transition, value in zip(stale, values):
            transition.bootstrap_era = era
            transition.bootstrap_value = float(value)
    values = np.array([0.0 if t.terminal else t.bootstrap_value for t in batch])
    return values, len(live), len(stale)


def list_gradient_step(params, target_params, optimizer, batch, era, *, gamma, budget_limit,
                       a_max):
    """Reference TD step: concatenated float64 observations, q_inputs built per step."""
    n_agents = batch[0].observations.shape[0]
    obs = np.concatenate([t.observations for t in batch])
    actions = np.concatenate([t.action for t in batch])
    rewards = np.array([t.reward for t in batch])
    bootstrap, lookups, recomputed = list_bootstrap_values(
        target_params, batch, era, budget_limit=budget_limit, a_max=a_max
    )
    targets = rewards + gamma * bootstrap
    rows = valuenet.q_inputs(obs, actions, a_max, params.dtype)
    preds, cache = valuenet.mlp_forward_cached(params, rows)
    joint = loop_joint_values(preds[:, 0].reshape(len(batch), n_agents))
    errors = joint - targets
    grad_joint = 2.0 * errors / len(batch)
    grad_out = np.repeat(grad_joint, n_agents)[:, None]
    optimizer.apply(params, valuenet.mlp_backward(params, cache, grad_out).flat)
    return float(np.mean(errors**2)), lookups, recomputed


def list_train_drmarl(train_config, env_config, group_set, seed, cb_params=None):
    """Reference trainer: one MemoTransition per step in a ReplayBuffer.

    It draws every stream in the same order as training.train_drmarl and
    returns the fields of its TrainResult that the tests compare.
    """
    mode = train_config.worst_case_mode
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
        default_q_dims(a_max, train_config.hidden), init_rng, dtype=valuenet.NET_DTYPE
    )
    target_params = valuenet.target_sync(params)
    optimizer = valuenet.Optimizer(learning_rate=train_config.learning_rate)
    scale = warehouse.reward_unit(env_config)
    buffer = valuenet.ReplayBuffer(train_config.buffer_capacity)
    out = dict(td_loss=[], gradient_steps=0, target_syncs=0, bootstrap_lookups=0,
               bootstrap_recomputes=0, group_counts=[0] * m)
    step_count = 0
    for _episode in range(train_config.episodes):
        state = warehouse.reset(env_config)
        obs = warehouse.observe_all(state, env_config)
        group_rng.integers(m)
        losses = []
        for t in range(env_config.episode_steps):
            epsilon = train_config.epsilon(step_count, env_config.episode_steps)
            if explore_rng.random() < epsilon:
                action = budget.sample_feasible_uniform(n, a_max, env_config.n_chutes, explore_rng)
            else:
                action = valuenet.greedy_actions(params, obs, a_max, env_config.n_chutes)
            group = training.select_worst_group(
                mode, group_set=group_set, state=state, observations=obs, action=action,
                env_config=env_config, rng=probe_rng if mode == "exhaustive" else group_rng,
                cb_params=cb_params, fixed_group=train_config.fixed_group,
                n_probe=train_config.n_probe,
            )
            out["group_counts"][group] += 1
            induction = group_set.sample(group, induction_rng)
            outcome = warehouse.step(state, action, induction, env_config)
            next_obs = warehouse.observe_all(outcome.next_state, env_config)
            buffer.push(MemoTransition(
                observations=obs,
                action=action,
                reward=float(outcome.rewards.sum()) * scale,
                next_observations=next_obs,
                terminal=(t == env_config.episode_steps - 1),
            ))
            if len(buffer) >= train_config.batch_size:
                batch = buffer.sample(train_config.batch_size, replay_rng)
                loss, lookups, recomputed = list_gradient_step(
                    params, target_params, optimizer, batch, out["target_syncs"],
                    gamma=train_config.gamma, budget_limit=env_config.n_chutes, a_max=a_max,
                )
                losses.append(loss)
                out["bootstrap_lookups"] += lookups
                out["bootstrap_recomputes"] += recomputed
                out["gradient_steps"] += 1
                if out["gradient_steps"] % train_config.target_sync_every == 0:
                    target_params = valuenet.target_sync(params)
                    out["target_syncs"] += 1
            state = outcome.next_state
            obs = next_obs
            step_count += 1
        out["td_loss"].append(float(np.mean(losses)) if losses else float("nan"))
    return params, out


class TestReplayColumns:
    @pytest.mark.parametrize("capacity", [12, 50_000], ids=["wraps", "never-full"])
    @pytest.mark.parametrize("formulation", ["appendix-b", "main"])
    @pytest.mark.parametrize("mode", training.WORST_CASE_MODES)
    def test_columns_match_the_list_of_transitions(self, mode, formulation, capacity):
        env, group_set = fitting_setup(formulation)
        train = dataclasses.replace(
            config.appendix_b_defaults()[2], episodes=4, batch_size=8, buffer_capacity=capacity,
            target_sync_every=3, worst_case_mode=mode, fixed_group=4 if mode == "fixed" else None,
        )
        cb_params = None
        if mode == "cb":
            dims = bandit.default_cb_dims(env.n_destinations, group_set.size)
            cb_params = init_mlp(dims, stream(44, "test/cb"), dtype=valuenet.NET_DTYPE)
        result = training.train_drmarl(train, env, group_set, seed=44, cb_params=cb_params)
        params, expected = list_train_drmarl(train, env, group_set, 44, cb_params=cb_params)
        assert params_digest(result.params) == params_digest(params)
        assert [row.td_loss.hex() for row in result.trace] == [x.hex() for x in expected["td_loss"]]
        for name in ("gradient_steps", "target_syncs", "bootstrap_lookups",
                     "bootstrap_recomputes", "group_counts"):
            assert getattr(result, name) == expected[name], name
        # eras turn over, and the memo serves some lookups but not all
        assert result.target_syncs == result.gradient_steps // 3 > 1
        assert 0 < result.bootstrap_recomputes < result.bootstrap_lookups

    def test_columns_hold_no_more_slots_than_the_run_takes(self, monkeypatch):
        env, group_set, train, _ = config.appendix_b_defaults()
        train = dataclasses.replace(train, episodes=3, batch_size=8, buffer_capacity=50_000)
        made = []

        class Recording(training.QReplay):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(training, "QReplay", Recording)
        training.train_drmarl(train, env, group_set, seed=45)
        (replay,) = made
        steps = train.episodes * env.episode_steps
        assert replay.ring.capacity == len(replay.ring) == steps == 30
        columns = (replay.rows, replay.next_observations, replay.rewards, replay.terminal,
                   replay.era, replay.value)
        assert [len(column) for column in columns] == [steps] * len(columns)
        in_dim = valuenet.q_input_dim(env.action_max)
        assert replay.rows.shape == (steps, env.n_destinations, in_dim)


def loop_joint_values(locals_):
    """Reference joint sums: a float64 zero vector plus one agent's column at a time."""
    joint = np.zeros(locals_.shape[0])
    for agent in range(locals_.shape[1]):
        joint = joint + locals_[:, agent]
    return joint


class TestJointValues:
    @staticmethod
    def assert_bitwise(locals_):
        expected = loop_joint_values(locals_)
        got = training._joint_values(locals_)
        assert got.dtype == np.float64 and got.shape == expected.shape
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_random_batches_match_the_sequential_loop(self):
        rng = stream(24, "test/joint-values")
        for _ in range(200):
            scale = 10.0 ** rng.integers(-3, 4)
            self.assert_bitwise((rng.standard_normal((64, 20)) * scale).astype(np.float32))

    def test_signed_zeros_match_the_sequential_loop(self):
        locals_ = stream(25, "test/joint-zeros").standard_normal((64, 20)).astype(np.float32)
        locals_[:, 0] = -0.0
        self.assert_bitwise(locals_)
        all_negative_zero = np.full((8, 20), -0.0, dtype=np.float32)
        self.assert_bitwise(all_negative_zero)
        assert not np.signbit(training._joint_values(all_negative_zero)).any()
        self.assert_bitwise(np.zeros((8, 20), dtype=np.float32))


def scalar_probe_estimates(state, action, group_set, env_config, rng, n_probe):
    """Reference exhaustive probing: one cloned state, draw and step per probe, group by group."""
    estimates = []
    for g in range(group_set.size):
        total = 0.0
        for _ in range(n_probe):
            probe_state = warehouse.clone_state(state)
            induction = group_set.sample(g, rng)
            outcome = warehouse.step(probe_state, action, induction, env_config)
            total += float(outcome.rewards.sum())
        estimates.append(total / n_probe)
    return estimates


def probe_cases(env, rng, count):
    """The reset state, then random states (about half the agents backlogged) and actions."""
    n, a_max, m = env.n_destinations, env.action_max, env.n_chutes
    yield warehouse.reset(env), budget.sample_feasible_uniform(n, a_max, m, rng)
    for _ in range(count):
        backlog = rng.integers(0, env.step_volume // 4, size=n) * (rng.random(n) < 0.5)
        state = warehouse.WarehouseState(
            t=int(rng.integers(env.episode_steps)),
            chutes_assigned=budget.sample_feasible_uniform(n, a_max, m, rng),
            recirc_backlog=backlog,
            cum_recirc=int(backlog.sum()),
            cum_sorted=int(rng.integers(100_000)),
        )
        yield state, budget.sample_feasible_uniform(n, a_max, m, rng)


def probe_setups():
    """(env, group set, n_probe) by name."""
    env, group_set, _, _ = config.appendix_b_defaults()
    small_env, small_groups = small_setup()
    return {
        "appendix-b": (env, group_set, 8),
        "main-formulation": (warehouse.main_formulation_config(), group_set, 8),
        "small-n_probe-3": (small_env, small_groups, 3),
        "small-n_probe-1": (small_env, small_groups, 1),
    }


def assert_joint_rewards_equal_step(state, action, inductions, env):
    """joint_rewards is bit-equal to the summed rewards of step on the tiled state."""
    p = len(inductions)
    got = warehouse.joint_rewards(state, action, inductions, env)
    outcome = warehouse.step(
        warehouse.tile(state, p), np.broadcast_to(action, inductions.shape), inductions, env
    )
    assert got.dtype == np.float64 and got.shape == (p,)
    assert np.array_equal(got.view(np.uint64), outcome.rewards.sum(axis=-1).view(np.uint64))
    return got


def joint_reward_setups():
    """probe_setups and a fractional penalty, whose rewards round."""
    setups = probe_setups()
    env, group_set, n_probe = setups["main-formulation"]
    setups["fractional-penalty"] = (
        dataclasses.replace(env, action_penalty=0.3), group_set, n_probe
    )
    return setups


class TestJointRewards:
    @pytest.mark.parametrize("setup", list(joint_reward_setups()))
    def test_bit_equal_to_the_summed_rewards_of_step(self, setup):
        env, group_set, n_probe = joint_reward_setups()[setup]
        cases = stream(43, f"test/probe-cases/{setup}")
        draws = stream(43, "test/probe")
        groups = np.repeat(np.arange(group_set.size), n_probe)
        backlogged = 0
        for state, action in probe_cases(env, cases, 100):
            before = warehouse.clone_state(state)
            assert_joint_rewards_equal_step(state, action, group_set.sample(groups, draws), env)
            assert state == before
            backlogged += bool(state.recirc_backlog[action == 0].any())
        assert backlogged > 50

    @pytest.mark.parametrize("setup", ["appendix-b", "main-formulation", "small-n_probe-3"])
    def test_an_all_zero_action_recirculates_every_arrival(self, setup):
        env, group_set, n_probe = probe_setups()[setup]
        rng = stream(44, f"test/joint-rewards/{setup}")
        backlog = rng.integers(0, env.step_volume, size=env.n_destinations)
        state = dataclasses.replace(warehouse.reset(env), recirc_backlog=backlog)
        inductions = group_set.sample(np.repeat(np.arange(group_set.size), n_probe), rng)
        action = np.zeros(env.n_destinations, dtype=int)
        got = assert_joint_rewards_equal_step(state, action, inductions, env)
        assert got.tolist() == [-float(row.sum() + backlog.sum()) for row in inductions]

    @pytest.mark.parametrize("setup", ["appendix-b", "main-formulation", "small-n_probe-3"])
    def test_an_action_that_leaves_nothing_recirculated(self, setup):
        env, group_set, n_probe = probe_setups()[setup]
        rng = stream(45, f"test/joint-rewards/{setup}")
        n, a_max, m = env.n_destinations, env.action_max, env.n_chutes
        action = budget.sample_feasible_uniform(n, a_max, m, rng)
        chuted = action > 0
        backlog = rng.integers(0, env.step_volume, size=n) * chuted
        state = dataclasses.replace(warehouse.reset(env), recirc_backlog=backlog)
        inductions = group_set.sample(np.repeat(np.arange(group_set.size), n_probe), rng)
        got = assert_joint_rewards_equal_step(state, action, inductions * chuted, env)
        # the bit-equality above pins the sign of a zero reward (all of appendix-B's) to step's
        assert got.tolist() == [-env.action_penalty * action.sum()] * len(inductions)


class TestExhaustiveProbing:
    @pytest.mark.parametrize("setup", list(probe_setups()))
    def test_batched_probes_match_the_scalar_loop(self, setup):
        env, group_set, n_probe = probe_setups()[setup]
        cases = stream(41, f"test/probe-cases/{setup}")
        batched_rng = stream(41, "test/probe")
        scalar_rng = stream(41, "test/probe")
        for state, action in probe_cases(env, cases, 150):
            before = warehouse.clone_state(state)
            estimates = training.probe_group_reward(
                state, action, group_set, env, batched_rng, n_probe
            )
            expected = scalar_probe_estimates(state, action, group_set, env, scalar_rng, n_probe)
            assert estimates.shape == (group_set.size,)
            assert estimates.tolist() == expected
            assert batched_rng.bit_generator.state == scalar_rng.bit_generator.state
            assert state == before  # the live state is never advanced
        assert len(set(expected)) > 1

    @pytest.mark.parametrize("setup", ["appendix-b", "main-formulation"])
    def test_exhaustive_selection_matches_the_scalar_argmin(self, setup):
        env, group_set, n_probe = probe_setups()[setup]
        cases = stream(42, f"test/probe-cases/{setup}")
        probe_rng = stream(42, "test/probe")
        scalar_rng = stream(42, "test/probe")
        chosen = set()
        for state, action in probe_cases(env, cases, 100):
            group = training.select_worst_group(
                "exhaustive",
                group_set=group_set,
                state=state,
                observations=warehouse.observe_all(state, env),
                action=action,
                env_config=env,
                rng=probe_rng,
                n_probe=n_probe,
            )
            expected = scalar_probe_estimates(state, action, group_set, env, scalar_rng, n_probe)
            assert group == int(np.argmin(expected))
            assert probe_rng.bit_generator.state == scalar_rng.bit_generator.state
            chosen.add(group)
        assert len(chosen) > 1

    def test_short_exhaustive_training_keeps_its_digest(self):
        # recorded with the per-probe loop (numpy 2.4 with OpenBLAS 0.3.31, one thread)
        env, group_set, train, _ = config.appendix_b_defaults()
        train = dataclasses.replace(
            train, episodes=3, batch_size=8, target_sync_every=5, worst_case_mode="exhaustive"
        )
        result = training.train_drmarl(train, env, group_set, seed=31)
        assert params_digest(result.params) == (
            "7c032d24068a39c014d6c574ae7f65b9fee73b525d4f826f4b018242135bb61e"
        )

    def test_short_mixed_cb_training_keeps_its_digest(self):
        # recorded with the closure-built exploration policies (numpy 2.4 with OpenBLAS 0.3.31)
        env, group_set, _, cb = config.appendix_b_defaults()
        assert cb.explore == "mixed"
        anchor = init_mlp(
            default_q_dims(env.action_max), stream(37, "test/q-anchor"), dtype=valuenet.NET_DTYPE
        )
        cb = dataclasses.replace(cb, episodes=3, batch_size=8)
        result = bandit.train_cb(env, group_set, cb, 37, q_params=anchor)
        assert params_digest(result.params) == (
            "a9b25ebc30bd3771b70fdca047d166697cc029a06aebad4a2537e22b08b7caf4"
        )


class TestSelectWorstGroup:
    def select(self, mode, **kwargs):
        env, group_set, _, _ = config.appendix_b_defaults()
        state = warehouse.reset(env)
        return training.select_worst_group(
            mode,
            group_set=group_set,
            state=state,
            observations=warehouse.observe_all(state, env),
            action=np.zeros(env.n_destinations, dtype=int),
            env_config=env,
            rng=stream(1, "test/select"),
            **kwargs,
        )

    def test_cb_requires_a_predictor(self):
        with pytest.raises(ValueError, match="predictor"):
            self.select("cb")

    def test_fixed_requires_a_group(self):
        with pytest.raises(ValueError, match="fixed_group"):
            self.select("fixed")
        assert self.select("fixed", fixed_group=3) == 3

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown worst_case_mode"):
            self.select("minimax")


class TestTraceTdLoss:
    def test_td_loss_is_nan_until_the_first_gradient_step(self, tmp_path):
        env, group_set, train, _ = config.appendix_b_defaults()
        # 10 steps per episode: the first episode never fills a batch of 16
        train = dataclasses.replace(train, episodes=3, batch_size=16)
        trace = training.train_drmarl(train, env, group_set, seed=23).trace
        assert math.isnan(trace[0].td_loss)
        assert all(math.isfinite(row.td_loss) and row.td_loss >= 0.0 for row in trace[1:])
        path = tmp_path / "trace.csv"
        experiment.write_trace_csv(path, trace)
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        td_losses = [float(row[header.index("td_loss")]) for row in rows]
        assert math.isnan(td_losses[0])
        assert td_losses[1:] == [row.td_loss for row in trace[1:]]


class TestTrainConfig:
    @pytest.mark.parametrize("n_probe", [0, -1])
    def test_rejects_fewer_than_one_probe(self, n_probe):
        with pytest.raises(ValueError, match="n_probe must be >= 1"):
            training.TrainConfig(worst_case_mode="exhaustive", n_probe=n_probe)
        assert training.TrainConfig(worst_case_mode="exhaustive", n_probe=1).n_probe == 1

    @pytest.mark.parametrize("mode", ["fixed", "random"])
    def test_rejects_a_negative_fixed_group(self, mode):
        with pytest.raises(ValueError, match="fixed_group must be >= 0, got -1"):
            training.TrainConfig(worst_case_mode=mode, fixed_group=-1)
        assert training.TrainConfig(worst_case_mode=mode, fixed_group=0).fixed_group == 0
