from dataclasses import replace

import numpy as np
import pytest

from drsort import warehouse
from drsort.seeding import stream


def small_config(**overrides):
    defaults = dict(
        n_destinations=3, n_chutes=2, episode_steps=4, step_volume=16, action_max=1
    )
    defaults.update(overrides)
    return warehouse.EnvConfig(**defaults)


class TestReset:
    def test_all_counters_zero(self):
        state = warehouse.reset(warehouse.EnvConfig())
        assert state.t == 0
        assert state.chutes_assigned.sum() == 0
        assert state.recirc_backlog.sum() == 0
        assert state.cum_recirc == 0 and state.cum_sorted == 0

    def test_reset_is_deterministic(self):
        config = warehouse.EnvConfig()
        a = warehouse.reset(config)
        b = warehouse.reset(config)
        assert np.array_equal(a.chutes_assigned, b.chutes_assigned)
        assert a == b or (a.t == b.t and a.cum_recirc == b.cum_recirc)

    def test_states_differing_in_any_field_are_unequal(self):
        base = warehouse.reset(small_config())
        changes = dict(
            t=1,
            chutes_assigned=np.array([1, 0, 0]),
            recirc_backlog=np.array([0, 0, 2]),
            cum_recirc=2,
            cum_sorted=5,
        )
        for name, value in changes.items():
            assert base != replace(base, **{name: value}), name
        assert base == replace(base, chutes_assigned=base.chutes_assigned.copy())

    def test_state_is_unhashable(self):
        with pytest.raises(TypeError):
            hash(warehouse.reset(small_config()))


class TestStep:
    def test_hand_traced_dynamics(self):
        config = small_config()
        out = warehouse.step(
            warehouse.reset(config), np.array([1, 0, 1]), np.array([5, 4, 7]), config
        )
        assert np.array_equal(out.sorted, [5, 0, 7])
        assert np.array_equal(out.recirculated, [0, 4, 0])
        assert out.rewards == pytest.approx([0.0, -4.0, 0.0])

    def test_zero_action_zero_induction_zero_reward(self):
        config = small_config()
        out = warehouse.step(
            warehouse.reset(config), np.zeros(3, dtype=int), np.zeros(3, dtype=int), config
        )
        assert out.rewards == pytest.approx([0.0, 0.0, 0.0])

    def test_action_penalty_reward(self):
        # recirc 3 with one requested chute elsewhere under the -2a reward
        config = small_config(action_penalty=2.0)
        out = warehouse.step(
            warehouse.reset(config), np.array([1, 0, 0]), np.array([0, 3, 0]), config
        )
        assert out.rewards[0] == pytest.approx(-2.0)  # -0 recirc - 2*1
        assert out.rewards[1] == pytest.approx(-3.0)

    def test_budget_violation_raises(self):
        config = small_config()
        with pytest.raises(ValueError, match="infeasible joint action"):
            warehouse.step(
                warehouse.reset(config), np.array([1, 1, 1]), np.zeros(3, dtype=int), config
            )

    def test_carryover_backlog_rearrives(self):
        config = small_config(recirc_carryover=True)
        first = warehouse.step(
            warehouse.reset(config), np.array([0, 0, 0]), np.array([6, 0, 0]), config
        )
        assert np.array_equal(first.next_state.recirc_backlog, [6, 0, 0])
        second = warehouse.step(
            first.next_state, np.array([1, 0, 0]), np.array([2, 0, 0]), config
        )
        # a chuted destination sorts its whole backlog: nothing survives
        assert second.sorted[0] == 8
        assert second.next_state.recirc_backlog[0] == 0

    def test_carryover_off_drops_backlog(self):
        config = small_config(recirc_carryover=False)
        first = warehouse.step(
            warehouse.reset(config), np.array([0, 0, 0]), np.array([6, 0, 0]), config
        )
        assert first.next_state.recirc_backlog.sum() == 0

    def test_conservation_and_budget_random_steps(self):
        config = small_config(n_destinations=5, n_chutes=3, step_volume=30)
        rng = stream(11, "cons")
        state = warehouse.reset(config)
        for _ in range(500):
            action = np.zeros(5, dtype=int)
            picks = rng.choice(5, size=int(rng.integers(0, 4)), replace=False)
            action[picks] = 1
            induction = rng.multinomial(30, np.full(5, 0.2))
            arrivals = induction + state.recirc_backlog
            out = warehouse.step(state, action, induction, config)
            assert np.array_equal(out.sorted + out.recirculated, arrivals)
            assert out.next_state.chutes_assigned.sum() <= 3
            state = out.next_state
            if state.t == config.episode_steps:
                state = warehouse.reset(config)

    def test_adding_a_chute_never_decreases_sorted(self):
        config = small_config()
        rng = stream(12, "monotone")
        for _ in range(100):
            state = warehouse.reset(config)
            induction = rng.multinomial(16, np.full(3, 1 / 3))
            base_action = np.array([0, 1, 0])
            more_action = np.array([1, 1, 0])
            base = warehouse.step(state, base_action, induction, config)
            more = warehouse.step(state, more_action, induction, config)
            assert more.sorted[0] >= base.sorted[0]

    def test_determinism_given_inputs(self):
        config = small_config()
        state = warehouse.reset(config)
        action = np.array([1, 0, 1])
        induction = np.array([4, 5, 7])
        a = warehouse.step(state, action, induction, config)
        b = warehouse.step(state, action, induction, config)
        assert np.array_equal(a.sorted, b.sorted)
        assert np.array_equal(a.next_state.recirc_backlog, b.next_state.recirc_backlog)


class TestObserve:
    def test_fresh_reset_has_full_availability(self):
        config = warehouse.EnvConfig()
        obs = warehouse.observe(warehouse.reset(config), 1, config)
        assert obs[1] == 1.0

    def test_identical_agents_differ_only_in_index_feature(self):
        config = small_config()
        state = warehouse.reset(config)
        a = warehouse.observe(state, 1, config)
        b = warehouse.observe(state, 2, config)
        assert a[0] != b[0]
        assert np.array_equal(a[1:], b[1:])

    def test_fixed_length_across_agents_and_steps(self):
        config = small_config()
        state = warehouse.reset(config)
        lengths = {warehouse.observe(state, i, config).size for i in (1, 2, 3)}
        out = warehouse.step(state, np.array([1, 0, 0]), np.array([4, 4, 8]), config)
        lengths |= {warehouse.observe(out.next_state, i, config).size for i in (1, 2, 3)}
        assert lengths == {warehouse.OBS_DIM}

    def test_observe_all_matches_observe(self):
        config = small_config()
        out = warehouse.step(
            warehouse.reset(config), np.array([0, 1, 0]), np.array([4, 4, 8]), config
        )
        stacked = warehouse.observe_all(out.next_state, config)
        for i in range(3):
            assert stacked[i] == pytest.approx(warehouse.observe(out.next_state, i + 1, config))

    def test_features_stay_in_unit_interval(self):
        config = small_config()
        state = warehouse.reset(config)
        rng = stream(13, "obsrange")
        for _ in range(50):
            action = np.zeros(3, dtype=int)
            action[int(rng.integers(3))] = 1
            out = warehouse.step(state, action, rng.multinomial(16, [0.6, 0.3, 0.1]), config)
            state = out.next_state
            obs = warehouse.observe_all(state, config)
            assert np.all(obs >= 0.0) and np.all(obs <= 1.0)
            if state.t == config.episode_steps:
                state = warehouse.reset(config)

    def test_agent_index_out_of_range(self):
        config = small_config()
        with pytest.raises(ValueError):
            warehouse.observe(warehouse.reset(config), 0, config)
        with pytest.raises(ValueError):
            warehouse.observe(warehouse.reset(config), 4, config)


def summed_metrics(outcomes):
    """Oracle: episode metrics re-summed from every step's sorted and recirculated counts."""
    total_sorted = int(sum(int(o.sorted.sum()) for o in outcomes))
    total_recirc = int(sum(int(o.recirculated.sum()) for o in outcomes))
    total = total_sorted + total_recirc
    return warehouse.EpisodeMetrics(
        recirc_rate=total_recirc / total if total > 0 else 0.0,
        throughput=total_sorted,
        recirc_amount=total_recirc,
    )


class TestEpisodeMetrics:
    def run_episode(self, config, policy_action, inductions):
        """The episode's metrics from the final state, checked against the summed oracle."""
        state = warehouse.reset(config)
        outcomes = []
        for induction in inductions:
            out = warehouse.step(state, policy_action, induction, config)
            outcomes.append(out)
            state = out.next_state
        metrics = warehouse.episode_metrics(state)
        assert metrics == summed_metrics(outcomes)
        return metrics

    def test_all_sorted(self):
        config = small_config(n_chutes=2)
        metrics = self.run_episode(
            config, np.array([1, 1, 0]), [np.array([8, 8, 0])] * 4
        )
        assert metrics.recirc_rate == 0.0
        assert metrics.throughput == 64
        assert metrics.recirc_amount == 0

    def test_nothing_sorted_rate_one(self):
        config = small_config(recirc_carryover=False)
        metrics = self.run_episode(
            config, np.zeros(3, dtype=int), [np.array([8, 4, 4])] * 4
        )
        assert metrics.recirc_rate == 1.0
        assert metrics.throughput == 0

    def test_rate_matches_reported_table_arithmetic(self):
        # 12,000 inducted with 68 recirculated passes is a ~0.57% rate,
        # the scale reported for the robust policies
        config = warehouse.EnvConfig(n_destinations=2, n_chutes=1, episode_steps=1,
                                     step_volume=12_000, recirc_carryover=False)
        metrics = self.run_episode(
            config, np.array([1, 0]), [np.array([11_932, 68])]
        )
        assert metrics.recirc_rate == pytest.approx(68 / 12_000)
        assert 0.005 < metrics.recirc_rate < 0.006
        assert metrics.throughput == 11_932
        assert metrics.recirc_amount == 68

    def test_pass_counting_with_carryover(self):
        # uncovered packages are counted once per pass through the system
        config = small_config(recirc_carryover=True)
        metrics = self.run_episode(
            config, np.zeros(3, dtype=int), [np.array([4, 0, 0]), np.array([4, 0, 0])]
        )
        # step 1: 4 recirc; step 2: 4 new + 4 backlog = 8 recirc
        assert metrics.recirc_amount == 12
        assert metrics.recirc_rate == 1.0


class TestBatchedEpisodes:
    def test_batch_rows_equal_single_episodes(self):
        config = small_config(n_destinations=5, n_chutes=3, step_volume=30, action_max=2,
                              action_penalty=1.5)
        rng = stream(14, "batch")
        k = 4
        batch = warehouse.reset(config, batch=k)
        singles = [warehouse.reset(config) for _ in range(k)]
        outcomes = [[] for _ in range(k)]
        for _ in range(config.episode_steps):
            actions = np.zeros((k, 5), dtype=int)
            for row in actions:
                row[rng.choice(5, size=2, replace=False)] = [1, 2]
            inductions = rng.multinomial(30, np.full(5, 0.2), size=k)
            obs = warehouse.observe_all(batch, config)
            assert obs.shape == (k, 5, warehouse.OBS_DIM)
            out = warehouse.step(batch, actions, inductions, config)
            for i in range(k):
                assert np.array_equal(obs[i], warehouse.observe_all(singles[i], config))
                single = warehouse.step(singles[i], actions[i], inductions[i], config)
                for name in ("rewards", "sorted", "recirculated"):
                    assert np.array_equal(getattr(out, name)[i], getattr(single, name)), name
                outcomes[i].append(single)
                singles[i] = single.next_state
            batch = out.next_state
        assert batch.t == config.episode_steps
        assert warehouse.episode_metrics(batch) == [summed_metrics(o) for o in outcomes]
        assert warehouse.episode_metrics(singles[0]) == summed_metrics(outcomes[0])
        assert type(singles[0].cum_recirc) is int and type(singles[0].cum_sorted) is int

    def test_episode_outcome_is_the_single_episode_step(self):
        config = small_config(n_destinations=5, n_chutes=3, step_volume=30, action_max=2)
        rng = stream(15, "slice")
        k = 3
        batch = warehouse.reset(config, batch=k)
        singles = [warehouse.reset(config) for _ in range(k)]
        for _ in range(config.episode_steps):
            actions = np.zeros((k, 5), dtype=int)
            for row in actions:
                row[rng.choice(5, size=2, replace=False)] = [1, 2]
            inductions = rng.multinomial(30, np.full(5, 0.2), size=k)
            out = warehouse.step(batch, actions, inductions, config)
            for i in range(k):
                single = warehouse.step(singles[i], actions[i], inductions[i], config)
                sliced = warehouse.episode_outcome(out, i)
                for name in ("rewards", "sorted", "recirculated"):
                    assert np.array_equal(getattr(sliced, name), getattr(single, name)), name
                assert sliced.next_state == single.next_state
                assert type(sliced.next_state.cum_sorted) is int
                assert warehouse.trace_record(0, actions[i], inductions[i], sliced) == (
                    warehouse.trace_record(0, actions[i], inductions[i], single)
                )
                singles[i] = single.next_state
            batch = out.next_state

    def test_batched_step_checks_each_row(self):
        config = small_config()
        state = warehouse.reset(config, batch=2)
        with pytest.raises(ValueError, match="infeasible joint action"):
            warehouse.step(state, np.array([[1, 0, 0], [1, 1, 1]]), np.zeros((2, 3)), config)
        with pytest.raises(ValueError, match="one entry per destination"):
            warehouse.step(state, np.zeros(3), np.zeros(3), config)

    def test_reset_rejects_empty_batch(self):
        with pytest.raises(ValueError):
            warehouse.reset(small_config(), batch=0)


class TestTraceRecord:
    def test_record_shape(self):
        config = small_config()
        out = warehouse.step(
            warehouse.reset(config), np.array([1, 0, 1]), np.array([5, 4, 7]), config
        )
        record = warehouse.trace_record(0, [1, 0, 1], [5, 4, 7], out)
        assert record["t"] == 0
        assert record["sorted"] == [5, 0, 7]
        assert record["recirculated"] == [0, 4, 0]
        assert record["rewards"] == [0.0, -4.0, 0.0]


class TestCloneState:
    def test_clone_is_independent(self):
        config = small_config()
        out = warehouse.step(
            warehouse.reset(config), np.array([0, 0, 0]), np.array([5, 4, 7]), config
        )
        state = out.next_state
        clone = warehouse.clone_state(state)
        clone.recirc_backlog[0] = 99
        assert state.recirc_backlog[0] == 5
