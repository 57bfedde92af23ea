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

    @pytest.mark.parametrize("action, induction, name", [
        ([0.9, 0, 1.7], [4, 3, 3], "action"),
        ([1, 0, 1], [4.6, 3.2, 2.2], "induction"),
        ([1, 0, 1], [np.nan, 5, 5], "induction"),
        ([1, 0, 1], [np.inf, 5, 5], "induction"),
        ([np.nan, 0, 1], [4, 3, 3], "action"),
    ], ids=["fractional-action", "fractional-induction", "nan", "inf", "nan-action"])
    def test_a_count_that_is_not_a_whole_number_is_rejected(self, action, induction, name):
        # casting would truncate it: [0.9, 0, 1.7] would assign chutes [0, 0, 1]
        config = small_config(step_volume=10)
        with pytest.raises(ValueError, match=f"{name} holds a count that is not a whole number"):
            warehouse.step(warehouse.reset(config), np.array(action), np.array(induction), config)

    def test_whole_valued_floats_step_as_integers(self):
        config = small_config(step_volume=10)
        state = warehouse.reset(config)
        want = warehouse.step(state, np.array([1, 0, 1]), np.array([4, 3, 3]), config)
        out = warehouse.step(state, np.array([1.0, -0.0, 1.0]), np.array([4.0, 3.0, 3.0]), config)
        assert out.next_state == want.next_state
        assert out.sorted.dtype == want.sorted.dtype
        assert np.array_equal(out.rewards, want.rewards)

    def test_carryover_backlog_rearrives(self):
        config = small_config()
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

    @pytest.mark.parametrize("volume", [0, 1, 1200])
    def test_reward_unit_is_one_over_the_volume_floored_at_one(self, volume):
        config = warehouse.EnvConfig(step_volume=volume)
        assert warehouse.reward_unit(config) == 1.0 / max(volume, 1)


class TestObserve:
    def test_fresh_reset_has_full_availability(self):
        config = warehouse.EnvConfig()
        obs = warehouse.observe_all(warehouse.reset(config), config)
        assert np.all(obs[:, 1] == 1.0)

    def test_identical_agents_differ_only_in_index_feature(self):
        config = small_config()
        a, b, _ = warehouse.observe_all(warehouse.reset(config), config)
        assert a[0] != b[0]
        assert np.array_equal(a[1:], b[1:])

    def test_fixed_length_across_agents_and_steps(self):
        config = small_config()
        state = warehouse.reset(config)
        out = warehouse.step(state, np.array([1, 0, 0]), np.array([4, 4, 8]), config)
        for s in (state, out.next_state):
            assert warehouse.observe_all(s, config).shape == (3, warehouse.OBS_DIM)

    def test_observe_all_rows_are_the_documented_features(self):
        config = small_config()
        out = warehouse.step(
            warehouse.reset(config), np.array([0, 1, 0]), np.array([4, 4, 8]), config
        )
        # per agent: index / (N-1), free chutes / M, own chutes / A_max, t / T, backlog / V
        expected = [
            [0.0, 0.5, 0.0, 0.25, 4 / 16],
            [0.5, 0.5, 1.0, 0.25, 0.0],
            [1.0, 0.5, 0.0, 0.25, 8 / 16],
        ]
        assert np.array_equal(warehouse.observe_all(out.next_state, config), expected)

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


def random_batch(config, k, rng, t=3):
    """A (k, N) state of feasible chutes and backlogs around V, many agents alike.

    Each episode spends at most M chutes; backlogs come from a few values
    below, at and above V (the clip), and every other episode repeats its
    predecessor's chutes.
    """
    n, cap = config.n_destinations, max(config.step_volume, 1)
    chutes = np.zeros((k, n), dtype=int)
    for row in chutes:
        budget_left = config.n_chutes
        for i in rng.permutation(n):
            row[i] = rng.integers(0, min(config.action_max, budget_left) + 1)
            budget_left -= row[i]
    chutes[1::2] = chutes[0::2][: len(chutes[1::2])]
    levels = np.array([0, 1, cap - 1, cap, cap + 1, 3 * cap])
    backlog = levels[rng.integers(0, len(levels), size=(k, n))]
    return warehouse.WarehouseState(
        t=t, chutes_assigned=chutes, recirc_backlog=backlog,
        cum_recirc=np.zeros(k, dtype=int), cum_sorted=np.zeros(k, dtype=int),
    )


def assert_groups_observe_all(state, config):
    """rows[row_of] is observe_all bitwise, and no two rows are equal."""
    rows, row_of = warehouse.observe_distinct(state, config)
    obs = warehouse.observe_all(state, config)
    assert row_of.shape == state.chutes_assigned.shape
    assert np.array_equal(rows[row_of].view(np.uint64), obs.view(np.uint64))
    assert len(np.unique(rows.view(np.uint64), axis=0)) == len(rows)
    return rows


class TestObserveDistinct:
    @pytest.mark.parametrize("config", [
        warehouse.EnvConfig(),
        warehouse.main_formulation_config(),
        warehouse.EnvConfig(step_volume=0),
        warehouse.EnvConfig(n_destinations=1, n_chutes=3, action_max=10),
        small_config(n_chutes=5, action_max=3),
    ], ids=["appendix-b", "main", "no-volume", "one-destination", "small"])
    def test_rows_rebuild_observe_all_bitwise(self, config):
        rng = stream(15, "test/observe-distinct")
        for k, t in ((1, 0), (7, 3), (180, config.episode_steps)):
            state = random_batch(config, k, rng, t)
            rows = assert_groups_observe_all(state, config)
            if k > 1 and config.n_destinations > 1:
                assert len(rows) < state.chutes_assigned.size
            # one episode's (N,) state, and a tile of it
            single = replace(state, chutes_assigned=state.chutes_assigned[0],
                             recirc_backlog=state.recirc_backlog[0], cum_recirc=0, cum_sorted=0)
            assert len(assert_groups_observe_all(single, config)) == config.n_destinations
            tiled = assert_groups_observe_all(warehouse.tile(single, 5), config)
            assert len(tiled) == config.n_destinations

    def test_backlogs_at_and_above_v_share_a_row(self):
        config = small_config()
        state = replace(warehouse.tile(warehouse.reset(config), 2),
                        recirc_backlog=np.array([[16, 17, 99], [99, 16, 17]]))
        rows, row_of = warehouse.observe_distinct(state, config)
        assert len(rows) == 3 and np.all(rows[:, 4] == 1.0)
        assert np.array_equal(row_of[0], row_of[1])

    def test_the_largest_code_space_int64_holds_is_exact(self):
        # N x (M+1) x (A_max+1) x (V+1) = 2 x 2**20 x 2**20 x 2**22 = 2**63 codes
        config = warehouse.EnvConfig(n_destinations=2, n_chutes=2**20 - 1,
                                     action_max=2**20 - 1, step_volume=2**22 - 1)
        top = config.n_chutes
        state = warehouse.WarehouseState(
            t=1,
            chutes_assigned=np.array([[top, 0], [0, top], [0, 0], [top, 0]]),
            recirc_backlog=np.array([[config.step_volume, 0], [0, 2**40], [1, 1], [2**23, 0]]),
            cum_recirc=np.zeros(4, dtype=int), cum_sorted=np.zeros(4, dtype=int),
        )
        assert len(assert_groups_observe_all(state, config)) == 6

    def test_a_code_space_beyond_int64_is_a_value_error(self):
        config = warehouse.EnvConfig(n_destinations=2, n_chutes=2**20 - 1,
                                     action_max=2**20 - 1, step_volume=2**22)
        with pytest.raises(ValueError, match=r"2 x 1048576 x 1048576 x 4194305 .*int64"):
            warehouse.observe_distinct(warehouse.reset(config), config)

    @pytest.mark.parametrize("chutes, backlog", [
        ([2, 0, 0], [0, 0, 0]),  # above A_max
        ([1, 1, 1], [0, 0, 0]),  # more than M assigned
        ([-1, 0, 0], [0, 0, 0]),
        ([0, 0, 0], [0, -1, 0]),
    ], ids=["over-a-max", "over-budget", "negative-chutes", "negative-backlog"])
    def test_a_state_out_of_range_is_a_value_error(self, chutes, backlog):
        config = small_config()
        state = replace(warehouse.reset(config), chutes_assigned=np.array(chutes),
                        recirc_backlog=np.array(backlog))
        with pytest.raises(ValueError, match="negative backlog"):
            warehouse.observe_distinct(state, config)


def one_column_apart(rng):
    """Rows that repeat, and rows that differ from a neighbour in one column only."""
    x = rng.integers(0, 3, size=(60, 5))
    x[1::4] = x[::4]
    x[2::4] = x[::4]
    x[2::4, 3] += 1
    return x


class TestDistinctKeys:
    @pytest.mark.parametrize("x", [
        one_column_apart(stream(16, "test/distinct-keys")),
        np.array([[-2**63, 2**63 - 1], [2**63 - 1, -2**63], [-2**63, 2**63 - 1],
                  [-2**63, -2**63], [2**63 - 1, 2**63 - 1]], dtype=np.int64),
        np.array([[2**64 - 1, 0, 1], [0, 2**64 - 1, 1], [2**64 - 1, 0, 1], [2**63, 0, 1]],
                 dtype=np.uint64),
        np.full((7, 4), -3, dtype=np.int32),
        np.array([[5], [-1], [5], [0], [-1]]),
        np.array([[4, 1, 4]], dtype=np.int16),
        np.empty((0, 20), dtype=np.intp),
    ], ids=["one-column-apart", "int64-extremes", "uint64", "all-equal", "one-column",
            "one-row", "no-rows"])
    def test_rows_group_as_np_unique_does(self, x):
        first, inverse = warehouse.distinct_keys(x)
        unique, _ = np.unique(x, axis=0, return_inverse=True)
        assert len(first) == len(unique)
        assert inverse.shape == (len(x),)
        assert np.array_equal(x[first][inverse].view(np.uint8), x.view(np.uint8))

    def test_rows_come_in_ascending_order_last_column_first(self):
        x = np.array([[2, 1], [1, 2], [1, 1], [2, 1]])
        first, inverse = warehouse.distinct_keys(x)
        assert x[first].tolist() == [[1, 1], [2, 1], [1, 2]]
        assert inverse.tolist() == [1, 2, 0, 1]

    @pytest.mark.parametrize("keys", [
        np.array([0.0, -0.0, 1.0]),
        np.array([[0.0, 1.0], [-0.0, 1.0]], dtype=np.float32),
        np.array([True, False]),
        np.zeros((2, 2, 2), dtype=np.int64),
    ], ids=["float-keys", "float-rows", "bool-keys", "3-d-keys"])
    def test_keys_that_are_not_integers_are_a_type_error(self, keys):
        with pytest.raises(TypeError, match="integer"):
            warehouse.distinct_keys(keys)

    def test_1_d_integer_keys_are_a_type_error(self):
        with pytest.raises(TypeError, match=r"groups rows of 2-D integers, got int64 \(3,\)"):
            warehouse.distinct_keys(np.array([3, 1, 3], dtype=np.int64))


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
        config = small_config()
        metrics = self.run_episode(
            config, np.zeros(3, dtype=int), [np.array([8, 4, 4])] * 4
        )
        assert metrics.recirc_rate == 1.0
        assert metrics.throughput == 0

    def test_rate_matches_reported_table_arithmetic(self):
        # 12,000 inducted with 68 recirculated passes is a ~0.57% rate,
        # the scale reported for the robust policies
        config = warehouse.EnvConfig(n_destinations=2, n_chutes=1, episode_steps=1,
                                     step_volume=12_000)
        metrics = self.run_episode(
            config, np.array([1, 0]), [np.array([11_932, 68])]
        )
        assert metrics.recirc_rate == pytest.approx(68 / 12_000)
        assert 0.005 < metrics.recirc_rate < 0.006
        assert metrics.throughput == 11_932
        assert metrics.recirc_amount == 68

    def test_pass_counting_with_carryover(self):
        # uncovered packages are counted once per pass through the system
        config = small_config()
        metrics = self.run_episode(
            config, np.zeros(3, dtype=int), [np.array([4, 0, 0]), np.array([4, 0, 0])]
        )
        # step 1: 4 recirc; step 2: 4 new + 4 backlog = 8 recirc
        assert metrics.recirc_amount == 12
        assert metrics.recirc_rate == 1.0

    def test_a_batch_with_an_empty_and_a_fully_recirculated_episode(self):
        config = small_config()
        rng = stream(29, "metrics-batch")
        # row 0 sees no package, row 1 opens no chute, rows 2 and 3 are ordinary
        actions = np.array([[1, 1, 0], [0, 0, 0], [1, 0, 1], [0, 1, 0]])
        inductions = rng.multinomial(16, np.full(3, 1 / 3), size=(config.episode_steps, 4))
        inductions[:, 0] = 0
        batch = warehouse.tile(warehouse.reset(config), 4)
        for induction in inductions:
            batch = warehouse.step(batch, actions, induction, config).next_state
        metrics = warehouse.episode_metrics(batch)
        assert len(metrics) == 4
        for k, got in enumerate(metrics):
            state, outcomes = warehouse.reset(config), []
            for induction in inductions[:, k]:
                outcomes.append(warehouse.step(state, actions[k], induction, config))
                state = outcomes[-1].next_state
            for expected in (summed_metrics(outcomes), warehouse.episode_metrics(state)):
                for name in ("recirc_rate", "throughput", "recirc_amount"):
                    assert getattr(got, name) == getattr(expected, name), (k, name)
                    assert type(getattr(got, name)) is type(getattr(expected, name)), (k, name)
        assert (metrics[0].recirc_rate, metrics[0].throughput, metrics[0].recirc_amount) == (
            0.0, 0, 0)
        assert metrics[1].recirc_rate == 1.0 and metrics[1].throughput == 0
        assert 0.0 < metrics[2].recirc_rate < 1.0 and 0.0 < metrics[3].recirc_rate < 1.0


class TestBatchedEpisodes:
    def test_batch_rows_equal_single_episodes(self):
        config = small_config(n_destinations=5, n_chutes=3, step_volume=30, action_max=2,
                              action_penalty=1.5)
        rng = stream(14, "batch")
        k = 4

        def random_step_inputs():
            actions = np.zeros((k, 5), dtype=int)
            for row in actions:
                row[rng.choice(5, size=2, replace=False)] = [1, 2]
            return actions, rng.multinomial(30, np.full(5, 0.2), size=k)

        # a tile of the start state, and of one episode's state after two steps
        mid = warehouse.reset(config)
        for _ in range(2):
            actions, inductions = random_step_inputs()
            mid = warehouse.step(mid, actions[0], inductions[0], config).next_state
        for start, steps in ((warehouse.reset(config), config.episode_steps), (mid, 3)):
            batch = warehouse.tile(start, k)
            assert batch == warehouse.tile(start, k) and batch.t == start.t
            singles = [start] * k
            outcomes = [[] for _ in range(k)]
            for t in range(steps):
                actions, inductions = random_step_inputs()
                obs = warehouse.observe_all(batch, config)
                assert obs.shape == (k, 5, warehouse.OBS_DIM)
                out = warehouse.step(batch, actions, inductions, config)
                for i in range(k):
                    assert np.array_equal(obs[i], warehouse.observe_all(singles[i], config))
                    single = warehouse.step(singles[i], actions[i], inductions[i], config)
                    for name in ("rewards", "sorted", "recirculated"):
                        assert np.array_equal(getattr(out, name)[i], getattr(single, name)), name
                    assert warehouse.trace_record(t, actions[i], inductions[i], out, i) == (
                        warehouse.trace_record(t, actions[i], inductions[i], single)
                    )
                    nxt = single.next_state
                    assert np.array_equal(out.next_state.chutes_assigned[i], nxt.chutes_assigned)
                    assert np.array_equal(out.next_state.recirc_backlog[i], nxt.recirc_backlog)
                    assert out.next_state.cum_recirc[i] == nxt.cum_recirc
                    assert out.next_state.cum_sorted[i] == nxt.cum_sorted
                    outcomes[i].append(single)
                    singles[i] = nxt
                batch = out.next_state
            assert batch.t == start.t + steps
            assert warehouse.episode_metrics(batch) == [
                warehouse.episode_metrics(single) for single in singles
            ]
            if start.t == 0:
                assert warehouse.episode_metrics(batch) == [summed_metrics(o) for o in outcomes]
                assert warehouse.episode_metrics(singles[0]) == summed_metrics(outcomes[0])
        assert type(singles[0].cum_recirc) is int and type(singles[0].cum_sorted) is int

    def test_a_tile_is_read_only_and_its_source_is_never_written(self):
        config = small_config()
        state = warehouse.step(
            warehouse.reset(config), np.array([0, 1, 0]), np.array([4, 4, 8]), config
        ).next_state
        before = warehouse.clone_state(state)
        batch = warehouse.tile(state, 3)
        assert batch.recirc_backlog.shape == (3, 3) and batch.cum_recirc.shape == (3,)
        for name in ("chutes_assigned", "recirc_backlog", "cum_recirc", "cum_sorted"):
            assert not getattr(batch, name).flags.writeable, name
        warehouse.step(batch, np.tile([1, 0, 1], (3, 1)), np.full((3, 3), 5), config)
        assert state == before

    def test_batched_step_checks_each_row(self):
        config = small_config()
        state = warehouse.tile(warehouse.reset(config), 2)
        with pytest.raises(ValueError, match="infeasible joint action"):
            warehouse.step(state, np.array([[1, 0, 0], [1, 1, 1]]), np.zeros((2, 3)), config)
        with pytest.raises(ValueError, match="one entry per destination"):
            warehouse.step(state, np.zeros(3), np.zeros(3), config)

    def test_tile_rejects_empty_batch(self):
        with pytest.raises(ValueError):
            warehouse.tile(warehouse.reset(small_config()), 0)


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
