import math

import numpy as np
import pytest

from drsort import budget
from drsort.seeding import stream


class TestSolveBudgetArgmax:
    def test_zero_budget_forces_all_zero(self):
        rng = stream(0, "b0")
        values = rng.normal(size=(5, 3))
        assert np.array_equal(budget.solve_budget_argmax(values, 0), np.zeros(5, dtype=int))

    def test_slack_budget_gives_row_argmax(self):
        rng = stream(1, "slack")
        values = rng.normal(size=(4, 4))
        action = budget.solve_budget_argmax(values, 4 * 3)
        assert np.array_equal(action, values.argmax(axis=1))

    def test_matches_brute_force_on_random_instances(self):
        rng = stream(2, "opt")
        for _ in range(200):
            n = int(rng.integers(1, 7))
            a_max = int(rng.integers(1, 5))
            m = int(rng.integers(0, 9))
            values = rng.normal(size=(n, a_max + 1))
            dp_action = budget.solve_budget_argmax(values, m)
            bf_action = budget.brute_force_argmax(values, m)
            assert np.array_equal(dp_action, bf_action)
            assert budget.max_joint_value(values, m) == budget.joint_value(values, bf_action)

    def test_feasibility(self):
        rng = stream(3, "feas")
        for _ in range(100):
            values = rng.normal(size=(6, 3))
            m = int(rng.integers(0, 7))
            action = budget.solve_budget_argmax(values, m)
            assert action.sum() <= m
            assert np.all(action >= 0) and np.all(action <= 2)

    def test_objective_nondecreasing_in_budget(self):
        rng = stream(4, "mono")
        values = rng.normal(size=(5, 4))
        optima = [budget.max_joint_value(values, m) for m in range(0, 16)]
        assert all(b >= a for a, b in zip(optima, optima[1:]))

    def test_row_constant_shift_keeps_argmax(self):
        rng = stream(5, "shift")
        for _ in range(50):
            values = rng.normal(size=(4, 3))
            m = 4
            base_action = budget.solve_budget_argmax(values, m)
            base_value = budget.max_joint_value(values, m)
            shifted = values.copy()
            shifted[2] += 1.75
            assert np.array_equal(budget.solve_budget_argmax(shifted, m), base_action)
            assert budget.max_joint_value(shifted, m) == pytest.approx(base_value + 1.75, abs=1e-9)

    def test_nonfinite_table_rejected(self):
        values = np.array([[0.0, np.inf]])
        with pytest.raises(ValueError, match="non-finite"):
            budget.solve_budget_argmax(values, 1)


class TestTieBreaking:
    def test_all_equal_table_yields_all_zero(self):
        values = np.ones((4, 2))
        assert np.array_equal(budget.solve_budget_argmax(values, 3), np.zeros(4, dtype=int))
        assert np.array_equal(budget.brute_force_argmax(values, 3), np.zeros(4, dtype=int))

    def test_equal_gains_give_lexicographically_smallest_action(self):
        # two agents tied on an integer gain, one chute: the later agent wins
        values = np.array([[1.0, 3.0], [2.0, 4.0]])
        expected = np.array([0, 1])
        assert np.array_equal(budget.solve_budget_argmax(values, 1), expected)
        assert np.array_equal(budget.brute_force_argmax(values, 1), expected)

    def test_within_row_ties_prefer_smaller_action(self):
        values = np.array([[2.0, 2.0, 2.0], [0.0, 1.0, 1.0]])
        expected = np.array([0, 1])
        assert np.array_equal(budget.solve_budget_argmax(values, 4), expected)
        assert np.array_equal(budget.brute_force_argmax(values, 4), expected)

    def test_top_k_marginal_gains(self):
        # N=5 binary actions: the two largest gains get the chutes
        values = np.zeros((5, 2))
        values[:, 1] = [0.5, 3.0, 1.0, 2.5, -1.0]
        assert np.array_equal(budget.solve_budget_argmax(values, 2), [0, 1, 0, 1, 0])


class TestBatchedArgmax:
    @staticmethod
    def tie_heavy_stack(seed, n_tables, n_agents, a_max):
        return stream(seed, "stack").integers(0, 3, size=(n_tables, n_agents, a_max + 1)).astype(float)

    def test_rows_match_brute_force_on_tie_heavy_tables(self):
        for a_max in (1, 2, 3):
            stack = self.tie_heavy_stack(a_max, 40, 4, a_max)
            for m in range(0, 4 * a_max + 2):
                actions = budget.solve_budget_argmax(stack, m)
                assert actions.shape == (40, 4)
                for table, action in zip(stack, actions):
                    assert np.array_equal(action, budget.brute_force_argmax(table, m))

    def test_single_table_stack_matches_2d_call(self):
        rng = stream(10, "k1")
        for a_max in (1, 3):
            values = rng.normal(size=(6, a_max + 1))
            for m in (0, 2, 5, 30):
                stacked = budget.solve_budget_argmax(values[None], m)
                assert stacked.shape == (1, 6)
                assert np.array_equal(stacked[0], budget.solve_budget_argmax(values, m))

    def test_dp_values_equal_max_joint_value_batch(self):
        rng = stream(11, "dpvals")
        stacks = [rng.normal(size=(25, 7, 4)), self.tie_heavy_stack(12, 25, 7, 3)]
        for stack in stacks:
            for m in (0, 3, 10, 21, 25):
                actions = budget.solve_budget_argmax(stack, m)
                values = budget.max_joint_value_batch(stack, m)
                for table, action, value in zip(stack, actions, values):
                    assert value == budget.joint_value(table, action)
                    assert value == budget.max_joint_value(table, m)

    def test_a_stack_of_100_main_formulation_tables_matches_the_2d_calls(self):
        # the shape main-dp evaluation solves: ~100 episodes x 20 agents x 11 levels
        rng = stream(13, "stack100")
        stack = np.round(rng.normal(size=(100, 20, 11)), 1)
        stack[:, :, 6] = stack[:, :, 5]  # tied levels within an agent
        stack[:, 9] = stack[:, 4]  # tied agents
        stack[50:] = stack[:50]  # repeated tables
        for m in (0, 3, 10, 25):
            actions = budget.solve_budget_argmax(stack, m)
            values = budget.max_joint_value_batch(stack, m)
            for table, action, value in zip(stack, actions, values):
                assert np.array_equal(action, budget.solve_budget_argmax(table, m))
                assert value.tobytes() == np.float64(budget.max_joint_value(table, m)).tobytes()
                assert value == budget.joint_value(table, action)

    def test_zero_agents_give_an_empty_action_of_value_zero(self):
        for a_max in (1, 3):
            assert budget.solve_budget_argmax(np.zeros((0, a_max + 1)), 2).shape == (0,)
            assert budget.solve_budget_argmax(np.zeros((4, 0, a_max + 1)), 2).shape == (4, 0)
            assert budget.max_joint_value_batch(np.zeros((4, 0, a_max + 1)), 2).tolist() == [0.0] * 4
        assert budget.max_joint_value(np.zeros((0, 4)), 2) == 0.0

    def test_rejects_other_ranks(self):
        with pytest.raises(ValueError, match="2-D"):
            budget.solve_budget_argmax(np.zeros((1, 2, 3, 2)), 1)
        with pytest.raises(ValueError, match="2-D"):
            budget.max_joint_value(np.zeros((2, 3, 2)), 1)


def gather_suffix_table(tables, budget_limit):
    """The suffix DP as a per-agent gather, an add and a max: the solver's earlier algorithm."""
    n_batch, n_agents, n_actions = tables.shape
    pad = min(n_actions - 1, budget_limit)
    levels = tables[:, :, : pad + 1].transpose(1, 2, 0)
    rest = pad + np.arange(budget_limit + 1)[None, :] - np.arange(pad + 1)[:, None]
    dp = np.full((n_agents + 1, pad + budget_limit + 1, n_batch), -np.inf)
    dp[n_agents, pad:] = 0.0
    for i in range(n_agents - 1, -1, -1):
        cand = dp[i + 1][rest]
        cand += levels[i, :, None]
        np.maximum.reduce(cand, axis=0, out=dp[i, pad:])
    return dp, levels


def gather_argmax(tables, budget_limit):
    """(actions, values) of a stack by the gather DP and a 2-D fancy-index reconstruction."""
    dp, levels = gather_suffix_table(tables, budget_limit)
    n_batch, n_agents, _ = tables.shape
    batch = np.arange(n_batch)
    level = np.arange(levels.shape[1])[:, None]
    action = np.zeros((n_batch, n_agents), dtype=int)
    col = np.full(n_batch, dp.shape[1] - 1)
    for i in range(n_agents):
        cand = dp[i + 1][col - level, batch] + levels[i]
        action[:, i] = (cand == dp[i, col, batch]).argmax(axis=0)
        col -= action[:, i]
    return action, dp[0, -1]


class TestAgainstTheGatherDp:
    """The strided-window solver equals the gather DP byte for byte at the main formulation's size.

    N=20 agents with 11 levels is far beyond brute force (11**20 joint
    actions), so the reference is the earlier algorithm itself.
    """

    @staticmethod
    def stacks(n_tables):
        rng = stream(14, "test/gather-dp", n_tables)
        tie_heavy = rng.integers(0, 3, size=(n_tables, 20, 11)).astype(float)
        float32 = rng.normal(size=(n_tables, 20, 11)).astype(np.float32)
        float32[:, :, 7] = float32[:, :, 6]  # tied levels within an agent
        float32[:, 3] = float32[:, 12]  # tied agents
        return {"tie-heavy": tie_heavy, "float32": float32}

    @pytest.mark.parametrize("n_tables", [1, 2, 8, 64])
    def test_actions_and_values_equal_the_gather_dp(self, n_tables):
        for name, stack in self.stacks(n_tables).items():
            wide = stack.astype(float)
            for m in range(13):
                want_action, want_value = gather_argmax(wide, m)
                action = budget.solve_budget_argmax(stack, m)
                assert action.dtype == want_action.dtype, (name, m)
                assert np.array_equal(action, want_action), (name, m)
                value = budget.max_joint_value_batch(stack, m)
                assert value.tobytes() == want_value.tobytes(), (name, m)
                if n_tables == 1:
                    assert np.array_equal(budget.solve_budget_argmax(stack[0], m), want_action[0])
                    assert budget.max_joint_value(stack[0], m) == want_value[0]

    def test_suffix_tables_equal_the_gather_dp(self):
        for stack in self.stacks(8).values():
            for m in (0, 1, 5, 10, 12):
                dp, levels, windows = budget._suffix_table(stack.astype(float), m)
                want_dp, want_levels = gather_suffix_table(stack.astype(float), m)
                assert dp.tobytes() == want_dp.tobytes()
                assert np.array_equal(levels, want_levels)
                pad = levels.shape[1] - 1
                rest = pad + np.arange(m + 1)[None, :] - np.arange(pad + 1)[:, None]
                assert np.array_equal(windows, dp[:, rest])  # dp[i, pad+b-a, k]
                assert not windows.flags.writeable
                assert np.shares_memory(windows, dp)


class TestDegenerateStacks:
    """Both reconstructions at the edges of the stack's shape, against per-table brute force."""

    @pytest.mark.parametrize("shape, budget_limit", [
        ((0, 4, 4), 3),
        ((3, 0, 4), 2),
        ((3, 1, 4), 0),
        ((3, 4, 4), 13),
    ], ids=["no-tables", "no-agents", "one-agent-budget-0", "budget-above-n-times-a"])
    def test_both_reconstructions_equal_brute_force(self, shape, budget_limit):
        stack = stream(15, "test/degenerate", *shape).integers(0, 3, size=shape).astype(float)
        want = np.zeros(shape[:2], dtype=int)
        for k, table in enumerate(stack):
            want[k] = budget.brute_force_argmax(table, budget_limit)
        assert np.array_equal(budget._stack_choices(stack, budget_limit), want)
        for table, action in zip(stack, want):
            assert np.array_equal(budget._single_table_choices(table[None], budget_limit), action)
        assert np.array_equal(budget.solve_budget_argmax(stack, budget_limit), want)


class TestNegativeBudget:
    @pytest.mark.parametrize(
        "call",
        [
            lambda m: budget.solve_budget_argmax(np.zeros((3, 4)), m),
            lambda m: budget.max_joint_value(np.zeros((3, 4)), m),
            lambda m: budget.max_joint_value_batch(np.zeros((2, 3, 4)), m),
            lambda m: budget.max_joint_value_batch(np.zeros((2, 3, 2)), m),
            lambda m: budget.sample_feasible_uniform(3, 2, m, stream(0, "test/negative")),
        ],
        ids=["solve", "max_joint_value", "max_joint_value_batch", "max_joint_value_batch-binary",
             "sample_feasible_uniform"],
    )
    def test_is_one_value_error(self, call):
        with pytest.raises(ValueError, match="^budget must be nonnegative$"):
            call(-1)


class TestBruteForce:
    def test_single_agent_respects_budget(self):
        values = np.array([[0.0, 5.0, 9.0, 11.0]])
        assert np.array_equal(budget.brute_force_argmax(values, 2), [2])

    def test_rejects_huge_instances(self):
        values = np.zeros((30, 4))
        with pytest.raises(ValueError, match="too large"):
            budget.brute_force_argmax(values, 3)


class TestBatchValues:
    def test_matches_scalar_dp(self):
        rng = stream(6, "batch")
        for a_max in (1, 2, 3):
            tables = rng.normal(size=(20, 5, a_max + 1))
            got = budget.max_joint_value_batch(tables, 4)
            want = [budget.max_joint_value(tables[i], 4) for i in range(20)]
            assert got == pytest.approx(want, abs=1e-9)

    def test_budget_larger_than_agents(self):
        rng = stream(7, "batch2")
        tables = rng.normal(size=(8, 3, 2))
        got = budget.max_joint_value_batch(tables, 11)
        want = [budget.max_joint_value(tables[i], 11) for i in range(8)]
        assert got == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("a_max", [1, 3])
    def test_budgets_around_the_agent_count(self, a_max):
        rng = stream(8, "batch3", a_max)
        n_agents = 5
        tables = rng.normal(size=(10, n_agents, a_max + 1))
        for budget_limit in (0, 1, n_agents - 1, n_agents, n_agents + 1):
            got = budget.max_joint_value_batch(tables, budget_limit)
            want = [budget.max_joint_value(tables[i], budget_limit) for i in range(10)]
            assert got == pytest.approx(want, abs=1e-9)


def int64_sampler_oracle(n_agents, a_max, budget_limit, rng):
    """The sequential sampler over int64 counts, valid while the counts fit."""
    counts = np.zeros((n_agents + 1, budget_limit + 1), dtype=np.int64)
    counts[n_agents] = 1
    for i in range(n_agents - 1, -1, -1):
        for b in range(budget_limit + 1):
            counts[i, b] = sum(counts[i + 1, b - a] for a in range(min(a_max, b) + 1))
    action = np.zeros(n_agents, dtype=int)
    remaining = budget_limit
    for i in range(n_agents):
        pick = rng.integers(counts[i, remaining])
        acc = 0
        for a in range(min(a_max, remaining) + 1):
            acc += counts[i + 1, remaining - a]
            if pick < acc:
                action[i] = a
                remaining -= a
                break
    return action


class TestUniformFeasibleSampling:
    def test_counts_match_enumeration(self):
        import itertools

        counts = budget.count_feasible(3, 2, 4)
        brute = sum(
            1 for a in itertools.product(range(3), repeat=3) if sum(a) <= 4
        )
        assert counts[0, 4] == brute

    def test_samples_feasible(self):
        rng = stream(8, "uni")
        for _ in range(200):
            action = budget.sample_feasible_uniform(6, 2, 4, rng)
            assert action.sum() <= 4
            assert np.all((action >= 0) & (action <= 2))

    def test_uniform_over_small_space(self):
        chisquare = pytest.importorskip("scipy.stats").chisquare

        rng = stream(9, "chi")
        tallies = {}
        n_draws = 14_000
        for _ in range(n_draws):
            action = tuple(budget.sample_feasible_uniform(3, 1, 2, rng))
            tallies[action] = tallies.get(action, 0) + 1
        assert len(tallies) == 7  # C(3,0)+C(3,1)+C(3,2)
        stat, p = chisquare(list(tallies.values()))
        assert p > 0.01

    def test_counts_beyond_int64_are_exact(self):
        counts = budget.count_feasible(64, 1, 32)
        assert counts[0, 32] == sum(math.comb(64, k) for k in range(33))
        assert counts[0, 32] > np.iinfo(np.int64).max

    def test_feasible_draw_when_counts_exceed_int64(self):
        rng = stream(10, "big")
        for _ in range(5):
            action = budget.sample_feasible_uniform(100, 10, 50, rng)
            assert action.shape == (100,)
            assert action.sum() <= 50
            assert np.all((action >= 0) & (action <= 10))

    def test_draws_beyond_int64_are_uniform(self):
        total = 3 * 2**64 + 5
        rng = stream(12, "bigdraw")
        draws = [budget._uniform_below(total, rng) for _ in range(4000)]
        assert all(0 <= d < total for d in draws)
        # mean and the share below total/3 of a uniform draw, each within ~4 sigma
        assert abs(np.mean([d / total for d in draws]) - 0.5) < 0.02
        assert abs(np.mean([d < total // 3 for d in draws]) - 1 / 3) < 0.03

    def test_int64_range_draws_follow_the_generator_stream(self):
        for n, a_max, m in ((20, 1, 10), (20, 10, 10), (7, 3, 9)):
            ours, oracle = stream(11, "compat"), stream(11, "compat")
            for _ in range(30):
                assert np.array_equal(
                    budget.sample_feasible_uniform(n, a_max, m, ours),
                    int64_sampler_oracle(n, a_max, m, oracle),
                )
