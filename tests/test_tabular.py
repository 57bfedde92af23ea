import numpy as np
import pytest

from drsort import tabular
from drsort.seeding import stream
from drsort.verify import random_mdp

# A 2-state, 2-action, 2-group MDP small enough to back up by hand; every
# value below is a dyadic rational, so the backups are exact in floating point.
REWARDS = np.array([
    [[1.0, 0.0], [2.0, -1.0]],  # group 0
    [[0.0, 3.0], [1.0, 1.0]],  # group 1
])
KERNEL_0 = np.array([
    [[1.0, 0.0], [0.5, 0.5]],
    [[0.0, 1.0], [0.25, 0.75]],
])
KERNEL_1 = np.array([
    [[0.0, 1.0], [1.0, 0.0]],
    [[0.5, 0.5], [1.0, 0.0]],
])
Q = np.array([[1.0, 4.0], [2.0, 0.0]])  # greedy values (4, 2)
GAMMA = 0.5


def shared_mdp():
    return tabular.TabularMdp(rewards=REWARDS, transitions=KERNEL_0, gamma=GAMMA)


def per_group_mdp():
    return tabular.TabularMdp(
        rewards=REWARDS, transitions=np.stack([KERNEL_0, KERNEL_1]), gamma=GAMMA
    )


class TestTabularMdp:
    def test_accepts_shared_and_per_group_kernels(self):
        shared, per_group = shared_mdp(), per_group_mdp()
        assert (shared.n_states, shared.n_actions) == (per_group.n_states, per_group.n_actions)
        assert (shared.per_group_transitions, per_group.per_group_transitions) == (False, True)

    @pytest.mark.parametrize(
        "rewards, transitions, message",
        [
            (REWARDS[0], KERNEL_0, "rewards must have shape"),
            (REWARDS, KERNEL_0[0], "transitions have shape"),
            (REWARDS, np.stack([KERNEL_0] * 3), "transitions have shape"),
            (REWARDS, np.ones((2, 2, 3)) / 3, "transitions have shape"),
            (REWARDS[:, :, :1], KERNEL_0, "transitions have shape"),
        ],
        ids=["2-d-rewards", "2-d-kernel", "kernel-per-3-groups", "3-next-states", "1-action"],
    )
    def test_rejects_bad_shapes(self, rewards, transitions, message):
        with pytest.raises(ValueError, match=message):
            tabular.TabularMdp(rewards=rewards, transitions=transitions, gamma=GAMMA)

    @pytest.mark.parametrize("gamma", [0.0, 1.0, -0.5, 1.5])
    def test_rejects_gamma_outside_the_open_unit_interval(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            tabular.TabularMdp(rewards=REWARDS, transitions=KERNEL_0, gamma=gamma)

    @pytest.mark.parametrize("per_group", [False, True])
    def test_rejects_rows_that_do_not_sum_to_one(self, per_group):
        transitions = np.stack([KERNEL_0, KERNEL_1]) if per_group else KERNEL_0.copy()
        transitions[..., 1, 0, :] = (0.5, 0.4)
        with pytest.raises(ValueError, match="sum to 1"):
            tabular.TabularMdp(rewards=REWARDS, transitions=transitions, gamma=GAMMA)


class TestBellmanOperators:
    def test_shared_kernel_backup_by_hand(self):
        # min_g R = [[0, 0], [1, -1]]; gamma * P @ (4, 2) = [[2, 1.5], [1, 1.25]]
        expected = np.array([[2.0, 1.5], [2.0, 0.25]])
        assert np.array_equal(tabular.dr_bellman_apply(shared_mdp(), Q), expected)
        assert np.array_equal(tabular.approx_bellman_apply(shared_mdp(), Q), expected)

    def test_per_group_kernel_backup_by_hand(self):
        # gamma * P_1 @ (4, 2) = [[1, 2], [1.5, 2]]; T takes each term's minimum
        # over groups, U the minimum of their sums
        robust = np.array([[1.0, 1.5], [2.0, 0.25]])
        joint = np.array([[1.0, 1.5], [2.5, 0.25]])
        assert np.array_equal(tabular.dr_bellman_apply(per_group_mdp(), Q), robust)
        assert np.array_equal(tabular.approx_bellman_apply(per_group_mdp(), Q), joint)

    def test_joint_minimum_bounds_the_robust_backup(self):
        rng = stream(3, "test/tabular")
        strict = 0
        for per_group in (False, True):
            for _ in range(200):
                mdp = random_mdp(rng, per_group=per_group)
                q = rng.normal(size=(mdp.n_states, mdp.n_actions))
                upper = tabular.approx_bellman_apply(mdp, q)
                lower = tabular.dr_bellman_apply(mdp, q)
                if per_group:
                    assert np.all(upper >= lower)
                    strict += int(np.any(upper > lower))
                else:
                    assert np.array_equal(upper, lower)
        assert strict > 0


class TestWorstCaseReward:
    def test_minimum_over_any_number_of_groups(self):
        rewards = [3.0, -1.5, 2.0, 0.0, -1.0, 4.0, 7.0]
        assert tabular.worst_case_reward(rewards) == -1.5
        assert tabular.worst_case_reward([2.5]) == 2.5

    def test_rejects_an_empty_input(self):
        with pytest.raises(ValueError, match="at least one"):
            tabular.worst_case_reward([])


class TestSimplexMinOracle:
    def test_attains_the_vertex_minimum(self):
        rewards = np.array([0.5, -2.0, 1.0, -0.5])
        assert tabular.simplex_min_oracle(rewards, resolution=4) == -2.0
        oracle = tabular.simplex_min_oracle(rewards, rng=stream(4, "test/simplex"))
        assert oracle == -2.0

    @pytest.mark.parametrize("rng", [None, stream(5, "test/simplex")], ids=["grid", "dirichlet"])
    def test_rejects_an_empty_input(self, rng):
        with pytest.raises(ValueError, match="at least one"):
            tabular.simplex_min_oracle([], rng=rng)

    def test_rejects_more_than_five_groups(self):
        with pytest.raises(ValueError, match="m <= 5"):
            tabular.simplex_min_oracle(np.zeros(6))
