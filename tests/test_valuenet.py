import numpy as np
import pytest

from drsort import budget, training, valuenet
from drsort.seeding import stream
from drsort.verify import max_relative_gradient_error


def naive_forward(params, x):
    """Independent re-implementation of the forward pass."""
    h = np.asarray(x, dtype=float)
    for layer in range(params.n_layers):
        pre = np.empty(params.layer_dims[layer + 1])
        for j in range(params.layer_dims[layer + 1]):
            acc = params.biases[layer][j]
            for i in range(params.layer_dims[layer]):
                acc += h[i] * params.weights[layer][i, j]
            pre[j] = acc
        h = np.maximum(pre, 0.0) if layer < params.n_layers - 1 else pre
    return h


def action_onehot(action_value, a_max):
    if not 0 <= action_value <= a_max:
        raise ValueError("action value out of range")
    onehot = np.zeros(a_max + 1)
    onehot[action_value] = 1.0
    return onehot


def local_q(params, observation, action_value, a_max):
    """Shared Q' of one agent's observation and action, as a one-row forward.

    Builds its input row by concatenation, independently of `valuenet.q_inputs`.
    """
    row = np.concatenate([observation, action_onehot(action_value, a_max)])
    return float(valuenet.mlp_forward(params, row[None, :])[0, 0])


def vdn_joint_q(params, observations, actions, a_max):
    """Joint value: the sum of local values, left to right by agent index."""
    total = 0.0
    for i in range(observations.shape[0]):
        total = total + local_q(params, observations[i], int(actions[i]), a_max)
    return total


class TestMlpForward:
    def test_zero_net_outputs_zero(self):
        params = valuenet.init_mlp([3, 4, 2], stream(0, "z"))
        for w in params.weights:
            w[:] = 0.0
        assert np.array_equal(valuenet.mlp_forward(params, np.ones(3)), np.zeros(2))

    def test_identity_single_layer(self):
        params = valuenet.init_mlp([3, 3], stream(0, "i"))
        params.weights[0][:] = np.eye(3)
        params.biases[0][:] = 0.0
        x = np.array([0.3, -1.2, 2.0])
        assert np.array_equal(valuenet.mlp_forward(params, x), x)

    def test_matches_naive_oracle(self):
        rng = stream(1, "naive")
        for _ in range(10):
            params = valuenet.init_mlp([4, 6, 5, 2], rng)
            x = rng.normal(size=4)
            got = valuenet.mlp_forward(params, x)
            assert got == pytest.approx(naive_forward(params, x), abs=1e-12)

    def test_batch_matches_single(self):
        rng = stream(2, "batch")
        params = valuenet.init_mlp([4, 8, 1], rng)
        xs = rng.normal(size=(6, 4))
        batched = valuenet.mlp_forward(params, xs)
        for k in range(6):
            assert batched[k] == pytest.approx(valuenet.mlp_forward(params, xs[k]), abs=1e-12)

    def test_dimension_mismatch_raises(self):
        params = valuenet.init_mlp([4, 2], stream(0, "d"))
        with pytest.raises(ValueError, match="dimension"):
            valuenet.mlp_forward(params, np.ones(5))


class TestGradientStep:
    def test_zero_gradient_leaves_params_unchanged(self):
        for kind in ("sgd", "adam"):
            params = valuenet.init_mlp([3, 4, 1], stream(3, "zg"))
            before = [w.copy() for w in params.weights]
            opt = valuenet.Optimizer(kind=kind, learning_rate=0.1)
            out, cache = valuenet.mlp_forward_cached(params, np.ones((2, 3)))
            valuenet.mlp_gradient_step(params, cache, np.zeros_like(out), opt)
            for w, w0 in zip(params.weights, before):
                assert np.array_equal(w, w0)

    def test_single_weight_sgd_matches_hand_calculus(self):
        # scalar net y = w*x, loss L = (y - t)^2, dL/dw = 2(y-t)x
        params = valuenet.init_mlp([1, 1], stream(4, "sw"))
        params.weights[0][:] = 1.5
        params.biases[0][:] = 0.0
        x, target, lr = 2.0, 1.0, 0.05
        out, cache = valuenet.mlp_forward_cached(params, np.array([x]))
        grad_out = np.array([2.0 * (out[0] - target)])
        opt = valuenet.Optimizer(kind="sgd", learning_rate=lr)
        valuenet.mlp_gradient_step(params, cache, grad_out, opt)
        y = 1.5 * x
        expected = 1.5 - lr * 2.0 * (y - target) * x
        assert params.weights[0][0, 0] == pytest.approx(expected, abs=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = stream(5, "fd")
        for dims in ([3, 5, 1], [4, 8, 8, 2], [2, 16, 3]):
            params = valuenet.init_mlp(dims, rng)
            assert max_relative_gradient_error(params, rng) < 1e-4

    def test_adam_moves_toward_target(self):
        rng = stream(6, "adam")
        params = valuenet.init_mlp([2, 8, 1], rng)
        opt = valuenet.Optimizer(kind="adam", learning_rate=1e-2)
        xs = rng.normal(size=(16, 2))
        targets = (xs[:, :1] * 0.5 - 0.25)
        losses = []
        for _ in range(300):
            out, cache = valuenet.mlp_forward_cached(params, xs)
            err = out - targets
            losses.append(float(np.mean(err**2)))
            valuenet.mlp_gradient_step(params, cache, 2 * err / len(xs), opt)
        assert losses[-1] < 0.02 * losses[0]

    def test_unknown_optimizer_rejected(self):
        params = valuenet.init_mlp([2, 1], stream(0, "uo"))
        opt = valuenet.Optimizer(kind="newton")
        out, cache = valuenet.mlp_forward_cached(params, np.ones((1, 2)))
        with pytest.raises(ValueError, match="optimizer"):
            valuenet.mlp_gradient_step(params, cache, np.ones_like(out), opt)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_output_layer_backprop_equals_the_matmul(self, dtype):
        rng = stream(21, "outer")
        params = valuenet.init_mlp([7, 64, 64, 1], rng, dtype=dtype)
        out, cache = valuenet.mlp_forward_cached(params, rng.normal(size=(1280, 7)))
        grad_out = rng.normal(size=out.shape).astype(dtype)
        grads_w, _ = valuenet.mlp_backward(params, cache, grad_out)
        # the last hidden layer's weight gradient, through the BLAS outer product
        grad = (grad_out @ params.weights[2].T) * (cache[2] > 0.0)
        assert np.array_equal(grads_w[1], cache[1].T @ grad)


class TestQInputs:
    def test_rows_are_built_in_the_requested_dtype(self):
        rng = stream(22, "rows")
        obs = rng.uniform(size=(6, valuenet.OBS_DIM))
        actions = rng.integers(0, 4, size=6)
        wide = valuenet.q_inputs(obs, actions, 3)
        narrow = valuenet.q_inputs(obs, actions, 3, np.float32)
        assert wide.dtype == np.float64 and narrow.dtype == np.float32
        assert np.array_equal(narrow, wide.astype(np.float32))


class TestSharedLocalQ:
    def setup_method(self):
        self.a_max = 2
        self.params = valuenet.init_mlp(valuenet.default_q_dims(self.a_max, (8, 8)), stream(7, "q"))

    def test_weight_sharing_identical_inputs(self):
        obs = np.linspace(0, 1, valuenet.OBS_DIM)
        assert local_q(self.params, obs, 1, self.a_max) == local_q(
            self.params, obs, 1, self.a_max
        )

    def test_outputs_finite(self):
        rng = stream(8, "fin")
        for _ in range(20):
            obs = rng.uniform(size=valuenet.OBS_DIM)
            a = int(rng.integers(self.a_max + 1))
            assert np.isfinite(local_q(self.params, obs, a, self.a_max))

    def test_vdn_joint_is_sum_of_locals(self):
        rng = stream(9, "vdn")
        obs = rng.uniform(size=(4, valuenet.OBS_DIM))
        actions = np.array([0, 2, 1, 0])
        joint = vdn_joint_q(self.params, obs, actions, self.a_max)
        total = 0.0
        for i in range(4):
            total = total + local_q(self.params, obs[i], int(actions[i]), self.a_max)
        assert joint == total  # same left-to-right float summation

    def test_single_agent_equals_local(self):
        rng = stream(10, "one")
        obs = rng.uniform(size=(1, valuenet.OBS_DIM))
        assert vdn_joint_q(self.params, obs, np.array([1]), self.a_max) == pytest.approx(
            local_q(self.params, obs[0], 1, self.a_max), abs=1e-12
        )

    def test_permuting_identical_agents_keeps_joint_value(self):
        obs = np.tile(np.linspace(0, 1, valuenet.OBS_DIM), (2, 1))
        forward = vdn_joint_q(self.params, obs, np.array([0, 2]), self.a_max)
        reverse = vdn_joint_q(self.params, obs, np.array([2, 0]), self.a_max)
        assert forward == pytest.approx(reverse, abs=1e-12)

    def test_action_value_table_matches_local_q(self):
        rng = stream(11, "tab")
        obs = rng.uniform(size=(3, valuenet.OBS_DIM))
        table = valuenet.action_value_table(self.params, obs, self.a_max)
        for i in range(3):
            for a in range(self.a_max + 1):
                assert table[i, a] == pytest.approx(
                    local_q(self.params, obs[i], a, self.a_max), abs=1e-12
                )

    def test_stacked_tables_match_single_tables(self):
        # 150 x 5 agents x 3 levels spans more than one forward block
        obs = stream(12, "stack").uniform(size=(150, 5, valuenet.OBS_DIM))
        assert obs[..., 0].size * (self.a_max + 1) > valuenet.FORWARD_BLOCK_ROWS
        tables = valuenet.action_value_table(self.params, obs, self.a_max)
        actions = valuenet.greedy_actions(self.params, obs, self.a_max, 4)
        assert tables.shape == (150, 5, self.a_max + 1)
        for k in range(150):
            np.testing.assert_allclose(
                tables[k], valuenet.action_value_table(self.params, obs[k], self.a_max),
                rtol=1e-12, atol=1e-12,
            )
            assert np.array_equal(
                actions[k], valuenet.greedy_actions(self.params, obs[k], self.a_max, 4)
            )

    def test_action_onehot_bounds(self):
        with pytest.raises(ValueError):
            action_onehot(3, 2)


class TestPositionIndependence:
    """A table entry depends on its observation row only, not on N, K or its position."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("a_max", [1, 10])
    @pytest.mark.parametrize("n_agents", [21, 22, 23])
    def test_lockstep_equals_per_episode_calls(self, n_agents, a_max, dtype):
        rng = stream(23, f"test/position/{n_agents}/{a_max}")
        params = valuenet.init_mlp(valuenet.default_q_dims(a_max), rng, dtype=dtype)
        obs = rng.uniform(size=(7, n_agents, valuenet.OBS_DIM))
        budget_limit = n_agents // 2
        tables = valuenet.action_value_table(params, obs, a_max)
        actions = valuenet.greedy_actions(params, obs, a_max, budget_limit)
        for k in range(len(obs)):
            assert np.array_equal(tables[k], valuenet.action_value_table(params, obs[k], a_max))
            assert np.array_equal(
                actions[k], valuenet.greedy_actions(params, obs[k], a_max, budget_limit)
            )


def repeated_observations(rng, n_batch, n_agents):
    """Agent-indexed observations whose other features take three levels: many repeated rows."""
    obs = np.empty((n_batch, n_agents, valuenet.OBS_DIM))
    obs[..., 0] = np.arange(n_agents) / (n_agents - 1)
    obs[..., 1:] = rng.integers(0, 3, size=(n_batch, n_agents, valuenet.OBS_DIM - 1)) / 2
    # every third episode repeats its predecessor, so whole table stacks repeat too
    obs[2::3] = obs[1::3][: len(obs[2::3])]
    return obs


class TestDedupe:
    def test_distinct_rows_rebuild_the_input_bitwise(self):
        x = repeated_observations(stream(24, "rows"), 30, 6).reshape(-1, valuenet.OBS_DIM)
        rows, inverse = valuenet.distinct_rows(x)
        assert len(rows) == len(np.unique(x, axis=0)) < len(x)
        assert np.array_equal(rows[inverse].view(np.uint64), x.view(np.uint64))

    def test_rows_that_differ_only_in_the_sign_of_zero_stay_apart(self):
        x = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]])
        rows, inverse = valuenet.distinct_rows(x)
        assert np.array_equal(rows[inverse].view(np.uint64), x.view(np.uint64))

    def test_a_key_collision_merges_nothing(self, monkeypatch):
        monkeypatch.setattr(valuenet, "_row_key_weights", lambda width: np.zeros(width))
        x = np.array([[0.25, 1.0], [0.5, 1.0], [0.25, 1.0]])
        rows, inverse = valuenet.distinct_rows(x)
        assert rows is x and np.array_equal(inverse, np.arange(3))

    @pytest.mark.parametrize("collide", [False, True])
    @pytest.mark.parametrize("a_max", [1, 10])
    def test_greedy_actions_equal_the_undeduplicated_solve(self, monkeypatch, a_max, collide):
        rng = stream(25, f"test/dedupe/{a_max}")
        params = valuenet.init_mlp(valuenet.default_q_dims(a_max), rng, dtype=np.float32)
        obs = repeated_observations(rng, 45, 21)
        budget_limit = 10
        expected = budget.solve_budget_argmax(
            valuenet.action_value_table(params, obs, a_max), budget_limit
        )
        if collide:
            monkeypatch.setattr(valuenet, "_row_key_weights", lambda width: np.zeros(width))
        forward_rows, solved_stacks = [], []

        def table_spy(params, observations, a_max):
            forward_rows.append(len(observations))
            return action_value_table(params, observations, a_max)

        def solve_spy(tables, budget_limit):
            solved_stacks.append(len(tables))
            return solve_budget_argmax(tables, budget_limit)

        action_value_table = valuenet.action_value_table
        solve_budget_argmax = budget.solve_budget_argmax
        monkeypatch.setattr(valuenet, "action_value_table", table_spy)
        monkeypatch.setattr(budget, "solve_budget_argmax", solve_spy)
        actions = valuenet.greedy_actions(params, obs, a_max, budget_limit)
        assert np.array_equal(actions, expected)
        if collide:
            assert forward_rows == [45 * 21] and solved_stacks == [45]
        else:
            assert forward_rows == [len(np.unique(obs.reshape(-1, valuenet.OBS_DIM), axis=0))]
            assert solved_stacks == [len(np.unique(obs.reshape(45, -1), axis=0))]
            assert forward_rows[0] < 45 * 21 and solved_stacks[0] < 45


def transition(next_observations, *, reward=0.0, terminal=False):
    n = next_observations.shape[0]
    return valuenet.Transition(
        observations=np.zeros_like(next_observations),
        action=np.zeros(n, dtype=int),
        group=0,
        reward=reward,
        next_observations=next_observations,
        terminal=terminal,
    )


def bootstrap_values(params, batch, era=0, *, budget_limit=2, a_max=1):
    return training._bootstrap_values(
        params, batch, era, budget_limit=budget_limit, a_max=a_max
    )


class TestTdTarget:
    """The trainer's TD target: reward + gamma * training._bootstrap_values."""

    def setup_method(self):
        self.a_max = 1
        self.params = valuenet.init_mlp(valuenet.default_q_dims(self.a_max, (8, 8)), stream(12, "td"))

    def test_terminal_returns_reward(self):
        obs = np.zeros((3, valuenet.OBS_DIM))
        (value,) = bootstrap_values(self.params, [transition(obs, reward=-4.0, terminal=True)])
        assert value == 0.0
        assert -4.0 + 0.9 * value == -4.0

    def test_bootstrap_matches_exhaustive_enumeration(self):
        # a_max=1 takes the binary top-k branch of max_joint_value_batch, a_max=2 the DP
        rng = stream(13, "enum")
        n, budget_limit, gamma = 4, 2, 0.9
        for a_max in (1, 2):
            params = valuenet.init_mlp(valuenet.default_q_dims(a_max, (8, 8)), rng)
            obs = rng.uniform(size=(n, valuenet.OBS_DIM))
            table = valuenet.action_value_table(params, obs, a_max)
            best = budget.joint_value(table, budget.brute_force_argmax(table, budget_limit))
            (value,) = bootstrap_values(
                params, [transition(obs)], budget_limit=budget_limit, a_max=a_max
            )
            assert 1.0 + gamma * value == pytest.approx(1.0 + gamma * best, abs=1e-9)

    def test_bootstrap_is_memoised_per_target_era(self):
        rng = stream(14, "memo")
        batch = [transition(rng.uniform(size=(3, valuenet.OBS_DIM))) for _ in range(4)]
        batch.append(transition(rng.uniform(size=(3, valuenet.OBS_DIM)), terminal=True))
        first = bootstrap_values(self.params, batch, era=0)
        synced = valuenet.init_mlp(valuenet.default_q_dims(self.a_max, (8, 8)), rng)
        # same era: the cached values stand although the target parameters changed
        assert np.array_equal(bootstrap_values(synced, batch, era=0), first)
        # a new era recomputes them with the new parameters
        recomputed = bootstrap_values(synced, batch, era=1)
        fresh = bootstrap_values(synced, [transition(t.next_observations) for t in batch[:4]])
        assert np.array_equal(recomputed[:4], fresh)
        assert not np.array_equal(recomputed[:4], first[:4])
        assert recomputed[4] == first[4] == 0.0


class TestReplayBuffer:
    def test_fifo_eviction(self):
        buf = valuenet.ReplayBuffer(2)
        for item in ("a", "b", "c"):
            buf.push(item)
        assert len(buf) == 2
        assert sorted(buf._items) == ["b", "c"]

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError, match="empty"):
            valuenet.ReplayBuffer(4).sample(1, stream(0, "s"))

    def test_batch_larger_than_size_raises(self):
        buf = valuenet.ReplayBuffer(4)
        buf.push("a")
        with pytest.raises(ValueError, match="batch_size"):
            buf.sample(2, stream(0, "s"))

    def test_single_item_sample(self):
        buf = valuenet.ReplayBuffer(4)
        buf.push("only")
        assert buf.sample(1, stream(0, "s")) == ["only"]

    def test_sampling_is_uniform(self):
        chisquare = pytest.importorskip("scipy.stats").chisquare

        buf = valuenet.ReplayBuffer(10)
        for i in range(10):
            buf.push(i)
        rng = stream(15, "chi")
        tallies = np.zeros(10)
        for item in buf.sample(10_000, rng):
            tallies[item] += 1
        stat, p = chisquare(tallies)
        assert p > 0.01

    def test_deterministic_given_seed(self):
        buf = valuenet.ReplayBuffer(8)
        for i in range(8):
            buf.push(i)
        a = buf.sample(16, stream(16, "det"))
        b = buf.sample(16, stream(16, "det"))
        assert a == b


class TestTargetSync:
    def test_forward_agreement_after_sync(self):
        params = valuenet.init_mlp([3, 4, 1], stream(17, "ts"))
        target = valuenet.target_sync(params)
        x = np.ones(3)
        assert valuenet.mlp_forward(params, x) == pytest.approx(
            valuenet.mlp_forward(target, x), abs=0
        )

    def test_no_aliasing_after_gradient_step(self):
        params = valuenet.init_mlp([3, 4, 1], stream(18, "alias"))
        target = valuenet.target_sync(params)
        x = np.ones((1, 3))
        out, cache = valuenet.mlp_forward_cached(params, x)
        opt = valuenet.Optimizer(kind="sgd", learning_rate=0.5)
        before = valuenet.mlp_forward(target, x[0]).copy()
        valuenet.mlp_gradient_step(params, cache, np.ones_like(out), opt)
        assert np.array_equal(valuenet.mlp_forward(target, x[0]), before)
        assert not np.array_equal(valuenet.mlp_forward(params, x[0]), before)

    def test_scripted_sync_schedule(self):
        params = valuenet.init_mlp([2, 3, 1], stream(19, "sched"))
        target = valuenet.target_sync(params)
        opt = valuenet.Optimizer(kind="sgd", learning_rate=0.1)
        sync_every = 3
        for step in range(1, 10):
            out, cache = valuenet.mlp_forward_cached(params, np.ones((1, 2)))
            valuenet.mlp_gradient_step(params, cache, np.ones_like(out), opt)
            if step % sync_every == 0:
                target = valuenet.target_sync(params)
                assert valuenet.params_digest(target) == valuenet.params_digest(params)
            else:
                assert valuenet.params_digest(target) != valuenet.params_digest(params)


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = stream(20, "ckpt")
        params = valuenet.init_mlp([4, 8, 3], rng, dtype=np.float32)
        opt = valuenet.Optimizer(kind="adam", learning_rate=1e-3)
        out, cache = valuenet.mlp_forward_cached(params, rng.normal(size=(4, 4)))
        valuenet.mlp_gradient_step(params, cache, np.ones_like(out), opt)
        path = tmp_path / "ckpt.json"
        valuenet.save_checkpoint(path, params, kind="vdn", config_digest="abc123")
        loaded = valuenet.load_checkpoint(path)
        again = loaded["params"]
        assert again.layer_dims == params.layer_dims
        assert again.dtype == np.float32
        for w, w2 in zip(params.weights, again.weights):
            assert np.array_equal(w, w2)
        for b, b2 in zip(params.biases, again.biases):
            assert np.array_equal(b, b2)
        assert loaded["config_hash"] == "abc123"

    def test_version_1_file_with_optimizer_and_rng_state_keys_loads(self, tmp_path):
        import json

        params = valuenet.init_mlp([3, 2], stream(21, "ckpt"))
        path = tmp_path / "old.json"
        valuenet.save_checkpoint(path, params, kind="cb", meta={"seed": 4})
        doc = json.loads(path.read_text())
        doc.update(optimizer=None, rng_state=None)
        path.write_text(json.dumps(doc))
        loaded = valuenet.load_checkpoint(path)
        assert valuenet.params_digest(loaded["params"]) == valuenet.params_digest(params)
        assert (loaded["kind"], loaded["meta"]) == ("cb", {"seed": 4})

    def test_version_mismatch_rejected(self, tmp_path):
        import json

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 99}))
        with pytest.raises(ValueError, match="format version"):
            valuenet.load_checkpoint(path)
