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


def lockstep_greedy(params, observations, a_max, budget_limit):
    """greedy_actions of a (K, N, OBS_DIM) batch, its rows grouped by distinct_keys.

    distinct_keys groups integer rows, so each observation row stands in
    as its columns' ranks among the batch's values: equal rows, and only
    they, get equal rank rows.
    """
    flat = observations.reshape(-1, observations.shape[-1])
    ranks = np.stack([np.unique(column, return_inverse=True)[1] for column in flat.T], axis=1)
    _, row_of = valuenet.distinct_keys(ranks)
    member = np.empty(row_of.max() + 1, dtype=np.intp)
    member[row_of] = np.arange(len(flat))
    return valuenet.greedy_actions(
        params, flat[member], a_max, budget_limit, row_of=row_of.reshape(observations.shape[:-1])
    )


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
        params = valuenet.init_mlp([3, 4, 1], stream(3, "zg"))
        before = [w.copy() for w in params.weights]
        opt = valuenet.Optimizer(learning_rate=0.1)
        out, cache = valuenet.mlp_forward_cached(params, np.ones((2, 3)))
        opt.apply(params, valuenet.mlp_backward(params, cache, np.zeros_like(out)).flat)
        for w, w0 in zip(params.weights, before):
            assert np.array_equal(w, w0)

    def test_gradients_match_finite_differences(self):
        rng = stream(5, "fd")
        for dims in ([3, 5, 1], [4, 8, 8, 2], [2, 16, 3]):
            params = valuenet.init_mlp(dims, rng)
            assert max_relative_gradient_error(params, rng) < 1e-4

    def test_adam_moves_toward_target(self):
        rng = stream(6, "adam")
        params = valuenet.init_mlp([2, 8, 1], rng)
        opt = valuenet.Optimizer(learning_rate=1e-2)
        xs = rng.normal(size=(16, 2))
        targets = (xs[:, :1] * 0.5 - 0.25)
        losses = []
        for _ in range(300):
            out, cache = valuenet.mlp_forward_cached(params, xs)
            err = out - targets
            losses.append(float(np.mean(err**2)))
            opt.apply(params, valuenet.mlp_backward(params, cache, 2 * err / len(xs)).flat)
        assert losses[-1] < 0.02 * losses[0]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_output_layer_backprop_equals_the_matmul(self, dtype):
        rng = stream(21, "outer")
        params = valuenet.init_mlp([7, 64, 64, 1], rng, dtype=dtype)
        out, cache = valuenet.mlp_forward_cached(params, rng.normal(size=(1280, 7)))
        grad_out = rng.normal(size=out.shape).astype(dtype)
        grads = valuenet.mlp_backward(params, cache, grad_out)
        # the last hidden layer's weight gradient, through the BLAS outer product
        grad = (grad_out @ params.weights[2].T) * (cache[2] > 0.0)
        assert np.array_equal(grads.weights[1], cache[1].T @ grad)


def list_backward(params, inputs, grad_out):
    """Per-layer weight and bias gradient lists, each array allocated on its own."""
    grad = np.asarray(grad_out, dtype=params.dtype)
    grads_w = [None] * params.n_layers
    grads_b = [None] * params.n_layers
    last = params.n_layers - 1
    for layer in range(last, -1, -1):
        if layer != last:
            grad = grad * (inputs[layer + 1] > 0.0)
        grads_w[layer] = inputs[layer].T @ grad
        grads_b[layer] = grad.sum(axis=0)
        if layer > 0:
            w = params.weights[layer]
            grad = grad * w[:, 0] if w.shape[1] == 1 else grad @ w.T
    return grads_w, grads_b


# the two trainers' nets at their batch sizes, and a float64 net
NET_CASES = pytest.mark.parametrize(
    "dims, rows, dtype",
    [([7, 64, 64, 1], 1280, np.float32), ([120, 64, 64, 9], 64, np.float32),
     ([5, 16, 3], 32, np.float64)],
    ids=["q-net", "cb-net", "float64"],
)


class TestFlatBackward:
    @NET_CASES
    def test_equals_the_per_layer_lists_bit_for_bit(self, dims, rows, dtype):
        rng = stream(28, f"test/flat-backward/{dims}")
        params = valuenet.init_mlp(dims, rng, dtype=dtype)
        out, cache = valuenet.mlp_forward_cached(params, rng.normal(size=(rows, dims[0])))
        grad_out = rng.normal(size=out.shape).astype(dtype) / rows
        grads = valuenet.mlp_backward(params, cache, grad_out)
        grads_w, grads_b = list_backward(params, cache, grad_out)
        assert grads.layer_dims == params.layer_dims
        assert grads.flat.dtype == dtype and grads.flat.shape == params.flat.shape
        assert not np.shares_memory(grads.flat, params.flat)
        bits = np.dtype(f"u{np.dtype(dtype).itemsize}")
        for got, want in zip(grads.weights + grads.biases, grads_w + grads_b):
            assert got.shape == want.shape
            assert np.array_equal(got.view(bits), want.view(bits))

    def test_weights_and_biases_are_views_of_flat(self):
        rng = stream(29, "test/flat-backward/views")
        params = valuenet.init_mlp([3, 4, 2], rng)
        out, cache = valuenet.mlp_forward_cached(params, rng.normal(size=(5, 3)))
        grads = valuenet.mlp_backward(params, cache, np.ones_like(out))
        grads.flat[0] = 7.5
        assert grads.weights[0][0, 0] == 7.5
        grads.flat[-1] = -2.0
        assert grads.biases[-1][-1] == -2.0


class TestEinsumBiasSum:
    """mlp_backward sums a bias gradient of >= 2 columns by einsum("ij->j"), not sum(axis=0).

    On every contiguous array of two or more columns tried here, einsum adds
    the rows in the same order as the ufunc, so the sums are byte-equal. A
    numpy whose einsum adds in another order fails this test. One column is
    the exception: there sum(axis=0) adds pairwise and einsum does not, so
    the one-output layer keeps sum(axis=0) (TestFlatBackward checks it).
    """

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_sum_over_rows_byte_for_byte(self, dtype):
        rng = stream(30, f"test/einsum-bias/{np.dtype(dtype).name}")
        for rows in (1, 2, 3, 7, 8, 9, 16, 17, 63, 64, 65, 127, 128, 129, 1000, 1280, 4096):
            for cols in (2, 3, 4, 5, 7, 8, 9, 16, 17, 31, 33, 64, 65, 130):
                scale = rng.choice([1e-3, 1.0, 1e3], size=(rows, cols))
                grad = (rng.normal(size=(rows, cols)) * scale).astype(dtype)
                got = np.einsum("ij->j", grad, out=np.empty(cols, dtype))
                assert got.tobytes() == grad.sum(axis=0).tobytes(), (rows, cols)


class PerArrayAdam:
    """Adam run array by array, the per-layer loop that the flat Optimizer.apply replaced."""

    def __init__(self, params, learning_rate, beta1=0.9, beta2=0.999, eps=1e-8):
        self.learning_rate, self.beta1, self.beta2, self.eps = learning_rate, beta1, beta2, eps
        self.step_count = 0
        self.m_w = [np.zeros_like(w) for w in params.weights]
        self.v_w = [np.zeros_like(w) for w in params.weights]
        self.m_b = [np.zeros_like(b) for b in params.biases]
        self.v_b = [np.zeros_like(b) for b in params.biases]

    def apply(self, params, grads_w, grads_b):
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - self.beta1**t
        bias2 = 1.0 - self.beta2**t
        for layer in range(params.n_layers):
            for value, grad, m, v in (
                (params.weights[layer], grads_w[layer], self.m_w[layer], self.v_w[layer]),
                (params.biases[layer], grads_b[layer], self.m_b[layer], self.v_b[layer]),
            ):
                m *= self.beta1
                m += (1.0 - self.beta1) * grad
                v *= self.beta2
                v += (1.0 - self.beta2) * grad * grad
                value -= self.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + self.eps)

    def flat(self, name):
        """The moment vector `name` ("m" or "v") in the layout of MlpParams.flat."""
        by_w, by_b = getattr(self, f"{name}_w"), getattr(self, f"{name}_b")
        return np.concatenate([a.ravel() for pair in zip(by_w, by_b) for a in pair])


class TestFlatAdam:
    @NET_CASES
    def test_equals_the_per_array_loop_bit_for_bit(self, dims, rows, dtype):
        rng = stream(26, f"test/flat-adam/{dims}")
        params = valuenet.init_mlp(dims, rng, dtype=dtype)
        reference = valuenet.target_sync(params)
        initial = params.flat.copy()
        flat_adam = valuenet.Optimizer(learning_rate=1e-2)
        oracle = PerArrayAdam(reference, learning_rate=1e-2)
        for _ in range(60):
            x = rng.normal(size=(rows, dims[0])).astype(dtype)
            out, cache = valuenet.mlp_forward_cached(params, x)
            grad_out = rng.normal(size=out.shape).astype(dtype) / rows
            grads = valuenet.mlp_backward(params, cache, grad_out)
            # the oracle reads the gradient first: apply uses it as scratch
            oracle.apply(reference, grads.weights, grads.biases)
            flat_adam.apply(params, grads.flat)
        assert valuenet.params_digest(params) == valuenet.params_digest(reference)
        assert params.flat.dtype == flat_adam.m.dtype == flat_adam.v.dtype == dtype
        bits = np.dtype(f"u{np.dtype(dtype).itemsize}")
        for name in ("m", "v"):
            assert np.array_equal(getattr(flat_adam, name).view(bits), oracle.flat(name).view(bits))
        assert not np.array_equal(params.flat, initial)


class TestFlatStorage:
    def assert_views_of_flat(self, params):
        for array in (*params.weights, *params.biases):
            assert np.shares_memory(array, params.flat)
        sizes = [a.size for pair in zip(params.weights, params.biases) for a in pair]
        assert sum(sizes) == params.flat.size

    def test_init_load_and_sync_build_views_into_one_vector(self, tmp_path):
        params = valuenet.init_mlp([4, 8, 3], stream(27, "flat"), dtype=np.float32)
        self.assert_views_of_flat(params)
        path = tmp_path / "ckpt.json"
        valuenet.save_checkpoint(path, params, kind="cb")
        self.assert_views_of_flat(valuenet.load_checkpoint(path)["params"])
        self.assert_views_of_flat(valuenet.target_sync(params))

    def test_layout_is_w0_b0_w1_b1_row_major(self):
        params = valuenet.init_mlp([2, 3, 1], stream(28, "layout"))
        expected = np.concatenate([
            params.weights[0].ravel(), params.biases[0], params.weights[1].ravel(),
            params.biases[1],
        ])
        assert np.array_equal(params.flat, expected)

    def test_a_write_to_a_view_shows_in_flat(self):
        params = valuenet.init_mlp([3, 4, 1], stream(29, "write"))
        params.weights[0][0, 1] = 42.0
        params.biases[0][2] = -7.0
        assert params.flat[1] == 42.0
        assert params.flat[3 * 4 + 2] == -7.0

    def test_a_synced_target_shares_no_memory_with_the_live_params(self):
        params = valuenet.init_mlp([3, 4, 1], stream(30, "sync"))
        target = valuenet.target_sync(params)
        for array in (target.flat, *target.weights, *target.biases):
            assert not np.shares_memory(array, params.flat)
        assert valuenet.params_digest(target) == valuenet.params_digest(params)


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
        actions = lockstep_greedy(self.params, obs, self.a_max, 4)
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
        actions = lockstep_greedy(params, obs, a_max, budget_limit)
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
    def test_distinct_keys_rebuild_the_rows_bitwise(self):
        x = stream(24, "rows").integers(0, 3, size=(180, 6))
        x[2::3] = x[1::3][: len(x[2::3])]
        first, inverse = valuenet.distinct_keys(x)
        rows = x[first]
        assert len(rows) == len(np.unique(x, axis=0)) < len(x)
        assert np.array_equal(rows[inverse], x)

    def test_float_rows_are_a_type_error(self):
        with pytest.raises(TypeError, match="integers, got float64"):
            valuenet.distinct_keys(np.array([[0.0, 1.0], [-0.0, 1.0]]))

    @pytest.mark.parametrize("x", [np.empty((0, valuenet.OBS_DIM), np.int32),
                                   np.empty((0, 20), np.intp)])
    def test_no_rows_give_two_empty_arrays(self, x):
        first, inverse = valuenet.distinct_keys(x)
        rows = x[first]
        assert rows.shape == x.shape and rows.dtype == x.dtype
        assert inverse.shape == (0,)

    def test_a_batch_without_its_grouping_is_a_value_error(self):
        params = valuenet.init_mlp(valuenet.default_q_dims(1), stream(26, "test/no-grouping"))
        obs = repeated_observations(stream(26, "test/no-grouping-obs"), 3, 4)
        with pytest.raises(ValueError, match="row_of"):
            valuenet.greedy_actions(params, obs, 1, 2)

    @pytest.mark.parametrize("a_max", [1, 10])
    def test_greedy_actions_equal_the_undeduplicated_solve(self, monkeypatch, a_max):
        rng = stream(25, f"test/dedupe/{a_max}")
        params = valuenet.init_mlp(valuenet.default_q_dims(a_max), rng, dtype=np.float32)
        obs = repeated_observations(rng, 45, 21)
        budget_limit = 10
        expected = budget.solve_budget_argmax(
            valuenet.action_value_table(params, obs, a_max), budget_limit
        )
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
        actions = lockstep_greedy(params, obs, a_max, budget_limit)
        assert np.array_equal(actions, expected)
        assert forward_rows == [len(np.unique(obs.reshape(-1, valuenet.OBS_DIM), axis=0))]
        assert forward_rows[0] < 45 * 21
        if a_max == 1:
            # two-level tables are solved ungrouped, one stack per episode
            assert solved_stacks == [45]
        else:
            assert solved_stacks == [len(np.unique(obs.reshape(45, -1), axis=0))]
            assert solved_stacks[0] < 45

    def test_two_level_batches_are_solved_in_one_ungrouped_call(self, monkeypatch):
        rng = stream(27, "test/two-level")
        params = valuenet.init_mlp(valuenet.default_q_dims(1), rng, dtype=np.float32)
        obs = repeated_observations(rng, 45, 21)
        rows, row_of = np.unique(obs.reshape(-1, valuenet.OBS_DIM), axis=0, return_inverse=True)
        row_of = row_of.reshape(45, 21)
        tables = valuenet.action_value_table(params, rows, 1)
        expected = [budget.solve_budget_argmax(tables[episode], 10) for episode in row_of]
        solved, grouped = [], []

        def solve_spy(tables, budget_limit):
            solved.append(tables.shape)
            return solve_budget_argmax(tables, budget_limit)

        def grouping_spy(keys):
            grouped.append(keys.shape)
            return distinct_keys(keys)

        solve_budget_argmax, distinct_keys = budget.solve_budget_argmax, valuenet.distinct_keys
        monkeypatch.setattr(budget, "solve_budget_argmax", solve_spy)
        monkeypatch.setattr(valuenet, "distinct_keys", grouping_spy)
        actions = valuenet.greedy_actions(params, rows, 1, 10, row_of=row_of)
        assert solved == [(45, 21, 2)] and grouped == []
        assert np.array_equal(actions, np.stack(expected))


def column_replay(next_observations, *, a_max=1, reward=0.0, terminal=()):
    """A training.QReplay holding one step per next-observation array, in order.

    The steps at the indices in `terminal` end an episode.
    """
    n = next_observations[0].shape[0]
    replay = training.QReplay(len(next_observations), n, a_max)
    for i, next_obs in enumerate(next_observations):
        replay.push(np.zeros_like(next_obs), np.zeros(n, dtype=int), reward, next_obs,
                    i in terminal)
    return replay


def bootstrap_counts(params, replay, slots, era=0, *, budget_limit=2):
    return training._bootstrap_values(
        params, replay, np.asarray(slots), era, budget_limit=budget_limit
    )


def bootstrap_values(params, replay, slots, era=0, *, budget_limit=2):
    values, _, _ = bootstrap_counts(params, replay, slots, era, budget_limit=budget_limit)
    return values


class TestTdTarget:
    """The trainer's TD target: reward + gamma * training._bootstrap_values over QReplay slots."""

    def setup_method(self):
        self.a_max = 1
        self.params = valuenet.init_mlp(valuenet.default_q_dims(self.a_max, (8, 8)), stream(12, "td"))

    def test_terminal_returns_reward(self):
        obs = np.zeros((3, valuenet.OBS_DIM))
        replay = column_replay([obs], reward=-4.0, terminal={0})
        (value,) = bootstrap_values(self.params, replay, [0])
        assert value == 0.0
        assert replay.rewards[0] + 0.9 * value == -4.0

    def test_bootstrap_matches_exhaustive_enumeration(self):
        # a_max=1 takes the binary top-k branch of max_joint_value_batch, a_max=2 the DP
        rng = stream(13, "enum")
        n, budget_limit, gamma = 4, 2, 0.9
        for a_max in (1, 2):
            params = valuenet.init_mlp(valuenet.default_q_dims(a_max, (8, 8)), rng)
            # float32 values: the replay stores next observations in NET_DTYPE, and this
            # float64 net then sees the same inputs as the enumeration
            obs = rng.uniform(size=(n, valuenet.OBS_DIM)).astype(valuenet.NET_DTYPE)
            table = valuenet.action_value_table(params, obs, a_max)
            best = budget.joint_value(table, budget.brute_force_argmax(table, budget_limit))
            replay = column_replay([obs], a_max=a_max)
            (value,) = bootstrap_values(params, replay, [0], budget_limit=budget_limit)
            assert 1.0 + gamma * value == pytest.approx(1.0 + gamma * best, abs=1e-9)

    def test_bootstrap_is_memoised_per_target_era(self):
        rng = stream(14, "memo")
        next_obs = [rng.uniform(size=(3, valuenet.OBS_DIM)) for _ in range(5)]
        replay = column_replay(next_obs, terminal={4})
        slots = np.arange(5)
        first = bootstrap_values(self.params, replay, slots, era=0)
        synced = valuenet.init_mlp(valuenet.default_q_dims(self.a_max, (8, 8)), rng)
        # same era: the cached values stand although the target parameters changed
        assert np.array_equal(bootstrap_values(synced, replay, slots, era=0), first)
        # a new era recomputes them with the new parameters
        recomputed = bootstrap_values(synced, replay, slots, era=1)
        fresh = bootstrap_values(synced, column_replay(next_obs[:4]), slots[:4])
        assert np.array_equal(recomputed[:4], fresh)
        assert not np.array_equal(recomputed[:4], first[:4])
        assert recomputed[4] == first[4] == 0.0

    def test_bootstrap_counts_the_rows_it_recomputes(self):
        rng = stream(15, "memo-count")
        replay = column_replay(
            [rng.uniform(size=(3, valuenet.OBS_DIM)) for _ in range(4)], terminal={3}
        )
        counts = [bootstrap_counts(self.params, replay, np.arange(k), era)[1:]
                  for k, era in ((2, 0), (4, 0), (4, 0), (4, 1))]
        lookups, recomputed = (list(c) for c in zip(*counts))
        # the terminal row is never looked up; a memoised row is recomputed only in a new era
        assert lookups == [2, 3, 3, 3]
        assert recomputed == [2, 1, 0, 3]

    def test_a_slot_drawn_twice_in_a_stale_era_is_recomputed_twice(self, monkeypatch):
        rng = stream(16, "memo-twice")
        next_obs = [rng.uniform(size=(3, valuenet.OBS_DIM)) for _ in range(3)]
        replay = column_replay(next_obs, terminal={2})
        forwarded = []
        real = training.action_value_table_batch

        def recording(params, observations, a_max):
            forwarded.append(observations.copy())
            return real(params, observations, a_max)

        monkeypatch.setattr(training, "action_value_table_batch", recording)
        slots = [1, 0, 2, 1]
        counts = [bootstrap_counts(self.params, replay, slots, era)[1:] for era in (0, 0, 1)]
        # both positions of slot 1 count in every stale era; the terminal slot 2 never does
        assert counts == [(3, 3), (3, 0), (3, 3)]
        assert len(forwarded) == 2
        for stack in forwarded:
            assert np.array_equal(stack, replay.next_observations[[1, 0, 1]])
        values = bootstrap_values(self.params, replay, slots, era=1)
        assert values[0] == values[3] and values[2] == 0.0
        assert np.array_equal(values[:2], bootstrap_values(self.params, column_replay(
            next_obs[:2]), [1, 0]))


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


class TestReplayRing:
    def test_pushes_past_capacity_overwrite_the_oldest_slot_first(self):
        ring = valuenet.ReplayRing(4)
        slots = [ring.next_slot() for _ in range(11)]
        assert slots == [0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2]
        assert len(ring) == 4

    def test_draws_equal_the_buffer_samples_on_the_same_stream(self):
        ring, buf = valuenet.ReplayRing(5), valuenet.ReplayBuffer(5)
        column = np.empty(5, dtype=int)
        ring_rng, buf_rng, ref_rng = (stream(18, "ring") for _ in range(3))
        for item in range(13):
            column[ring.next_slot()] = item
            buf.push(item)
            if len(ring) >= 3:
                slots = ring.draw(3, ring_rng)
                assert slots.tolist() == ref_rng.integers(0, min(item + 1, 5), size=3).tolist()
                assert column[slots].tolist() == buf.sample(3, buf_rng)
        assert column.tolist() == buf._items == [10, 11, 12, 8, 9]
        assert ring_rng.bit_generator.state == buf_rng.bit_generator.state


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
        opt = valuenet.Optimizer(learning_rate=0.5)
        before = valuenet.mlp_forward(target, x[0]).copy()
        opt.apply(params, valuenet.mlp_backward(params, cache, np.ones_like(out)).flat)
        assert np.array_equal(valuenet.mlp_forward(target, x[0]), before)
        assert not np.array_equal(valuenet.mlp_forward(params, x[0]), before)

    def test_scripted_sync_schedule(self):
        params = valuenet.init_mlp([2, 3, 1], stream(19, "sched"))
        target = valuenet.target_sync(params)
        opt = valuenet.Optimizer(learning_rate=0.1)
        sync_every = 3
        for step in range(1, 10):
            out, cache = valuenet.mlp_forward_cached(params, np.ones((1, 2)))
            opt.apply(params, valuenet.mlp_backward(params, cache, np.ones_like(out)).flat)
            if step % sync_every == 0:
                target = valuenet.target_sync(params)
                assert valuenet.params_digest(target) == valuenet.params_digest(params)
            else:
                assert valuenet.params_digest(target) != valuenet.params_digest(params)


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = stream(20, "ckpt")
        params = valuenet.init_mlp([4, 8, 3], rng, dtype=np.float32)
        opt = valuenet.Optimizer(learning_rate=1e-3)
        out, cache = valuenet.mlp_forward_cached(params, rng.normal(size=(4, 4)))
        opt.apply(params, valuenet.mlp_backward(params, cache, np.ones_like(out)).flat)
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

    @pytest.mark.parametrize("kind, dims", [("vdn", [7, 64, 64, 1]), ("cb", [120, 64, 64, 9])])
    def test_written_bytes_equal_json_dump(self, tmp_path, kind, dims):
        import json

        params = valuenet.init_mlp(dims, stream(22, f"ckpt/{kind}"), dtype=valuenet.NET_DTYPE)
        meta = {"seed": 3, "wall_clock_s": 0.1 + 0.2}
        path = tmp_path / f"{kind}.json"
        valuenet.save_checkpoint(path, params, kind=kind, config_digest="abc123", meta=meta)
        oracle = tmp_path / "oracle.json"
        with open(oracle, "w", encoding="utf-8") as fh:
            json.dump({
                "format_version": valuenet.CHECKPOINT_VERSION,
                "kind": kind,
                "layer_dims": params.layer_dims,
                "dtype": np.dtype(params.dtype).name,
                "weights": [w.ravel().tolist() for w in params.weights],
                "biases": [b.tolist() for b in params.biases],
                "config_hash": "abc123",
                "meta": meta,
            }, fh)
        assert path.read_bytes() == oracle.read_bytes()

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

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc.pop("layer_dims"), "missing field 'layer_dims'"),
            (lambda doc: doc.pop("kind"), "missing field 'kind'"),
            (lambda doc: doc.pop("biases"), "missing field 'biases'"),
            (lambda doc: doc["weights"].pop(), "weights holds 1 layers"),
            (lambda doc: doc["weights"][1].pop(), "weights[1] has shape (7,), expected (8, 1)"),
            (lambda doc: doc["biases"][0].append(0.0), "biases[0] has shape (9,), expected (8,)"),
            (lambda doc: doc.update(layer_dims=[4]), "need at least input and output dims"),
            (lambda doc: doc.update(dtype="no-such-type"), "no-such-type"),
            (lambda doc: doc.update(dtype="int8"), "dtype 'int8' is not 'float32' or 'float64'"),
            (lambda doc: doc.update(layer_dims=[4.9, 8, 1.5]),
             "layer_dims [4.9, 8, 1.5] holds a width that is not an integer >= 1"),
            (lambda doc: doc.update(layer_dims=[4, 8.0, 1]), "layer_dims [4, 8.0, 1] holds"),
            (lambda doc: doc.update(layer_dims=[4, 8, True]), "layer_dims [4, 8, True] holds"),
            (lambda doc: doc.update(layer_dims=[4, 0, 1]), "layer_dims [4, 0, 1] holds"),
        ],
        ids=["no-layer-dims", "no-kind", "no-biases", "short-weights", "short-matrix",
             "long-bias", "one-dim", "bad-dtype", "int8-dtype", "fractional-widths",
             "float-width", "bool-width", "zero-width"],
    )
    def test_a_broken_checkpoint_names_the_field(self, tmp_path, edit, message):
        import json

        path = tmp_path / "broken.json"
        valuenet.save_checkpoint(path, valuenet.init_mlp([4, 8, 1], stream(31, "bad")), kind="vdn")
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(valuenet.CheckpointError) as info:
            valuenet.load_checkpoint(path)
        assert message in str(info.value)

    def test_version_mismatch_rejected(self, tmp_path):
        import json

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 99}))
        with pytest.raises(ValueError, match="format version"):
            valuenet.load_checkpoint(path)
