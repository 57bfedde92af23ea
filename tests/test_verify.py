import dataclasses

import numpy as np
import pytest

from drsort import budget, valuenet, verify, warehouse

SMALL_RUNS = [
    ("lemma1-equivalence", lambda: verify.check_lemma1_equivalence(instances=10)),
    ("dr-bellman-contraction", lambda: verify.check_contraction(pairs=50)),
    ("upper-bound-dominance", lambda: verify.check_upper_bound_dominance(instances=20)),
    ("budget-ip-optimality", lambda: verify.check_budget_optimality(instances=50)),
    ("gradient-finite-difference", lambda: verify.check_gradients(nets=2)),
    ("env-conservation", lambda: verify.check_env_conservation(steps=200)),
    ("induction-correctness", lambda: verify.check_induction_correctness()),
]


def test_the_small_runs_cover_every_check():
    assert len(SMALL_RUNS) == len(verify.ALL_CHECKS) == 7


@pytest.mark.parametrize("name, run", SMALL_RUNS, ids=[name for name, _ in SMALL_RUNS])
def test_each_check_passes_at_a_small_instance_count(name, run):
    result = run()
    assert result.name == name
    assert result.passed, result.detail


def test_a_solver_that_assigns_nothing_fails_budget_optimality(monkeypatch):
    monkeypatch.setattr(
        budget, "solve_budget_argmax", lambda values, m: np.zeros(values.shape[:-1], dtype=int)
    )
    result = verify.check_budget_optimality(instances=50)
    assert not result.passed
    assert "tie-break mismatch" in result.detail


def test_a_step_that_drops_a_sorted_package_fails_env_conservation(monkeypatch):
    real_step = warehouse.step

    def dropping_step(state, action, induction, config):
        outcome = real_step(state, action, induction, config)
        dropped = outcome.sorted.copy()
        dropped[np.argmax(dropped)] -= 1
        return dataclasses.replace(outcome, sorted=dropped)

    monkeypatch.setattr(warehouse, "step", dropping_step)
    result = verify.check_env_conservation(steps=200)
    assert not result.passed
    assert "conservation violated" in result.detail


def per_array_finite_differences(params, inputs_x, grad_out, h=1e-5):
    """Central differences array by array: each weight matrix, then each bias vector."""

    def loss():
        return float(np.sum(valuenet.mlp_forward(params, inputs_x) * grad_out))

    fd_w, fd_b = [], []
    for arrays, out in ((params.weights, fd_w), (params.biases, fd_b)):
        for array in arrays:
            grad = np.zeros_like(array)
            for idx in np.ndindex(array.shape):
                orig = array[idx]
                array[idx] = orig + h
                up = loss()
                array[idx] = orig - h
                down = loss()
                array[idx] = orig
                grad[idx] = (up - down) / (2 * h)
            out.append(grad)
    return fd_w, fd_b


def test_flat_finite_differences_equal_the_per_array_loops_bit_for_bit():
    rng = np.random.default_rng(5)
    params = valuenet.init_mlp([4, 6, 5, 2], rng)
    before = params.flat.copy()
    x = rng.normal(size=(4, 4))
    grad_out = rng.normal(size=(4, 2))
    flat = verify.finite_difference_grads(params, x, grad_out)
    assert np.array_equal(params.flat.view(np.uint64), before.view(np.uint64))
    fd_w, fd_b = per_array_finite_differences(params, x, grad_out)
    grads = valuenet.MlpParams(layer_dims=params.layer_dims, flat=flat)
    for got, want in zip(grads.weights + grads.biases, fd_w + fd_b):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_a_backward_without_the_output_bias_gradient_fails_the_gradient_check(monkeypatch):
    real_backward = valuenet.mlp_backward

    def biasless_backward(params, inputs, grad_out):
        grads = real_backward(params, inputs, grad_out)
        grads.biases[-1][:] = 0.0
        return grads

    monkeypatch.setattr(valuenet, "mlp_backward", biasless_backward)
    result = verify.check_gradients(nets=2)
    assert not result.passed
    assert "relative error" in result.detail


def test_joint_rewards_without_the_backlog_fail_env_conservation(monkeypatch):
    real_joint_rewards = warehouse.joint_rewards

    def backlogless_joint_rewards(state, action, inductions, config):
        cleared = dataclasses.replace(state, recirc_backlog=np.zeros_like(state.recirc_backlog))
        return real_joint_rewards(cleared, action, inductions, config)

    monkeypatch.setattr(warehouse, "joint_rewards", backlogless_joint_rewards)
    result = verify.check_env_conservation(steps=200)
    assert not result.passed
    assert "joint reward mismatch" in result.detail
