import dataclasses

import numpy as np
import pytest

from drsort import budget, verify, warehouse

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
