"""Fast property suites backing the `verify` subcommand.

Each check pits an implementation against an independent oracle
(brute-force enumeration, dense grids, finite differences, a
high-precision CDF series) on seeded random instances and returns a
(name, passed, detail) record. The whole battery targets well under a
minute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import budget, induction, tabular, valuenet, warehouse
from .seeding import stream


def phi_series(z: float) -> float:
    """Standard-normal CDF via the Maclaurin series, independent of erf.

    Phi(z) = 1/2 + phi(z) * sum_{n>=0} z^(2n+1) / (1*3*...*(2n+1)).
    All terms share the sign of z, so there is no cancellation; beyond
    |z| = 8.5 the tail is below 1e-17 and the value is clamped to 0 or 1.
    The result is a CDF value, accurate to an absolute ~1e-16: it does
    not resolve a tail mass far below that.
    """
    if z > 8.5:
        return 1.0
    if z < -8.5:
        return 0.0
    term = z
    total = z
    n = 0
    while abs(term) > 1e-20 * abs(total) + 1e-300:
        n += 1
        term *= z * z / (2 * n + 1)
        total += term
    density = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return 0.5 + density * total


def truncated_normal_oracle(mu: float, sigma: float, n: int) -> np.ndarray:
    """Reference per-destination probabilities from the series CDF.

    It differences CDF values, so it is accurate only to an absolute
    ~1e-14. In a far tail, where Phi is near 1 or clamped, its entries
    come out as zeros or tiny negatives (at mu=-4, sigma=2, N=20 entry 14
    is about -1e-14 and entries 15-20 are 0). It checks the bulk of the
    distribution; the positivity and monotonicity of the tails are tested
    against `truncated_normal_probs` directly.
    """
    cdf = np.array([phi_series((i - mu) / sigma) for i in range(n + 1)])
    return np.diff(cdf) / (cdf[-1] - cdf[0])


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def random_mdp(
    rng: np.random.Generator,
    max_states: int = 4,
    max_actions: int = 3,
    max_groups: int = 4,
    per_group: bool = False,
) -> tabular.TabularMdp:
    s = int(rng.integers(2, max_states + 1))
    a = int(rng.integers(2, max_actions + 1))
    m = int(rng.integers(1, max_groups + 1))
    rewards = rng.normal(0.0, 2.0, size=(m, s, a))
    shape = (m, s, a) if per_group else (s, a)
    transitions = rng.dirichlet(np.ones(s), size=shape)
    gamma = float(rng.uniform(0.5, 0.99))
    return tabular.TabularMdp(rewards=rewards, transitions=transitions, gamma=gamma)


def check_lemma1_equivalence(seed: int = 0, instances: int = 100) -> CheckResult:
    """min over groups equals the simplex minimum (vertex optimum)."""
    rng = stream(seed, "verify/lemma1")
    worst_gap = 0.0
    for _ in range(instances):
        m = int(rng.integers(1, 6))
        rewards = rng.normal(0.0, 5.0, size=m)
        resolution = 12
        vertex_min = tabular.worst_case_reward(rewards)
        oracle = tabular.simplex_min_oracle(rewards, resolution, rng, n_dirichlet=2000)
        grid_error = (np.abs(rewards).max() * m) / resolution
        if oracle < vertex_min - 1e-9:
            return CheckResult(
                "lemma1-equivalence", False,
                f"simplex oracle beat the vertex minimum by {vertex_min - oracle:.3e}",
            )
        worst_gap = max(worst_gap, oracle - vertex_min)
        if oracle - vertex_min > grid_error:
            return CheckResult(
                "lemma1-equivalence", False,
                f"oracle exceeded the vertex minimum beyond grid error ({oracle - vertex_min:.3e})",
            )
    return CheckResult(
        "lemma1-equivalence", True, f"{instances} instances, max oracle gap {worst_gap:.3e}"
    )


def check_contraction(seed: int = 0, pairs: int = 1000) -> CheckResult:
    """Robust backup is a gamma-contraction in the sup norm."""
    rng = stream(seed, "verify/contraction")
    worst_margin = -np.inf
    checked = 0
    while checked < pairs:
        mdp = random_mdp(rng)
        for _ in range(min(20, pairs - checked)):
            shape = (mdp.n_states, mdp.n_actions)
            q1 = rng.normal(0.0, 5.0, size=shape)
            q2 = rng.normal(0.0, 5.0, size=shape)
            lhs = np.abs(
                tabular.dr_bellman_apply(mdp, q1) - tabular.dr_bellman_apply(mdp, q2)
            ).max()
            rhs = mdp.gamma * np.abs(q1 - q2).max() + 1e-12
            if lhs > rhs:
                return CheckResult(
                    "dr-bellman-contraction", False,
                    f"|T(Q1)-T(Q2)| = {lhs:.6e} exceeded gamma*|Q1-Q2| = {rhs:.6e}",
                )
            worst_margin = max(worst_margin, lhs - rhs)
            checked += 1
    return CheckResult(
        "dr-bellman-contraction", True, f"{checked} pairs, worst margin {worst_margin:.3e}"
    )


def check_upper_bound_dominance(seed: int = 0, instances: int = 200) -> CheckResult:
    """Joint-min backup dominates the separate-min backup elementwise."""
    rng = stream(seed, "verify/dominance")
    min_slack = np.inf
    for _ in range(instances):
        mdp = random_mdp(rng, per_group=True)
        q = rng.normal(0.0, 5.0, size=(mdp.n_states, mdp.n_actions))
        upper = tabular.approx_bellman_apply(mdp, q)
        lower = tabular.dr_bellman_apply(mdp, q)
        slack = float((upper - lower).min())
        min_slack = min(min_slack, slack)
        if slack < -1e-12:
            return CheckResult(
                "upper-bound-dominance", False, f"dominance violated by {-slack:.3e}"
            )
    return CheckResult(
        "upper-bound-dominance", True, f"{instances} instances, min slack {min_slack:.3e}"
    )


def check_budget_optimality(seed: int = 0, instances: int = 500) -> CheckResult:
    """DP solution matches brute-force enumeration exactly."""
    rng = stream(seed, "verify/budget")
    for k in range(instances):
        n = int(rng.integers(1, 7))
        a_max = int(rng.integers(1, 5))
        m = int(rng.integers(0, 9))
        values = rng.normal(0.0, 3.0, size=(n, a_max + 1))
        dp_action = budget.solve_budget_argmax(values, m)
        bf_action = budget.brute_force_argmax(values, m)
        dp_value = budget.max_joint_value(values, m)
        bf_value = budget.joint_value(values, bf_action)
        if dp_value != bf_value:
            return CheckResult(
                "budget-ip-optimality", False,
                f"instance {k}: DP value {dp_value!r} != brute force {bf_value!r}",
            )
        if not np.array_equal(dp_action, bf_action):
            return CheckResult(
                "budget-ip-optimality", False,
                f"instance {k}: tie-break mismatch {dp_action} vs {bf_action}",
            )
        if dp_action.sum() > m or np.any(dp_action < 0) or np.any(dp_action > a_max):
            return CheckResult("budget-ip-optimality", False, f"instance {k}: infeasible output")
    return CheckResult("budget-ip-optimality", True, f"{instances} instances, exact match")


def finite_difference_grads(params, inputs_x, grad_out, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of sum(grad_out * forward(x)), in the layout of params.flat.

    Entries are perturbed one at a time, each restored exactly before the next.
    """

    def loss() -> float:
        return float(np.sum(valuenet.mlp_forward(params, inputs_x) * grad_out))

    flat = params.flat
    grad = np.zeros_like(flat)
    for idx in range(flat.size):
        orig = flat[idx]
        flat[idx] = orig + h
        up = loss()
        flat[idx] = orig - h
        down = loss()
        flat[idx] = orig
        grad[idx] = (up - down) / (2 * h)
    return grad


def max_relative_gradient_error(params, rng, batch: int = 4) -> float:
    x = rng.normal(size=(batch, params.layer_dims[0]))
    grad_out = rng.normal(size=(batch, params.layer_dims[-1]))
    _, cache = valuenet.mlp_forward_cached(params, x)
    analytic = valuenet.mlp_backward(params, cache, grad_out).flat
    numeric = finite_difference_grads(params, x, grad_out)
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    return float((np.abs(analytic - numeric) / denom).max())


def check_gradients(seed: int = 0, nets: int = 10) -> CheckResult:
    """Backprop matches central finite differences on random small nets."""
    rng = stream(seed, "verify/gradients")
    worst = 0.0
    for _ in range(nets):
        depth = int(rng.integers(1, 4))
        dims = [int(rng.integers(2, 9))]
        dims += [int(rng.integers(2, 17)) for _ in range(depth - 1)]
        dims += [int(rng.integers(1, 5))]
        params = valuenet.init_mlp(dims, rng)
        worst = max(worst, max_relative_gradient_error(params, rng))
        if worst >= 1e-4:
            return CheckResult(
                "gradient-finite-difference", False, f"relative error {worst:.3e} >= 1e-4"
            )
    return CheckResult(
        "gradient-finite-difference", True, f"{nets} nets, max relative error {worst:.3e}"
    )


def check_env_conservation(seed: int = 0, steps: int = 10_000) -> CheckResult:
    """Per-destination package conservation, budget safety, and joint_rewards
    bit-equal to each step's summed rewards."""
    rng = stream(seed, "verify/env")
    config = warehouse.EnvConfig(
        n_destinations=6, n_chutes=3, episode_steps=5, step_volume=40, action_max=2
    )
    state = warehouse.reset(config)
    for k in range(steps):
        action = budget.sample_feasible_uniform(
            config.n_destinations, config.action_max, config.n_chutes, rng
        )
        induction = rng.multinomial(config.step_volume, np.full(6, 1 / 6))
        outcome = warehouse.step(state, action, induction, config)
        arrivals = induction + state.recirc_backlog
        if not np.array_equal(outcome.sorted + outcome.recirculated, arrivals):
            return CheckResult("env-conservation", False, f"conservation violated at step {k}")
        if outcome.next_state.chutes_assigned.sum() > config.n_chutes:
            return CheckResult("env-conservation", False, f"budget violated at step {k}")
        joint = warehouse.joint_rewards(state, action, induction[None], config)
        if joint.view(np.uint64) != outcome.rewards.sum(keepdims=True).view(np.uint64):
            return CheckResult("env-conservation", False, f"joint reward mismatch at step {k}")
        state = outcome.next_state
        if state.t >= config.episode_steps:
            state = warehouse.reset(config)
    return CheckResult(
        "env-conservation", True,
        f"{steps} random steps conserved packages and matched joint_rewards",
    )


def check_induction_correctness(seed: int = 0) -> CheckResult:
    """Truncated-normal probs match the series oracle."""
    rng = stream(seed, "verify/induction")
    worst = 0.0
    for _ in range(40):
        n = int(rng.integers(2, 25))
        mu = float(rng.uniform(-4.0, n))
        sigma = float(rng.uniform(1.0, 4.0))
        spec = induction.TruncatedNormalSpec(mu=mu, sigma=sigma, n_destinations=n, volume=10)
        probs = induction.truncated_normal_probs(spec)
        oracle = truncated_normal_oracle(mu, sigma, n)
        worst = max(worst, float(np.abs(probs - oracle).max()))
        if worst >= 1e-6:
            return CheckResult(
                "induction-correctness", False, f"CDF-oracle deviation {worst:.3e} >= 1e-6"
            )
    return CheckResult("induction-correctness", True, f"max CDF deviation {worst:.3e}")


ALL_CHECKS = (
    check_lemma1_equivalence,
    check_contraction,
    check_upper_bound_dominance,
    check_budget_optimality,
    check_gradients,
    check_env_conservation,
    check_induction_correctness,
)


def run_all(seed: int = 0) -> list[CheckResult]:
    return [check(seed) for check in ALL_CHECKS]
