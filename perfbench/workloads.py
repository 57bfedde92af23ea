"""The three drsort benchmark workloads, driven only through public functions.

Every workload uses the appendix-B sizes: N=20 destinations, M=10 chutes,
T=10 steps, V=1200 packages per step, 9 induction groups, and evaluation
over 9 groups x `eval_trials` trials. The workload seed fixes every run
seed and the evaluation seed, so one seed always gives the same inputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import shutil
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from drsort import config, experiment, training, valuenet, warehouse
from drsort.induction import GroupSet
from tracing import Target, Tracer, patched

WORKLOADS = ("appb-matrix", "appb-exhaustive", "main-dp")


@dataclass(frozen=True)
class Sizes:
    matrix_episodes: int = 20
    exhaustive_episodes: int = 50
    main_dp_episodes: int = 60
    eval_trials: int = 20
    cb_episodes: int | None = None  # None keeps the preset's episode count


FULL = Sizes()

# The top-level calls the untraced run times: a few dozen spans per run.
TIMED = (
    Target("training.train_drmarl"),
    Target("training.evaluate_policy"),
    Target("bandit.train_cb"),
)


def _table_rows(args, kwargs, result) -> int:
    return int(result.shape[0])


def _q_transitions(args, kwargs, result) -> int:
    # the predictor's buffer holds CbTransition items; only the Q-net's count
    return len(result) if result and isinstance(result[0], valuenet.Transition) else 0


TRACED = TIMED + (
    Target("experiment.run_experiment"),
    Target("training.select_worst_group"),
    Target("training.probe_group_reward"),
    Target("training.rollout"),
    Target("warehouse.step"),
    Target("warehouse.clone_state"),
    Target("warehouse.observe_all"),
    Target("induction.sample", "GroupSet.sample"),
    Target("valuenet.mlp_forward_cached"),
    Target("valuenet.mlp_backward"),
    Target("valuenet.optimizer_apply", "Optimizer.apply"),
    Target("valuenet.action_value_table"),
    Target("valuenet.action_value_table_batch", units=_table_rows),
    Target("valuenet.replay_push", "ReplayBuffer.push"),
    Target("valuenet.replay_sample", "ReplayBuffer.sample", units=_q_transitions),
    Target("valuenet.save_checkpoint"),
    Target("budget.solve_budget_argmax"),
    Target("budget.max_joint_value_batch"),
    Target("budget.sample_feasible_uniform"),
    Target("bandit.cb_update"),
    Target("bandit.cb_worst_group"),
)


@dataclass
class Context:
    """Everything a workload builds before its first training call."""

    name: str
    sizes: Sizes
    workdir: Path
    run_seeds: tuple[int, ...]
    eval_seed: int
    env: warehouse.EnvConfig
    group_set: GroupSet
    train: training.TrainConfig
    experiment: config.ExperimentConfig | None = None

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def _matrix_doc(seed: int, sizes: Sizes, run_seeds, eval_seed: int, out: Path) -> dict:
    episodes = sizes.matrix_episodes
    both, first = list(run_seeds), [run_seeds[0]]
    # marl-center comes first so each seed's cb predictor anchors on it
    runs = [
        {"name": "marl-center", "mode": "fixed", "group": config.CENTER_GROUP,
         "episodes": episodes, "seeds": both},
        {"name": "drmarl-cb", "mode": "cb", "episodes": episodes, "seeds": both},
        {"name": "drmarl-random", "mode": "random", "episodes": episodes, "seeds": both},
        {"name": "drmarl-exhaustive", "mode": "exhaustive", "episodes": episodes, "seeds": both},
        {"name": "marl-group-1", "mode": "fixed", "group": 1, "episodes": episodes, "seeds": first},
        {"name": "marl-group-9", "mode": "fixed", "group": 9, "episodes": episodes, "seeds": first},
    ]
    doc = {
        "preset": "appendix-b",
        "master_seed": seed,
        "evaluation": {"trials": sizes.eval_trials, "seed": eval_seed},
        "output_dir": str(out),
        "runs": runs,
    }
    if sizes.cb_episodes is not None:
        doc["cb"] = {"episodes": sizes.cb_episodes}
    return doc


def setup(name: str, seed: int, sizes: Sizes, scratch: Path) -> Context:
    """Config parse, group-set build and temp dir for one workload."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    draw = random.Random(seed)
    run_seeds = (draw.randrange(1, 2**31), draw.randrange(1, 2**31))
    eval_seed = draw.randrange(1, 2**31)
    Path(scratch).mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    if name == "appb-matrix":
        cfg = config.parse_config(
            json.dumps(_matrix_doc(seed, sizes, run_seeds, eval_seed, workdir))
        )
        return Context(name, sizes, workdir, run_seeds, eval_seed,
                       cfg.env, cfg.group_set, cfg.train, cfg)
    env, group_set, train, _ = config.appendix_b_defaults()
    if name == "appb-exhaustive":
        train = dataclasses.replace(
            train, worst_case_mode="exhaustive", episodes=sizes.exhaustive_episodes
        )
        return Context(name, sizes, workdir, run_seeds, eval_seed, env, group_set, train)
    env = warehouse.main_formulation_config()
    train = dataclasses.replace(train, worst_case_mode="random", episodes=sizes.main_dp_episodes)
    return Context(name, sizes, workdir, run_seeds, eval_seed, env, group_set, train)


@dataclass
class Evaluation:
    policy: str
    seed: int
    # per group (in group order): per-episode recirculation rates and throughputs
    groups: list[tuple[list[float], list[int]]]


@dataclass
class RepOutcome:
    """One repetition of a workload: its outputs and the spans that timed it."""

    attempted: int
    failed: int = 0
    episodes_trained: int = 0
    evaluations: list[Evaluation] = field(default_factory=list)
    cb_digests: list[tuple[str, str]] = field(default_factory=list)
    metrics_sha256: str = ""
    errors: list[str] = field(default_factory=list)
    wall_s: float = 0.0
    tracer: Tracer | None = None


def _run_matrix(ctx: Context, out: Path) -> RepOutcome:
    report = experiment.run_experiment(ctx.experiment, out)
    return RepOutcome(
        attempted=sum(len(run.seeds) for run in ctx.experiment.runs),
        failed=len(report["errors"]),
        errors=[e["traceback"] for e in report["errors"]],
        episodes_trained=sum(doc["episodes"] for doc in report["runs"]),
        evaluations=[
            Evaluation(
                doc["name"],
                doc["seed"],
                [
                    (g["episode_recirc_rates"], g["episode_throughputs"])
                    for g in doc["evaluation"]["per_group"]
                ],
            )
            for doc in report["runs"]
        ],
        cb_digests=[
            (doc["cb_digest_before"], doc["cb_digest_after"])
            for doc in report["runs"]
            if doc["mode"] == "cb"
        ],
        metrics_sha256=hashlib.sha256((out / "metrics.csv").read_bytes()).hexdigest(),
    )


def _run_single(ctx: Context) -> RepOutcome:
    seed = ctx.run_seeds[0]
    rep = RepOutcome(attempted=2)
    try:
        result = training.train_drmarl(ctx.train, ctx.env, ctx.group_set, seed)
        rep.episodes_trained = ctx.train.episodes
        report = training.evaluate_policy(
            result.params, ctx.env, ctx.group_set, ctx.sizes.eval_trials, ctx.eval_seed
        )
    except Exception:  # noqa: BLE001 - a failed call is counted, not fatal
        rep.failed = 1 if rep.episodes_trained else 2
        rep.errors.append(traceback.format_exc())
        return rep
    rep.evaluations = [
        Evaluation(
            ctx.train.worst_case_mode,
            seed,
            [
                ([ep.recirc_rate for ep in g.episodes], [ep.throughput for ep in g.episodes])
                for g in report.per_group
            ],
        )
    ]
    rep.metrics_sha256 = hashlib.sha256(
        json.dumps([ev.groups for ev in rep.evaluations], separators=(",", ":")).encode("utf-8")
    ).hexdigest()
    return rep


def run_once(ctx: Context, index: int, targets=TIMED, probe=None) -> RepOutcome:
    """Run the workload once with `targets` wrapped; the wrappers are gone on return.

    A `probe` brackets each outermost wrapped call (see `Tracer`).
    """
    tracer = Tracer(probe=probe)
    out = ctx.workdir / f"rep{index}"
    with patched(tracer, targets):
        start = time.perf_counter()
        rep = _run_matrix(ctx, out) if ctx.experiment is not None else _run_single(ctx)
        rep.wall_s = time.perf_counter() - start
    shutil.rmtree(out, ignore_errors=True)
    rep.tracer = tracer
    return rep


def check(ctx: Context, rep: RepOutcome) -> list[str]:
    """Output checks for one repetition; returns the problems found."""
    problems = []
    if rep.failed:
        problems.append(f"{rep.failed} of {rep.attempted} operations failed")
    max_throughput = ctx.env.step_volume * ctx.env.episode_steps
    expected_episodes = ctx.group_set.size * ctx.sizes.eval_trials
    for ev in rep.evaluations:
        tag = f"{ev.policy} seed {ev.seed}"
        n_episodes = sum(len(rates) for rates, _ in ev.groups)
        if n_episodes != expected_episodes:
            problems.append(f"{tag}: {n_episodes} evaluated episodes, expected {expected_episodes}")
        for g, (rates, throughputs) in enumerate(ev.groups, start=1):
            if any(not 0.0 <= r <= 1.0 for r in rates):
                problems.append(f"{tag} group {g}: recirc_rate outside [0, 1]")
            if any(not 0 <= x <= max_throughput for x in throughputs):
                problems.append(f"{tag} group {g}: throughput outside [0, V*T={max_throughput}]")
    if ctx.experiment is not None:
        expected_cb = sum(len(r.seeds) for r in ctx.experiment.runs if r.mode == "cb")
        if len(rep.cb_digests) != expected_cb:
            problems.append(f"{len(rep.cb_digests)} cb runs finished, expected {expected_cb}")
        for before, after in rep.cb_digests:
            if not before or before != after:
                problems.append("cb predictor changed during a cb run")
    return problems


def recirculation(rep: RepOutcome) -> dict[str, dict[str, float]]:
    """Per policy: mean and worst-group recirculation, group means pooled over seeds."""
    by_policy: dict[str, list[list[float]]] = {}
    for ev in rep.evaluations:
        means = [sum(rates) / len(rates) for rates, _ in ev.groups]
        by_policy.setdefault(ev.policy, []).append(means)
    out = {}
    for policy, seeds in by_policy.items():
        group_means = [sum(col) / len(col) for col in zip(*seeds)]
        out[policy] = {
            "mean": sum(group_means) / len(group_means),
            "worst_group": max(group_means),
        }
    return out
