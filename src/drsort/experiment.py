"""Experiment orchestration: train the policy matrix, evaluate, report.

Outputs under the configured directory, each with one writer that the CLI
shares:
  metrics.csv            metric_rows: one row per policy (Table-1
                         shape); byte-identical across re-runs of a config
  convergence.csv        run_experiment: each job's trace episodes with its
                         cumulative training wall-clock, in report.json order
  trace_<run>-s<seed>.csv  write_trace_csv: one training.TraceRow per episode
  cb_s<seed>.csv         train_predictor: predictor training-loss curves
  checkpoints/*.json     save_policy (policies), train_predictor (predictors);
                         load_policy and load_predictor read them back
  report.json            run_experiment: per-run, per-group detail, errors
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import time
import traceback
from pathlib import Path

import numpy as np

from . import bandit, training, valuenet, warehouse
from .config import ConfigError, ExperimentConfig, RunSpec, config_to_doc
from .induction import GroupSet

TRACE_COLUMNS = tuple(f.name for f in dataclasses.fields(training.TraceRow))
CONVERGENCE_COLUMNS = (
    "policy", "seed", "episode", "mean_return", "recirc_rate", "cum_wall_clock_s"
)
METRIC_COLUMNS = (
    "policy",
    "recirc_rate_mean",
    "recirc_rate_std",
    "throughput_mean",
    "recirc_amount_mean",
)


def write_csv(path: Path, columns, rows) -> None:
    """Header plus rows; floats are written with repr, so they read back exactly."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


def write_trace_csv(path: Path, trace: list[training.TraceRow]) -> None:
    write_csv(path, TRACE_COLUMNS, [dataclasses.astuple(row) for row in trace])


def save_policy(
    path: Path, params: valuenet.MlpParams, train_config: training.TrainConfig, meta: dict
) -> None:
    """The policy checkpoint, tagged with the hash of its training config."""
    valuenet.save_checkpoint(
        path,
        params,
        kind="vdn",
        config_digest=valuenet.config_hash(dataclasses.asdict(train_config)),
        meta=meta,
    )


def train_predictor(
    env_config: warehouse.EnvConfig,
    group_set: GroupSet,
    cb_config: bandit.CbConfig,
    seed: int,
    q_params: valuenet.MlpParams | None,
    checkpoint_path: Path,
    losses_path: Path,
) -> bandit.CbTrainResult:
    """Train the worst-case predictor; write its checkpoint and its episode,loss CSV."""
    result = bandit.train_cb(env_config, group_set, cb_config, seed, q_params=q_params)
    valuenet.save_checkpoint(
        checkpoint_path,
        result.params,
        kind="cb",
        config_digest=valuenet.config_hash(dataclasses.asdict(cb_config)),
        meta={"seed": seed, "wall_clock_s": result.wall_clock_s},
    )
    write_csv(losses_path, ("episode", "loss"), enumerate(result.episode_losses, start=1))
    return result


def _load_params(path: Path, kind: str, widths: tuple[int, int]) -> valuenet.MlpParams:
    """A checkpoint's net, checked to be complete and of `kind` with (input, output) `widths`."""
    try:
        checkpoint = valuenet.load_checkpoint(path)
    except valuenet.CheckpointError as exc:
        raise ConfigError(str(path), str(exc)) from exc
    if checkpoint["kind"] != kind:
        raise ConfigError(str(path), f"expected a {kind!r} checkpoint, got {checkpoint['kind']!r}")
    dims = checkpoint["params"].layer_dims
    if (dims[0], dims[-1]) != widths:
        raise ConfigError(str(path), f"the net maps {dims[0]} inputs to {dims[-1]} outputs, "
                                     f"where this config needs {widths[0]} to {widths[1]}")
    return checkpoint["params"]


def load_policy(path: Path, env_config: warehouse.EnvConfig) -> valuenet.MlpParams:
    """A policy checkpoint's Q-net, checked against the env's action range."""
    return _load_params(path, "vdn", (valuenet.q_input_dim(env_config.action_max), 1))


def load_predictor(path: Path, env_config: warehouse.EnvConfig, group_set: GroupSet):
    """A predictor checkpoint's net, checked against the env's N and the group count."""
    return _load_params(
        path, "cb", (bandit.cb_context_dim(env_config.n_destinations), group_set.size)
    )


def evaluation_to_doc(report: training.EvaluationReport) -> dict:
    """report.json's evaluation entry: each group's episode rates and throughputs, and
    numpy's mean (and the rate's std) of each column of one float64 (episodes, 3) array."""
    per_group = []
    for g in report.per_group:
        values = [(ep.recirc_rate, ep.throughput, ep.recirc_amount) for ep in g.episodes]
        rates, throughputs, amounts = np.array(values, dtype=float).T
        per_group.append({
            "group": g.group,
            "recirc_rate_mean": float(rates.mean()),
            "recirc_rate_std": float(rates.std()),
            "throughput_mean": float(throughputs.mean()),
            "recirc_amount_mean": float(amounts.mean()),
            "episode_recirc_rates": [ep.recirc_rate for ep in g.episodes],
            "episode_throughputs": [ep.throughput for ep in g.episodes],
        })
    return {"wall_clock_s": report.wall_clock_s, "per_group": per_group}


def _train_one(config: ExperimentConfig, out: Path, run: RunSpec, seed: int, inductions,
               anchors: dict[int, valuenet.MlpParams],
               predictors: dict[int, valuenet.MlpParams]
               ) -> tuple[dict, list[training.TraceRow]]:
    """Train, evaluate and save one (run, seed) job; return its report.json entry and trace.

    A cb job first trains the seed's predictor, once per seed, exploring
    on the seed's anchor. A fixed job's policy becomes the seed's anchor
    as soon as it has trained, if the seed has none yet.
    """
    run.check(config.group_set.size, lambda field: f"{run.name}.{field}")
    train_cfg = run.train_config(config.train)
    if run.mode == "cb" and seed not in predictors:
        predictors[seed] = train_predictor(
            config.env, config.group_set, config.cb, seed, anchors.get(seed),
            out / "checkpoints" / f"cb-s{seed}.json", out / f"cb_s{seed}.csv",
        ).params
    cb_params = predictors[seed] if run.mode == "cb" else None
    t0 = time.perf_counter()
    result = training.train_drmarl(train_cfg, config.env, config.group_set, seed, cb_params)
    train_seconds = time.perf_counter() - t0
    if run.mode == "fixed":
        anchors.setdefault(seed, result.params)

    evaluation = training.evaluate_policy(
        result.params, config.env, config.group_set, config.eval_trials, config.eval_seed,
        inductions=inductions,
    )
    tag = f"{run.name}-s{seed}"
    trace_path = out / f"trace_{tag}.csv"
    write_trace_csv(trace_path, result.trace)
    checkpoint_path = out / "checkpoints" / f"{tag}.json"
    save_policy(checkpoint_path, result.params, train_cfg,
                {"run": run.name, "seed": seed, "mode": run.mode, "group": run.group})
    return {
        "name": run.name,
        "seed": seed,
        "mode": run.mode,
        "group": run.group,
        "episodes": run.episodes,
        "train_wall_clock_s": train_seconds,
        "gradient_steps": result.gradient_steps,
        "target_syncs": result.target_syncs,
        # entry k counts the env steps trained on group k + 1
        "group_histogram": result.group_counts,
        "bootstrap_hit_rate": result.bootstrap_hit_rate,
        "cb_digest_before": result.cb_digest_before,
        "cb_digest_after": result.cb_digest_after,
        "trace": trace_path.name,
        "checkpoint": str(checkpoint_path.relative_to(out)),
        "evaluation": evaluation_to_doc(evaluation),
    }, result.trace


def metric_rows(config: ExperimentConfig, run_docs: list[dict]) -> list[tuple]:
    """metrics.csv's rows: one Table-1-shaped row per policy, pooled over seeds and groups."""
    rows = []
    for run in config.runs:
        docs = [d for d in run_docs if d["name"] == run.name]
        if not docs:
            continue
        rates, throughputs, amounts = [], [], []
        for doc in docs:
            for group in doc["evaluation"]["per_group"]:
                rates.append(group["recirc_rate_mean"])
                throughputs.append(group["throughput_mean"])
                amounts.append(group["recirc_amount_mean"])
        n = len(rates)
        mean_rate = sum(rates) / n
        var = sum((r - mean_rate) ** 2 for r in rates) / n
        rows.append((run.name, mean_rate, var**0.5, sum(throughputs) / n, sum(amounts) / n))
    return rows


def run_experiment(config: ExperimentConfig, output_dir: Path | None = None) -> dict:
    """Train all configured policies, evaluate each on every group, write the reports.

    A failing (run, seed) job is recorded under "errors" and the others go on.
    Fixed-mode jobs run first; a stable sort keeps config order within both
    kinds. A seed's cb runs then use one predictor that explored on the
    first fixed run in the config that lists that seed, wherever its cb
    runs stand.
    """
    out = Path(output_dir) if output_dir is not None else Path(config.output_dir)
    (out / "checkpoints").mkdir(parents=True, exist_ok=True)
    jobs = [(run, seed) for run in config.runs for seed in run.seeds]
    jobs.sort(key=lambda job: job[0].mode != "fixed")
    # every policy is evaluated on the same episodes, so they are drawn once
    inductions = training.draw_evaluation_inductions(
        config.env, config.group_set, config.eval_trials, config.eval_seed
    )
    anchors: dict[int, valuenet.MlpParams] = {}
    predictors: dict[int, valuenet.MlpParams] = {}
    run_docs, errors, convergence = [], [], []
    for run, seed in jobs:
        try:
            doc, trace = _train_one(config, out, run, seed, inductions, anchors, predictors)
        except Exception as exc:  # noqa: BLE001 - isolate per-run failures
            errors.append({"name": run.name, "seed": seed,
                           "error": f"{type(exc).__name__}: {exc}",
                           "traceback": traceback.format_exc()})
            continue
        run_docs.append(doc)
        cumulative = itertools.accumulate(row.wall_clock_s for row in trace)
        convergence.extend((run.name, seed, row.episode, row.mean_return, row.recirc_rate, total)
                           for row, total in zip(trace, cumulative))
    report = {"config": config_to_doc(config), "runs": run_docs, "errors": errors}
    (out / "report.json").write_text(json.dumps(report, indent=2), encoding="utf-8")
    write_csv(out / "metrics.csv", METRIC_COLUMNS, metric_rows(config, run_docs))
    write_csv(out / "convergence.csv", CONVERGENCE_COLUMNS, convergence)
    return report

