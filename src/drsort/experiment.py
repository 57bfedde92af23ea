"""Experiment orchestration: train the policy matrix, evaluate, report.

Outputs under the configured directory, each with one writer that the CLI
shares:
  metrics.csv            write_metrics_csv: one row per policy (Table-1
                         shape); byte-identical across re-runs of a config
  trace_<run>-s<seed>.csv  write_trace_csv: one training.TraceRow per episode
  cb_s<seed>.csv         train_predictor: predictor training-loss curves
  checkpoints/*.json     save_policy (policies), train_predictor (predictors)
  report.json            ExperimentRunner.run: per-run, per-group detail, errors
"""

from __future__ import annotations

import csv
import dataclasses
import json
import time
import traceback
import typing
from pathlib import Path

from . import bandit, training, valuenet, warehouse
from .config import ExperimentConfig, RunSpec, config_to_doc, parse_config
from .induction import GroupSet

TRACE_COLUMNS = tuple(f.name for f in dataclasses.fields(training.TraceRow))
_TRACE_TYPES = typing.get_type_hints(training.TraceRow)
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


def read_trace_csv(path: Path) -> list[dict]:
    """The rows of a trace CSV, each value converted to its TraceRow field's type."""
    with open(path, newline="", encoding="utf-8") as fh:
        return [
            {key: _TRACE_TYPES[key](value) for key, value in record.items()}
            for record in csv.DictReader(fh)
        ]


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


def evaluation_to_doc(report: training.EvaluationReport) -> dict:
    return {
        "wall_clock_s": report.wall_clock_s,
        "per_group": [
            {
                "group": g.group,
                "recirc_rate_mean": g.mean("recirc_rate"),
                "recirc_rate_std": g.std("recirc_rate"),
                "throughput_mean": g.mean("throughput"),
                "recirc_amount_mean": g.mean("recirc_amount"),
                "episode_recirc_rates": [ep.recirc_rate for ep in g.episodes],
                "episode_throughputs": [ep.throughput for ep in g.episodes],
            }
            for g in report.per_group
        ],
    }


class ExperimentRunner:
    """Runs a config's policy matrix; failures are recorded per run."""

    def __init__(self, config: ExperimentConfig, output_dir: Path | None = None):
        self.config = config
        self.out = Path(output_dir) if output_dir is not None else Path(config.output_dir)
        self.checkpoint_dir = self.out / "checkpoints"
        self._cb_cache: dict[int, valuenet.MlpParams] = {}
        self._marl_anchor: dict[int, valuenet.MlpParams] = {}
        self.run_docs: list[dict] = []
        self.errors: list[dict] = []

    def _ensure_cb(self, seed: int) -> valuenet.MlpParams:
        if seed not in self._cb_cache:
            cfg = self.config
            result = train_predictor(
                cfg.env, cfg.group_set, cfg.cb, seed, self._marl_anchor.get(seed),
                self.checkpoint_dir / f"cb-s{seed}.json", self.out / f"cb_s{seed}.csv",
            )
            self._cb_cache[seed] = result.params
        return self._cb_cache[seed]

    def _train_one(self, run: RunSpec, seed: int) -> dict:
        cfg = self.config
        train_cfg = dataclasses.replace(
            cfg.train,
            worst_case_mode=run.mode,
            fixed_group=(run.group - 1) if run.group is not None else None,
            episodes=run.episodes,
        )
        cb_params = self._ensure_cb(seed) if run.mode == "cb" else None
        t0 = time.perf_counter()
        result = training.train_drmarl(train_cfg, cfg.env, cfg.group_set, seed, cb_params)
        train_seconds = time.perf_counter() - t0
        if run.mode == "fixed" and seed not in self._marl_anchor:
            self._marl_anchor[seed] = result.params

        evaluation = training.evaluate_policy(
            result.params, cfg.env, cfg.group_set, cfg.eval_trials, cfg.eval_seed
        )
        tag = f"{run.name}-s{seed}"
        trace_path = self.out / f"trace_{tag}.csv"
        write_trace_csv(trace_path, result.trace)
        checkpoint_path = self.checkpoint_dir / f"{tag}.json"
        save_policy(checkpoint_path, result.params, train_cfg,
                    {"run": run.name, "seed": seed, "mode": run.mode, "group": run.group})
        return {
            "name": run.name,
            "seed": seed,
            "mode": run.mode,
            "group": run.group,
            "episodes": run.episodes,
            "train_wall_clock_s": train_seconds,
            "cb_digest_before": result.cb_digest_before,
            "cb_digest_after": result.cb_digest_after,
            "trace": trace_path.name,
            "checkpoint": str(checkpoint_path.relative_to(self.out)),
            "evaluation": evaluation_to_doc(evaluation),
        }

    def run(self) -> dict:
        self.out.mkdir(parents=True, exist_ok=True)
        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        jobs = [(run, seed) for run in self.config.runs for seed in run.seeds]
        # Fixed-mode jobs run first; a stable sort keeps config order within
        # both kinds. A seed's CB exploration then anchors on the first fixed
        # run in the config that lists that seed, wherever its cb runs stand.
        jobs.sort(key=lambda job: job[0].mode != "fixed")
        for run, seed in jobs:
            try:
                self.run_docs.append(self._train_one(run, seed))
            except Exception as exc:  # noqa: BLE001 - isolate per-run failures
                self.errors.append(
                    {
                        "name": run.name,
                        "seed": seed,
                        "error": f"{type(exc).__name__}: {exc}",
                        "traceback": traceback.format_exc(),
                    }
                )
        report = {
            "config": config_to_doc(self.config),
            "runs": self.run_docs,
            "errors": self.errors,
        }
        (self.out / "report.json").write_text(
            json.dumps(report, indent=2), encoding="utf-8"
        )
        write_metrics_csv(self.out / "metrics.csv", self.config, self.run_docs)
        return report


def write_metrics_csv(path: Path, config: ExperimentConfig, run_docs: list[dict]) -> None:
    """One Table-1-shaped row per policy, pooled over seeds and groups."""
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
    write_csv(path, METRIC_COLUMNS, rows)


def run_experiment(config: ExperimentConfig, output_dir: Path | None = None) -> dict:
    """Train all configured policies, evaluate on every group, write reports."""
    return ExperimentRunner(config, output_dir).run()


# ---------------------------------------------------------------------------
# Report regeneration (the `report` subcommand)
# ---------------------------------------------------------------------------


def regenerate_reports(runs_dir: Path, out_dir: Path) -> None:
    """Rebuild metrics.csv and a convergence CSV from a finished matrix.

    The convergence file carries cumulative wall-clock per episode so
    training-efficiency curves can be plotted directly.
    """
    runs_dir = Path(runs_dir)
    report_path = runs_dir / "report.json"
    if not report_path.exists():
        raise FileNotFoundError(f"no report.json under {runs_dir}")
    report = json.loads(report_path.read_text(encoding="utf-8"))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    config = parse_config(json.dumps(report["config"]))
    write_metrics_csv(out_dir / "metrics.csv", config, report["runs"])

    convergence_rows = []
    for doc in report["runs"]:
        trace_path = runs_dir / doc["trace"]
        if not trace_path.exists():
            continue
        cumulative = 0.0
        for record in read_trace_csv(trace_path):
            cumulative += record["wall_clock_s"]
            convergence_rows.append(
                (
                    doc["name"],
                    doc["seed"],
                    record["episode"],
                    record["mean_return"],
                    record["recirc_rate"],
                    cumulative,
                )
            )
    write_csv(
        out_dir / "convergence.csv",
        ("policy", "seed", "episode", "mean_return", "recirc_rate", "cum_wall_clock_s"),
        convergence_rows,
    )
